"""Exact triangle counting and the analytic variance bound.

Ground truth for every experiment comes from here: a full recount that
orients edges by degree, an incremental tracker that follows an event
stream by probing sorted neighbor lists where a per-event truth is needed,
and the closed-form upper bound on the sampling estimator's variance for a
given stream.
"""

from __future__ import annotations

from bisect import bisect_left


def common_neighbor_count(a, b) -> int:
    """Size of the intersection of two sorted sequences.

    Each element of the shorter sequence is binary-searched in the longer
    one, starting where the previous search ended, so the cost is
    O(min(|a|, |b|) * log max(|a|, |b|)): an edge at a hub costs the leaf's
    degree, not the hub's.
    """
    if len(a) > len(b):
        a, b = b, a
    end = len(b)
    n = lo = 0
    for x in a:
        lo = bisect_left(b, x, lo)
        if lo == end:
            break
        if b[lo] == x:
            n += 1
            lo += 1
    return n


def triangles_of_edge(g, u: int, v: int) -> int:
    """Number of triangles the edge (u, v) takes part in: |Γ(u) ∩ Γ(v)|.

    The edge itself need not be present; the count only involves common
    neighbors of the endpoints.
    """
    return common_neighbor_count(g.adjacency(u), g.adjacency(v))


def exact_triangles(g) -> int:
    """Exact global triangle count by the degree-ordered forward method.

    Each edge points to the endpoint with the larger (degree, id), so every
    triangle is counted once, at its edge between the two lower-ranked
    corners, as the one common out-neighbor of those corners.  Out-lists
    hold at most O(sqrt |E|) nodes each, which keeps hub edges cheap.  They
    stay lists, and only the current node's out-list becomes a set, which
    keeps the transient memory near one short list per node.  Most edges
    close no triangle, so an allocation-free disjointness test runs before
    each intersection.
    """
    order = sorted(g.nodes(), key=lambda u: (g.degree(u), u))
    rank = {u: i for i, u in enumerate(order)}
    out = {u: [v for v in g.adjacency(u) if rank[v] > i] for i, u in enumerate(order)}
    total = 0
    for ou in out.values():
        if len(ou) > 1:
            seen = set(ou)
            for v in ou:
                ov = out[v]
                if not seen.isdisjoint(ov):
                    total += len(seen.intersection(ov))
    return total


class ExactTracker:
    """Incremental exact triangle count over an event stream.

    Call contract: apply each event once.  The count does not depend on
    whether the graph has applied it yet, since Γ(u) ∩ Γ(v) never contains
    u or v, so the edge's own presence cannot change it.  ``max_degree``
    sees every degree peak when the tracker runs after additions, because
    each peak is reached by one.  A count that would go negative means the
    tracker and the graph are out of step: the graph holds triangles whose
    building events the tracker never saw.

    Also records the per-event triangle-overlap trace and the peak degree
    seen, the ingredients of :func:`variance_bound`.
    """

    def __init__(self):
        self.count = 0
        self.h_trace: list[int] = []
        self.max_degree = 0

    def apply(self, ev, g) -> int:
        h = triangles_of_edge(g, ev.u, ev.v)
        self.count += h if ev.beta == 1 else -h
        if self.count < 0:
            raise ValueError(
                "negative triangle count: the tracker is out of step with the graph "
                "(it was not applied to every event that built the graph)"
            )
        self.h_trace.append(h)
        du = g.degree(ev.u)
        dv = g.degree(ev.v)
        if du > self.max_degree:
            self.max_degree = du
        if dv > self.max_degree:
            self.max_degree = dv
        return self.count


def variance_bound(h_trace, n_t: float, d_max: int, alpha: float) -> float:
    """Upper bound on the sampling estimator's variance for a given stream:

        n_t * (d_max - 1) / (2*alpha) + (1/(2*alpha) - 1) * sum(h_i^2)

    where h_i is the per-event triangle overlap recorded by the tracker and
    d_max the peak degree over the stream (which dominates every per-step
    maximum, keeping the bound valid).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    second = sum(h * h for h in h_trace)
    return n_t * (d_max - 1) / (2.0 * alpha) + (1.0 / (2.0 * alpha) - 1.0) * second
