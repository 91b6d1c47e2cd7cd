"""Exact triangle counting and the analytic variance bound.

Ground truth for every experiment comes from here: a full recount by
``graph.triangle_slots``, the one triangle lister, which the arrival index's
closing times run too, an incremental tracker that follows an event stream
by probing sorted neighbor lists where a per-event truth is needed, and the
closed-form upper bound on the sampling estimator's variance for a stream.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

import numpy as np

from .graph import triangle_slots


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
    """Exact global triangle count of the store ``g``, read through
    ``nodes()`` and ``adjacency()`` alone, by ``graph.triangle_slots``: the
    nodes are ranked in id order through a dict, so floats and ints beyond
    int64 serve, and the sorted neighbor lists become rows of ranks."""
    nodes = sorted(g.nodes())
    rank = dict(zip(nodes, range(len(nodes))))
    rows = list(map(g.adjacency, nodes))
    start = np.cumsum([0, *map(len, rows)])
    nbrs = np.fromiter(map(rank.__getitem__, chain.from_iterable(rows)), np.int32, start[-1])
    return sum(len(a) for a, _, _ in triangle_slots(start, nbrs))


class ExactTracker:
    """Incremental exact triangle count over an event stream.

    Call contract: apply each event once, before or after the graph
    applies it.  The count does not depend on which, since Γ(u) ∩ Γ(v)
    never contains u or v, so the edge's own presence cannot change it,
    and the peak degree is read in the graph that holds the edge either
    way.  A count that would go negative means the tracker and the graph
    are out of step: the graph holds triangles whose building events the
    tracker never saw.

    Also records the per-event triangle-overlap trace and the peak degree
    seen, the ingredients of :func:`variance_bound`.
    """

    def __init__(self):
        self.count = 0
        self.h_trace: list[int] = []
        self.max_degree = 0

    def apply(self, ev, g) -> int:
        nu, nv = g.adjacency(ev.u), g.adjacency(ev.v)
        h = common_neighbor_count(nu, nv)
        self.count += h if ev.beta == 1 else -h
        if self.count < 0:
            raise ValueError(
                "negative triangle count: the tracker is out of step with the graph "
                "(it was not applied to every event that built the graph)"
            )
        self.h_trace.append(h)
        d = max(len(nu), len(nv))
        if d >= self.max_degree:  # only then can the peak grow; it counts the edge held
            s = bisect_left(nu, ev.v)
            self.max_degree = d + (s == len(nu) or nu[s] != ev.v)
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
