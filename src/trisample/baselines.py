"""Comparison estimators: probabilistic sparsification and a fixed-size
edge reservoir with random pairing for deletions.

Both maintain their own sampled subgraph and never query the main graph
store; they see only the event stream.  They speak the replay protocol of
the sampling estimator: ``skip(events, start, stop)`` draws the coins of
upcoming events and does the bookkeeping of those that leave the sample
unchanged, and returns the position of the first event that changes it;
``step(events, i, stop, g)`` applies ``events[i]`` without redrawing its
coin and then skips from ``i + 1``.  ``process`` is ``skip`` then ``step``
for one event.  A replay driver thus calls a baseline once per event that
touches its sample, with the same random draws as ``process`` on every
event.

Both assume a consistent stream: no addition of a present edge and no
deletion of an absent one.  The replay driver rejects any other, so the
reservoir keeps only a count of live edges, not the edges themselves.
"""

from __future__ import annotations

import random

from .graph import Graph
from .oracle import triangles_of_edge


class DoulionEstimator:
    """Sparsifier: keeps each arriving edge with probability ``p`` and
    counts triangles inside the sample.

    A triangle survives sparsification with probability p^3, so the sample
    count rescales by p^-3.  The count is maintained incrementally on every
    sample mutation, which makes the estimate queryable mid-stream while
    ending at exactly the value a batch recount would give.
    """

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self.rng = random.Random(seed)
        self.sample = Graph()
        self.tri_in_sample = 0
        self.edges_sampled = 0

    def process(self, ev) -> None:
        events = (ev,)
        if self.skip(events, 0, 1) == 0:
            self.step(events, 0, 1, None)

    def skip(self, events, start: int, stop: int) -> int:
        """Position of the first event in ``events[start:stop]`` that changes
        the sample (``stop`` if none): an addition whose coin is won, or a
        deletion of a sampled edge.  Other deletions need no draw."""
        rand = self.rng.random
        p = self.p
        has_edge = self.sample.has_edge
        for k in range(start, stop):
            ev = events[k]
            if ev.beta == 1:
                if rand() < p:
                    return k
            elif has_edge(ev.u, ev.v):
                return k
        return stop

    def step(self, events, i: int, stop: int, g) -> int:
        """Add ``events[i]``, a won addition, to the sample or drop the
        sampled edge it deletes, then skip from ``i + 1``; ``g`` is unused,
        since the sparsifier sees only the stream."""
        ev = events[i]
        if ev.beta == 1:
            if self.sample.add_edge(ev.u, ev.v):
                # the new edge cannot be its own common neighbor, so
                # counting after the insert is exact
                self.tri_in_sample += triangles_of_edge(self.sample, ev.u, ev.v)
                self.edges_sampled += 1
        else:
            self.tri_in_sample -= triangles_of_edge(self.sample, ev.u, ev.v)
            self.sample.delete_edge(ev.u, ev.v)
        return self.skip(events, i + 1, stop)

    def estimate(self) -> float:
        if self.p == 0.0:
            return 0.0
        return self.tri_in_sample / self.p**3


class TriestEstimator:
    """Fixed-capacity edge reservoir with random pairing for deletions.

    Additions fill the reservoir, then replace a uniform member with
    probability capacity/t.  Deleting a reservoir edge frees a slot and
    leaves a "bad" debt that a future insertion compensates; deletions of
    unsampled edges leave "good" debts that swallow future insertions.  The
    weighted triangle counter tau follows every reservoir mutation, and the
    estimate rescales tau by the cubic over-counting factor of sampling
    triangles from s live edges through min(capacity, s) slots.  s is a
    count kept from the stream, so the state is O(capacity).
    """

    def __init__(self, capacity: int, seed: int = 0):
        # 3.0 runs as 3 slots; 2.7, 0, nan and inf are refused
        if not (capacity >= 1 and float(capacity).is_integer()):
            raise ValueError(f"reservoir capacity must be an integer >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.rng = random.Random(seed)
        self.sample = Graph()
        self._edges: list[tuple[int, int]] = []  # reservoir slots
        self._slot: dict[tuple[int, int], int] = {}
        self._live = 0  # current true-graph edge count
        self.tau = 0
        self.t_add = 0
        self.c_bad = 0  # uncompensated deletions of reservoir edges
        self.c_good = 0  # uncompensated deletions of unsampled edges

    @property
    def edges_sampled(self) -> int:
        return len(self._edges)

    @property
    def live_edges(self) -> int:
        """Size of the true graph as tracked from the event stream."""
        return self._live

    def process(self, ev) -> None:
        events = (ev,)
        if self.skip(events, 0, 1) == 0:
            self.step(events, 0, 1, None)

    def skip(self, events, start: int, stop: int) -> int:
        """Position of the first event in ``events[start:stop]`` that changes
        the reservoir (``stop`` if none); the others are counted.  An
        addition stops while the reservoir fills, and after that when its
        coin is won: capacity/t without debts, c_bad/(c_bad + c_good) with
        them.  A lost coin with debts pays a good one.  A deletion stops
        on a reservoir edge and otherwise leaves a good debt."""
        rand = self.rng.random
        cap = self.capacity
        slot = self._slot
        filling = len(self._edges) < cap
        c_bad, c_good, t_add, live = self.c_bad, self.c_good, self.t_add, self._live
        k = stop
        for i in range(start, stop):
            ev = events[i]
            if ev.beta == 1:
                if c_good == 0 and c_bad == 0:
                    if filling or rand() < cap / (t_add + 1):
                        k = i
                        break
                elif rand() < c_bad / (c_bad + c_good):
                    k = i
                    break
                else:
                    c_good -= 1
                t_add += 1
                live += 1
            else:
                u, v = ev.u, ev.v
                if ((u, v) if u < v else (v, u)) in slot:
                    k = i
                    break
                c_good += 1
                live -= 1
        self.c_good, self.t_add, self._live = c_good, t_add, live
        return k

    def step(self, events, i: int, stop: int, g) -> int:
        """Apply ``events[i]``, where ``skip`` stopped: insert or replace for
        an addition, drop the reservoir edge for a deletion; then skip from
        ``i + 1``.  Its coin is already drawn; a replacement draws its slot.
        ``g`` is unused."""
        ev = events[i]
        e = (ev.u, ev.v) if ev.u < ev.v else (ev.v, ev.u)
        if ev.beta == 1:
            self.t_add += 1
            self._live += 1
            if self.c_bad + self.c_good:
                self._insert(e)
                self.c_bad -= 1
            elif len(self._edges) < self.capacity:
                self._insert(e)
            else:
                self._replace(self.rng.randrange(self.capacity), e)
        else:
            self._live -= 1
            self._remove(e)
            self.c_bad += 1
        return self.skip(events, i + 1, stop)

    def estimate(self) -> float:
        s = self._live
        m = min(self.capacity, s)
        if m < 3:
            return float(self.tau)
        rho = max(1.0, s * (s - 1) * (s - 2) / (m * (m - 1) * (m - 2)))
        return self.tau * rho

    # ------------------------------------------------------------------
    # reservoir plumbing; tau counts triangles whose three edges are all in
    # the sample, adjusted by the new/old edge's common-neighbor count

    def _insert(self, e: tuple[int, int]) -> None:
        self._slot[e] = len(self._edges)
        self._edges.append(e)
        self.sample.add_edge(*e)
        self.tau += triangles_of_edge(self.sample, *e)

    def _remove(self, e: tuple[int, int]) -> None:
        self.tau -= triangles_of_edge(self.sample, *e)
        self.sample.delete_edge(*e)
        idx = self._slot.pop(e)
        last = self._edges.pop()
        if last != e:
            self._edges[idx] = last
            self._slot[last] = idx

    def _replace(self, idx: int, e: tuple[int, int]) -> None:
        old = self._edges[idx]
        self.tau -= triangles_of_edge(self.sample, *old)
        self.sample.delete_edge(*old)
        del self._slot[old]
        self._edges[idx] = e
        self._slot[e] = idx
        self.sample.add_edge(*e)
        self.tau += triangles_of_edge(self.sample, *e)
