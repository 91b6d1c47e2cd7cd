"""Comparison estimators: probabilistic sparsification and a fixed-size
edge reservoir with random pairing for deletions.

Both keep their own sampled subgraph and see only the event stream, so
neither reads a graph store.  They speak the replay protocol of the
sampling estimator, whose schedule the ``harness`` module states.  No
update of theirs reads the store, so they have no ``step``: ``skip(events)``
draws the randomness of ``events``, applies every event there that changes
the sample and returns ``len(events)``.  ``run(events, i, stop, order)``,
over an ``ArrivalOrder`` whose stream holds no deletion, makes the same
draws for ``events[i:stop]`` without reading the events and applies every
event there that touches the sample; the harness passes ``order`` to
every estimator.  ``process``, a one-event ``skip``, is kept only for the
traced benchmark driver; the harness and the criteria use ``replay``.

Both assume a consistent stream: no addition of a present edge and no
deletion of an absent one.  The replay driver rejects any other, so the
reservoir keeps only a count of live edges, not the edges themselves.

The reservoir's triangle counter and sample graph are settled per call:
a reservoir mutation only records the edge's net change, and ``skip`` and
``run`` apply the net changes to the sample graph and to tau before they
return, so reading ``estimate()``, ``tau`` or ``sample`` does no work.
"""

from __future__ import annotations

import random
from math import exp, floor, inf, lgamma, log, log1p

from .graph import Graph
from .oracle import triangles_of_edge
from .stream import canonical, positive_int, probability


class DoulionEstimator:
    """Sparsifier: keeps each arriving edge with probability ``p`` and
    counts triangles inside the sample.

    A triangle survives sparsification with probability p^3, so the sample
    count rescales by p^-3.  The count is maintained incrementally on every
    sample mutation, which makes the estimate queryable mid-stream while
    ending at exactly the value a batch recount would give.

    The coins are drawn as gaps: a countdown of the additions to pass over
    before the next one kept, drawn at construction and after each kept
    addition, so a kept addition costs one ``random()`` and a passed one
    none.  ``skip``, ``run`` and ``process`` all consume it, so every feed
    makes the same draws.
    """

    def __init__(self, p: float, seed: int = 0):
        self.p = probability("p", p)
        self.rng = random.Random(seed)
        self.sample = Graph()
        self.tri_in_sample = 0
        self.edges_sampled = 0
        self._gap = self._draw_gap()

    def _draw_gap(self):
        """The additions to pass over before the next one kept: G =
        floor(ln U / log1p(-p)) with U = 1 - ``random()`` in (0, 1], so
        P(G >= g) = (1 - p)^g (Vitter, CACM 1984).  p = 1 keeps every
        addition and p = 0 none, and neither draws.  p = 0 gives ``inf``,
        a countdown that never reaches 0, and so does a gap too large for
        a float, which only a p below about 1e-307 can draw."""
        p = self.p
        if p == 1.0:
            return 0
        if p == 0.0:
            return inf
        g = log(1.0 - self.rng.random()) / log1p(-p)
        return floor(g) if g < inf else inf

    def process(self, ev) -> None:
        self.skip((ev,))

    def skip(self, events) -> int:
        """Apply every event of ``events`` that changes the sample: the
        addition the countdown reaches 0 at, which draws the next gap, or a
        deletion of a sampled edge, which draws nothing.  Returns
        ``len(events)``."""
        gap = self._gap
        has_edge = self.sample.has_edge
        for ev in events:
            if ev.beta == 1:
                if gap:
                    gap -= 1
                else:
                    self._apply(ev)
                    gap = self._draw_gap()
            elif has_edge(ev.u, ev.v):
                self._apply(ev)
        self._gap = gap
        return len(events)

    def run(self, events, i: int, stop: int, order) -> None:
        """Add every kept addition of ``events[i:stop]``, a stretch of a
        stream with no deletion, jumping from one to the next by its gap
        without reading the other events; the countdown left at ``stop`` is
        ``skip``'s."""
        k = i + self._gap
        while k < stop:
            self._apply(events[k])
            k += 1 + self._draw_gap()
        self._gap = k - stop

    def _apply(self, ev) -> None:
        if ev.beta == 1:
            if self.sample.add_edge(ev.u, ev.v):
                # the new edge cannot be its own common neighbor, so
                # counting after the insert is exact
                self.tri_in_sample += triangles_of_edge(self.sample, ev.u, ev.v)
                self.edges_sampled += 1
        else:
            self.tri_in_sample -= triangles_of_edge(self.sample, ev.u, ev.v)
            self.sample.delete_edge(ev.u, ev.v)

    def estimate(self) -> float:
        if self.p == 0.0:
            return 0.0
        return self.tri_in_sample / self.p**3


class TriestEstimator:
    """Fixed-capacity edge reservoir with random pairing for deletions:
    TRIÈST-FD (De Stefani et al., KDD 2016, Alg. 3).

    Additions fill the reservoir, then, with no debts outstanding, replace
    a uniform member with probability capacity/s, s being the live edge
    count after the addition.  Deleting a reservoir edge frees a slot and
    leaves a "bad" debt that a future insertion compensates; deletions of
    unsampled edges leave "good" debts that swallow future insertions.  The
    triangle counter tau counts the triangles among the edges held, and the
    estimate rescales it by s(s-1)(s-2) / (|S|(|S|-1)(|S|-2)) for the |S|
    edges held, divided by ``kappa``; it is unbiased on fully dynamic
    streams.  tau and the sample graph are settled at the end of each call
    (module docstring), so a mutation costs a few list and dict operations.
    s is a count kept from the stream, so the state is O(capacity).
    """

    def __init__(self, capacity: int, seed: int = 0):
        self.capacity = positive_int("reservoir capacity", capacity)
        self.rng = random.Random(seed)
        self.sample = Graph()  # the graph of the reservoir's edges
        self.tau = 0  # triangles in ``sample``
        self._pending: dict[tuple[int, int], int] = {}  # edge -> net change within a call, +1 or -1
        self._edges: list[tuple[int, int]] = []  # reservoir slots
        self._slot: dict[tuple[int, int], int] = {}
        self._live = 0  # current true-graph edge count
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
        self.skip((ev,))

    def skip(self, events) -> int:
        """Apply every event of ``events``; returns ``len(events)``.  An
        addition is counted, and it is inserted while the reservoir fills.
        After that, without debts, its coin against capacity/s, s counting
        the addition, is drawn before a replacement draws its slot; with
        debts, a coin against c_bad/(c_bad + c_good) either inserts it and
        pays a bad debt or pays a good one.  A deletion drops a reservoir
        edge and leaves a bad debt, or else leaves a good one."""
        rand = self.rng.random
        cap = self.capacity
        edges, slot = self._edges, self._slot
        c_bad, c_good, live = self.c_bad, self.c_good, self._live
        for ev in events:
            if ev.beta == 1:
                live += 1
                if c_bad or c_good:
                    if rand() < c_bad / (c_bad + c_good):
                        self._insert(canonical(ev.u, ev.v))
                        c_bad -= 1
                    else:
                        c_good -= 1
                elif len(edges) < cap:
                    self._insert(canonical(ev.u, ev.v))
                elif rand() < cap / live:
                    self._replace(self._draw_slot(), canonical(ev.u, ev.v))
            else:
                live -= 1
                e = canonical(ev.u, ev.v)
                if e in slot:
                    self._remove(e)
                    c_bad += 1
                else:
                    c_good += 1
        self.c_bad, self.c_good, self._live = c_bad, c_good, live
        self._settle()
        return len(events)

    def run(self, events, i: int, stop: int, order) -> None:
        """Act on every event of ``events[i:stop]``, a stretch of a stream
        with no deletion and so with no debts, that changes the reservoir.
        The reservoir fills from ``events[i]`` on, and once it is full, the
        coins against capacity/s are drawn without reading the events.  A
        won coin draws its slot and notes the event as the slot's last
        occupant; at ``stop`` each noted slot is replaced once, by its last
        occupant, which nets the pending changes out as a replacement at
        each won coin would."""
        cap, rand = self.capacity, self.rng.random
        base = self._live - i + 1  # base + k: the live edges with event k
        fill = min(stop, i + cap - len(self._edges))  # events[i:fill] fill the reservoir
        for k in range(i, fill):
            ev = events[k]
            self._insert(canonical(ev.u, ev.v))
        last = {}  # slot -> position of its last occupant in this stretch
        top = cap / (base + fill)  # division rounds monotonically: r >= top loses every coin ahead
        for k in range(fill, stop):
            r = rand()
            if r < top and r < cap / (base + k):
                last[self._draw_slot()] = k
                top = cap / (base + k + 1)
        for j, k in last.items():
            ev = events[k]
            self._replace(j, canonical(ev.u, ev.v))
        self._live = base + stop - 1
        self._settle()

    def estimate(self) -> float:
        """tau * s(s-1)(s-2) / (|S|(|S|-1)(|S|-2)) / kappa, and 0 while the
        reservoir holds fewer than 3 edges.  Without debts kappa is 1 and
        |S| is min(capacity, s), so on an addition-only stream this is the
        classic reservoir's estimate."""
        m = len(self._edges)
        if m < 3:
            return 0.0
        s = self._live
        return self.tau * (s * (s - 1) * (s - 2) / (m * (m - 1) * (m - 2))) / self.kappa()

    def kappa(self) -> float:
        """TRIÈST-FD's kappa = 1 - sum over j = 0..2 of C(s, j) C(d, w - j)
        / C(s + d, w), with d = c_bad + c_good debts and w = min(capacity,
        s + d): the chance that w slots drawn from s live edges and d debts
        hold at least 3 live edges.  It is exactly 1 without debts (once
        w >= 3) and 0 below 3 live edges.  Otherwise the binomials go
        through ``lgamma``; a kappa under 1/2 is summed over j >= 3
        instead, so that it keeps its digits."""
        s = self._live
        d = self.c_bad + self.c_good
        w = min(self.capacity, s + d)
        fewest, most = max(0, w - d), min(s, w)  # live edges the w slots can hold
        if most < 3:
            return 0.0
        if fewest >= 3:
            return 1.0
        total = _log_comb(s + d, w)

        def p(j):
            return exp(_log_comb(s, j) + _log_comb(d, w - j) - total)

        below = sum(map(p, range(fewest, 3)))
        if below <= 0.5:
            return 1.0 - below
        return sum(map(p, range(3, most + 1)))

    # ------------------------------------------------------------------
    # reservoir plumbing; the sample graph and tau are settled per call

    def _mark(self, e: tuple[int, int], change: int) -> None:
        # an edge pending one way can only change back, which nets to 0
        net = self._pending.pop(e, 0) + change
        if net:
            self._pending[e] = net

    def _insert(self, e: tuple[int, int]) -> None:
        self._slot[e] = len(self._edges)
        self._edges.append(e)
        self._mark(e, 1)

    def _remove(self, e: tuple[int, int]) -> None:
        self._mark(e, -1)
        idx = self._slot.pop(e)
        last = self._edges.pop()
        if last != e:
            self._edges[idx] = last
            self._slot[last] = idx

    def _draw_slot(self) -> int:
        # the slot ``rng.randrange(capacity)`` gives, from the same draws
        cap, bits = self.capacity, self.rng.getrandbits
        k = cap.bit_length()
        j = bits(k)
        while j >= cap:
            j = bits(k)
        return j

    def _replace(self, idx: int, e: tuple[int, int]) -> None:
        old = self._edges[idx]
        self._mark(old, -1)
        del self._slot[old]
        self._edges[idx] = e
        self._slot[e] = idx
        self._mark(e, 1)

    def _settle(self) -> None:
        """Apply the pending changes: first the removals, each counted out
        of tau before its delete, then the insertions, each counted in
        after its insert.  tau then counts the triangles among the edges
        held, whatever the order of the mutations behind it."""
        pending = self._pending
        if not pending:
            return
        sample, tau = self.sample, self.tau
        for e, change in pending.items():
            if change < 0:
                tau -= triangles_of_edge(sample, *e)
                sample.delete_edge(*e)
        for e, change in pending.items():
            if change > 0:
                sample.add_edge(*e)
                tau += triangles_of_edge(sample, *e)
        self.tau = tau
        pending.clear()


def _log_comb(n: int, k: int) -> float:
    """ln C(n, k) for 0 <= k <= n."""
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
