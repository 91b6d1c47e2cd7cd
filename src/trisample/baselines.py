"""Comparison estimators: probabilistic sparsification and a fixed-size
edge reservoir with random pairing for deletions.

Both maintain their own sampled subgraph and never query the main graph
store; they see only the event stream, and of ``step``'s graph only its
type: an ``ArrivalOrder``'s stream holds no deletion, so there they draw
coins ahead without reading events.  They speak the replay protocol of the
sampling estimator: ``skip(events, start, stop)`` draws the coins of
upcoming events and does the bookkeeping of those that leave the sample
unchanged, and returns the position of the first event that changes it;
``step(events, i, stop, g)`` applies ``events[i]`` without redrawing its
coin and then skips from ``i + 1``.  ``process`` is ``skip`` then ``step``
for one event.  A store replay thus calls a baseline once per event that
touches its sample, with the same random draws as ``process`` on every
event.  Over an ``ArrivalOrder`` one ``step`` call applies every event up
to ``stop`` that touches the sample and returns ``stop``, with the same
draws.

Both assume a consistent stream: no addition of a present edge and no
deletion of an absent one.  The replay driver rejects any other, so the
reservoir keeps only a count of live edges, not the edges themselves.

The reservoir's triangle counter and sample graph are settled on read:
a reservoir mutation only records the edge's net change since the last
read, and reading ``estimate()``, ``tau`` or ``sample`` first applies those
changes to the sample graph and to tau.
"""

from __future__ import annotations

import random
from math import exp, lgamma

from .esd import first_won
from .graph import ArrivalOrder, Graph
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
        sampled edge it deletes, then skip from ``i + 1``.  The sparsifier
        sees only the stream: on an ``ArrivalOrder`` ``g``, whose stream holds
        no deletion, it adds every won addition up to ``stop``, drawing
        ``skip``'s coins without reading the other events, and returns
        ``stop``; any other ``g`` is unused."""
        if type(g) is ArrivalOrder:
            rand, p = self.rng.random, self.p
            while i < stop:
                self._apply(events[i])
                i = first_won(rand, p, i + 1, stop)
            return stop
        self._apply(events[i])
        return self.skip(events, i + 1, stop)

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
    streams.  tau and the sample graph are settled on read (module
    docstring), so a mutation costs a few list and dict operations.  s is a
    count kept from the stream, and the pending changes hold at most the
    edges held and the edges settled, so the state is O(capacity).
    """

    def __init__(self, capacity: int, seed: int = 0):
        # 3.0 runs as 3 slots; 2.7, 0, nan and inf are refused
        if not (capacity >= 1 and float(capacity).is_integer()):
            raise ValueError(f"reservoir capacity must be an integer >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.rng = random.Random(seed)
        self._sample = Graph()  # the reservoir as of the last settle
        self._tau = 0  # triangles in ``_sample``
        self._pending: dict[tuple[int, int], int] = {}  # edge -> net change since then, +1 or -1
        self._edges: list[tuple[int, int]] = []  # reservoir slots
        self._slot: dict[tuple[int, int], int] = {}
        self._live = 0  # current true-graph edge count
        self.c_bad = 0  # uncompensated deletions of reservoir edges
        self.c_good = 0  # uncompensated deletions of unsampled edges

    @property
    def edges_sampled(self) -> int:
        return len(self._edges)

    @property
    def sample(self) -> Graph:
        """The graph of the reservoir's edges."""
        self._settle()
        return self._sample

    @property
    def tau(self) -> int:
        """The number of triangles among the reservoir's edges."""
        self._settle()
        return self._tau

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
        coin is won: capacity/s without debts, s counting the addition,
        and c_bad/(c_bad + c_good) with them.  A lost coin with debts pays
        a good one.  A deletion stops on a reservoir edge and otherwise
        leaves a good debt."""
        rand = self.rng.random
        cap = self.capacity
        slot = self._slot
        filling = len(self._edges) < cap
        c_bad, c_good, live = self.c_bad, self.c_good, self._live
        k = stop
        for i in range(start, stop):
            ev = events[i]
            if ev.beta == 1:
                if c_good == 0 and c_bad == 0:
                    if filling or rand() < cap / (live + 1):
                        k = i
                        break
                elif rand() < c_bad / (c_bad + c_good):
                    k = i
                    break
                else:
                    c_good -= 1
                live += 1
            else:
                u, v = ev.u, ev.v
                if ((u, v) if u < v else (v, u)) in slot:
                    k = i
                    break
                c_good += 1
                live -= 1
        self.c_good, self._live = c_good, live
        return k

    def step(self, events, i: int, stop: int, g) -> int:
        """Apply ``events[i]``, where ``skip`` stopped: insert or replace for
        an addition, drop the reservoir edge for a deletion; then skip from
        ``i + 1``.  Its coin is already drawn; a replacement draws its slot.

        On an ``ArrivalOrder`` ``g``, whose stream holds no deletion and so
        leaves no debts, it acts on every event it must act on up to
        ``stop`` and returns ``stop``: the reservoir fills from ``events[i]``
        on, and once it is full, the coins against capacity/s are drawn
        without reading the events.  A won coin draws its slot and notes the
        event as the slot's last occupant; at ``stop`` each noted slot is
        replaced once, by its last occupant, which nets the pending changes
        out as a replacement at each won coin would.  Any other ``g`` is
        unused."""
        if type(g) is ArrivalOrder:
            return self._run_to_stop(events, i, stop)
        ev = events[i]
        e = (ev.u, ev.v) if ev.u < ev.v else (ev.v, ev.u)
        if ev.beta == 1:
            self._live += 1
            if self.c_bad + self.c_good:
                self._insert(e)
                self.c_bad -= 1
            elif len(self._edges) < self.capacity:
                self._insert(e)
            else:
                self._replace(self._draw_slot(), e)
        else:
            self._live -= 1
            self._remove(e)
            self.c_bad += 1
        return self.skip(events, i + 1, stop)

    def _run_to_stop(self, events, i: int, stop: int) -> int:
        """``step`` over an ``ArrivalOrder``: ``events[i:stop]`` are all
        additions and ``events[i]`` is acted on."""
        cap, rand = self.capacity, self.rng.random
        base = self._live - i + 1  # base + k: the live edges with event k
        fill = min(stop, i + cap - len(self._edges))  # events[i:fill] fill the reservoir
        for k in range(i, fill):
            ev = events[k]
            self._insert((ev.u, ev.v) if ev.u < ev.v else (ev.v, ev.u))
        last = {}  # slot -> position of its last occupant in this stretch
        if fill == i:  # the reservoir was full, so events[i]'s coin was won
            last[self._draw_slot()] = i
            fill += 1
        top = cap / (base + fill)  # division rounds monotonically: r >= top loses every coin ahead
        for k in range(fill, stop):
            r = rand()
            if r < top and r < cap / (base + k):
                last[self._draw_slot()] = k
                top = cap / (base + k + 1)
        for j, k in last.items():
            ev = events[k]
            self._replace(j, (ev.u, ev.v) if ev.u < ev.v else (ev.v, ev.u))
        self._live = base + stop - 1
        return stop

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
    # reservoir plumbing; the sample graph and tau are settled on read

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
        sample, tau = self._sample, self._tau
        for e, change in pending.items():
            if change < 0:
                tau -= triangles_of_edge(sample, *e)
                sample.delete_edge(*e)
        for e, change in pending.items():
            if change > 0:
                sample.add_edge(*e)
                tau += triangles_of_edge(sample, *e)
        self._tau = tau
        pending.clear()


def _log_comb(n: int, k: int) -> float:
    """ln C(n, k) for 0 <= k <= n."""
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
