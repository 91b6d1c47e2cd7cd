"""Per-event edge-sampling estimator of the global triangle count.

Each stream event is inspected with probability ``alpha``.  For a sampled
edge (u, v), each endpoint's other neighbors Γ(u)∖{v} are probed for a
node closing a triangle, and the running estimate moves by the inverse of
the probability of the observed (edge, node) tuple, weighted because the
same triangle is observable from both endpoints.  Γ(u)∖{v} is the same set
before and after the store applies the event, so the estimator may run
either side of the mutation.  Sampled edges are discarded immediately: the
estimator holds no subgraph and reads only the neighbor lists Γ(u) and
Γ(v) of a sampled edge, at O(log d) on a ``Graph``: one presence test for
the edge and one probe per endpoint.

Randomness comes from an ``rng`` with ``random()`` for the coins and
``getrandbits(k)`` for the probes.  A probe over d candidates draws one
uniform index, the value ``rng.randrange(d)`` gives, with the same draws:
k = d.bit_length() bits, redrawn while the value is >= d.

The estimator speaks the replay protocol that the baselines share:
``skip`` draws the coins of upcoming events until one is won, and ``step``
is the sampled update for that event followed by the coins up to the next
won one.  A store replay calls it once per sampled event, with the same
random draws, in the same order, as ``process_event`` on every event.  Over
an ``ArrivalOrder`` no store changes between events, so one ``step`` call
makes every sampled update up to the driver's next stop, with the same
draws.
Like the baselines, it assumes a consistent stream (no duplicate
addition, no absent deletion); the driver rejects any other.

``step`` reads either a mutable ``Graph`` or an ``ArrivalOrder``, the final
graph of a deletion-free stream indexed by arrival, with the same draws.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from .graph import ArrivalOrder
from .stream import EdgeEvent

OMEGA_DYNAMIC = 0.5  # a new triangle is observable via 2 tuples of its closing edge
OMEGA_STATIC = 1.0 / 6.0  # full-edge streams expose all 3 edges, 2 tuples each


def first_won(rand, p: float, start: int, stop: int) -> int:
    """The first position in ``range(start, stop)`` whose coin ``rand() <
    p`` is won, drawing one coin per position up to it, or ``stop``: ESD's
    skip, and Doulion's where no event is a deletion.  No event is read."""
    for k in range(start, stop):
        if rand() < p:
            return k
    return stop


class EsdEstimator:
    """Running triangle estimate over a fully dynamic edge stream.

    ``alpha`` is fixed at construction (the inverse-probability scale
    factors assume it never changes).  ``mode`` is "dynamic" for add/delete
    streams or "static" for a one-pass random-order stream over a fixed
    graph's edges.  Each event consumes one ``rng.random()`` coin, drawn by
    ``skip`` or by the ``step`` of the sampled event before it, and each
    neighbor probe of a sampled event draws one uniform index, the value
    ``rng.randrange`` gives, from ``rng.getrandbits``, so runs replay
    deterministically from the seed either way.  ``rng`` defaults to
    ``random.Random(seed)``; one passed in needs ``random`` and
    ``getrandbits``, or the constructor raises ``TypeError``.
    """

    def __init__(self, alpha: float, mode: str = "dynamic", seed: int = 0, rng=None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if mode not in ("dynamic", "static"):
            raise ValueError(f"mode must be 'dynamic' or 'static', got {mode!r}")
        self._alpha = alpha
        self.mode = mode
        self.omega = OMEGA_DYNAMIC if mode == "dynamic" else OMEGA_STATIC
        self.t_est = 0.0
        if rng is None:
            rng = random.Random(seed)
        for method in ("random", "getrandbits"):
            if not callable(getattr(rng, method, None)):
                raise TypeError(f"rng must provide {method}(), which {type(rng).__name__} lacks")
        self.rng = rng
        self.edges_sampled = 0

    @property
    def alpha(self) -> float:
        """Sampling fraction; read-only because mid-stream changes would
        corrupt the inverse-probability weighting."""
        return self._alpha

    def estimate(self) -> float:
        """Current running estimate.  May dip below zero transiently after
        deletion updates; clamping would bias it."""
        return self.t_est

    def process_event(self, ev, g) -> None:
        """Consume one stream event; ``g`` may hold the graph before or
        after it."""
        if self.mode != "dynamic":
            raise ValueError("process_event requires dynamic mode")
        events = (ev,)
        if self.skip(events, 0, 1) == 0:
            self.step(events, 0, 1, g)

    def skip(self, events, start: int, stop: int) -> int:
        """Draw the coins of ``events[start:stop]``, stopping at the first
        one won, and return its position (``stop`` when none was won).  A
        lost coin needs no bookkeeping, so the events are not read.  The
        won event's coin has been drawn, so ``step`` draws none for it."""
        return first_won(self.rng.random, self._alpha, start, stop)

    def step(self, events, i: int, stop: int, g) -> int:
        """The update for ``events[i]``, whose coin was won, then the coins
        of ``events[i+1:stop]`` as ``skip`` draws them; returns the position
        of the next won coin (``stop`` when none was).  ``g`` may hold the
        graph before or after ``events[i]``.  On an ``ArrivalOrder``, which
        holds the graph as of every event, it makes the update of each won
        coin up to ``stop`` as it comes, and returns ``stop``.

        Each endpoint a of the edge (u, v), with b the other one, probes
        Γ(a)∖{b}, which does not depend on whether ``g`` holds (u, v); u
        probes first.  The probe draws one uniform index j < d = |Γ(a)∖{b}|,
        as ``rng.randrange(d)`` would, and picks the j-th node w in id order.
        w closes a triangle when it is in Γ(b), that is when (w, b) is an
        edge, and then the estimate moves by ``beta`` times the inverse
        probability of the observed tuple, alpha/d.  So the update reads
        Γ(u) and Γ(v) and no other list.  On a ``Graph`` one bisect of Γ(u)
        tells whether the edge is present, and if it is, j skips b's slot in
        Γ(a).  On an ``ArrivalOrder``, Γ(a)∖{b} is a's final neighbors that
        arrived before ``i`` (b's own edge arrives at ``i``): one mask over
        the arrivals of a's row gives their slots, d is how many there are
        and w is the rank in the j-th.  w is in Γ(b) when one bisect of b's
        row finds it with an arrival before ``i``.  The rows are found, and
        w and the closure read, through the order's ``views``, as Python
        ints.
        """
        bits = self.rng.getrandbits
        if type(g) is ArrivalOrder:
            rand, alpha = self.rng.random, self._alpha
            arrival = g.arrival
            nodes, start, nbrs, arrived = g.views
            while i < stop:
                ev = events[i]
                self.edges_sampled += 1
                r = bisect_left(nodes, ev.u)
                u0, u1 = start[r], start[r + 1]
                r = bisect_left(nodes, ev.v)
                v0, v1 = start[r], start[r + 1]
                for s, e, sb, eb in ((u0, u1, v0, v1), (v0, v1, u0, u1)):
                    earlier = (arrival[s:e] < i).nonzero()[0]
                    d = len(earlier)
                    if d > 0:
                        k = d.bit_length()
                        j = bits(k)
                        while j >= d:
                            j = bits(k)
                        w = nbrs[s + earlier.item(j)]
                        p = bisect_left(nbrs, w, sb, eb)
                        if p < eb and nbrs[p] == w and arrived[p] < i:
                            self.t_est += ev.beta * self.omega * d / alpha
                i = first_won(rand, alpha, i + 1, stop)
            return stop
        ev = events[i]
        self.edges_sampled += 1
        u, v = ev.u, ev.v
        nu, nv = g.adjacency(u), g.adjacency(v)
        s = bisect_left(nu, v)
        present = s < len(nu) and nu[s] == v
        for na, nb, b in ((nu, nv, v), (nv, nu, u)):
            d = len(na) - present
            if d > 0:
                k = d.bit_length()
                j = bits(k)
                while j >= d:
                    j = bits(k)
                w = na[j]
                if present and w >= b:
                    w = na[j + 1]
                p = bisect_left(nb, w)
                if p < len(nb) and nb[p] == w:
                    self.t_est += ev.beta * self.omega * d / self._alpha
        return first_won(self.rng.random, self._alpha, i + 1, stop)  # ``skip``, one call fewer

    def process_static(self, edge, g) -> None:
        """Static variant: ``g`` is the whole graph and the stream delivers
        each of its edges exactly once, in random order.  Sampled edges are
        probed like additions, with the static weight."""
        if self.mode != "static":
            raise ValueError("process_static requires static mode")
        u, v = edge
        if not g.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) is not in the graph")
        if self.skip((edge,), 0, 1) == 0:
            self.step((EdgeEvent(u, v, 1),), 0, 1, g)
