"""Per-event edge-sampling estimator of the global triangle count.

Each stream event is inspected with probability ``alpha``.  For a sampled
edge (u, v), each endpoint's other neighbors Γ(u)∖{v} are probed for a
node closing a triangle, and the estimate moves by β·ω·d/α, the inverse of
the probability of the observed (edge, node) tuple, weighted because the
same triangle is observable from both endpoints.  The state is one
integer, S = Σ β·d over closing probes, scaled to ω·S/α when read, so a
long stream accumulates no float drift.  Γ(u)∖{v} is the same set before
and after the store applies the event, so the estimator may run either
side of the mutation.  Sampled edges are discarded immediately: the
estimator holds no subgraph and reads only the neighbor lists Γ(u) and
Γ(v) of a sampled edge, which the store's update is handed, at O(log d):
one presence test for the edge and one probe per endpoint.

Randomness comes from an ``rng`` with ``random()`` for the coins and
``getrandbits(k)`` for the probes, both bound when the estimator is
built, so the protocol methods look neither up per call.  A probe over d
candidates draws one uniform index, the value ``rng.randrange(d)`` gives,
with the same draws: k = d.bit_length() bits, redrawn while the value is
>= d.

The estimator speaks the replay protocol that the baselines share:
``skip(events)``, ``step(events, i, nu, nv)`` and ``run(events, i, stop,
order)``, whose schedule the ``harness`` module states.  On a store or
an arrival index, the draws are those of ``process_event`` on every
event, in the same order.  Like the baselines, it assumes a consistent
stream (no duplicate addition, no absent deletion); the driver rejects
any other.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from .stream import rate

OMEGA_DYNAMIC = 0.5  # a new triangle is observable via 2 tuples of its closing edge
OMEGA_STATIC = 1.0 / 6.0  # full-edge streams expose all 3 edges, 2 tuples each


def first_won(rand, p: float, start: int, stop: int) -> int:
    """The first position in ``range(start, stop)`` whose coin ``rand() <
    p`` is won, drawing one coin per position up to it, or ``stop``: every
    coin of ESD's protocol methods.  No event is read."""
    for k in range(start, stop):
        if rand() < p:
            return k
    return stop


class EsdEstimator:
    """Running triangle estimate over a fully dynamic edge stream.

    ``alpha`` is fixed at construction (the inverse-probability scale
    factors assume it never changes), and so is ``rng``: its ``random`` and
    ``getrandbits`` are bound there, and every method draws through them.
    ``mode`` is "dynamic" for add/delete streams or "static" for a
    one-pass random-order stream over a fixed graph's edges; it picks the
    weight ``omega``, applied on read.  The state is one int, ``s`` = Σ β·d
    over closing probes, and ``estimate()`` is ``omega * s / alpha``.  Each
    event consumes one ``rng.random()`` coin, drawn by ``skip``, ``run`` or
    the ``step`` of the sampled event before it, and each neighbor probe of
    a sampled event draws one uniform index, the value ``rng.randrange``
    gives, from ``rng.getrandbits``, so runs replay deterministically from
    the seed either way.  ``rng`` defaults to ``random.Random(seed)``; one
    passed in needs ``random`` and ``getrandbits``, or the constructor
    raises ``TypeError``.
    """

    def __init__(self, alpha: float, mode: str = "dynamic", seed: int = 0, rng=None):
        self._alpha = rate("alpha", alpha)
        if mode not in ("dynamic", "static"):
            raise ValueError(f"mode must be 'dynamic' or 'static', got {mode!r}")
        self.mode = mode
        self.omega = OMEGA_DYNAMIC if mode == "dynamic" else OMEGA_STATIC
        self.s = 0
        if rng is None:
            rng = random.Random(seed)
        for method in ("random", "getrandbits"):
            if not callable(getattr(rng, method, None)):
                raise TypeError(f"rng must provide {method}(), which {type(rng).__name__} lacks")
        self._rng = rng
        self._rand, self._bits = rng.random, rng.getrandbits
        self.edges_sampled = 0

    @property
    def alpha(self) -> float:
        """Sampling fraction; read-only because mid-stream changes would
        corrupt the inverse-probability weighting."""
        return self._alpha

    @property
    def rng(self):
        """The random source; read-only because its methods are bound at
        construction."""
        return self._rng

    def estimate(self) -> float:
        """Current estimate, ω·S/α.  May dip below zero transiently after
        deletion updates; clamping would bias it."""
        return self.omega * self.s / self._alpha

    # a read-only alias of estimate(), which the traced benchmark driver reads
    t_est = property(estimate)

    def process_event(self, ev, g) -> None:
        """Consume one stream event; the store ``g`` may hold the graph
        before or after it, and ``step`` gets its endpoints' lists.  In
        static mode ``g`` is the whole graph and the event must add one of
        its edges, or ``ValueError`` is raised."""
        if self.mode == "static" and (ev.beta != 1 or not g.has_edge(ev.u, ev.v)):
            raise ValueError(f"static mode takes additions of edges in the graph, got {ev}")
        events = (ev,)
        if self.skip(events) == 0:
            self.step(events, 0, g.adjacency(ev.u), g.adjacency(ev.v))

    def skip(self, events) -> int:
        """Draw the coins of ``events``, stopping at the first one won, and
        return its position (``len(events)`` when none was won).  A lost
        coin needs no bookkeeping, so the events are not read.  The won
        event's coin has been drawn, so ``step`` draws none for it."""
        return first_won(self._rand, self._alpha, 0, len(events))

    def step(self, events, i: int, nu, nv) -> int:
        """The update for ``events[i]``, whose coin was won, then the coins
        of the events after it as ``skip`` draws them; returns the position
        of the next won coin (``len(events)`` when none was).  ``nu`` and
        ``nv`` are the sorted neighbor lists Γ(u) and Γ(v) of the event's
        edge (u, v), as a store holds them before or after ``events[i]``,
        and the update reads nothing else.

        Each endpoint a, with b the other one, probes Γ(a)∖{b}, which does
        not depend on whether the lists hold the edge (u, v); u probes
        first.  The probe draws one uniform index j < d = |Γ(a)∖{b}|, as
        ``rng.randrange(d)`` would, and picks the j-th node w in id order.
        w closes a triangle when it is in Γ(b), that is when (w, b) is an
        edge, and then ``s`` gains beta·d: the estimate moves by beta·ω over
        the probability of the observed tuple, alpha/d.  One bisect of Γ(u)
        tells whether the edge is present, and if it is, j skips b's slot
        in Γ(a).
        """
        bits = self._bits
        ev = events[i]
        self.edges_sampled += 1
        u, v = ev.u, ev.v
        lu, lv = len(nu), len(nv)
        s = bisect_left(nu, v)
        present = s < lu and nu[s] == v
        # the two probes are written out: a loop over the endpoint pairs
        # made the 64-ESD store replay about 7% slower
        d = lu - present
        if d > 0:
            k = d.bit_length()
            j = bits(k)
            while j >= d:
                j = bits(k)
            w = nu[j]
            if present and w >= v:
                w = nu[j + 1]
            p = bisect_left(nv, w)
            if p < lv and nv[p] == w:
                self.s += ev.beta * d
        d = lv - present
        if d > 0:
            k = d.bit_length()
            j = bits(k)
            while j >= d:
                j = bits(k)
            w = nv[j]
            if present and w >= u:
                w = nv[j + 1]
            p = bisect_left(nu, w)
            if p < lu and nu[p] == w:
                self.s += ev.beta * d
        return first_won(self._rand, self._alpha, i + 1, len(events))

    def run(self, events, i: int, stop: int, order) -> None:
        """``skip`` and ``step`` over ``events[i:stop]`` on ``order``, an
        ``ArrivalOrder`` holding the graph as of every event: the same draws
        and updates.  Γ(a)∖{b} is a's final neighbors that arrived before
        the won event (b's own edge arrives with it).  One mask over the
        arrivals of a's row gives their slots, d is how many there are and
        w is the rank in the j-th.  w is in Γ(b) when one bisect of b's row
        finds it with an earlier arrival.  The rows are found, and w and
        the closure read, through ``views``, as Python ints."""
        rand, alpha, bits = self._rand, self._alpha, self._bits
        arrival = order.arrival
        nodes, start, nbrs, arrived = order.views
        i = first_won(rand, alpha, i, stop)
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
                        self.s += ev.beta * d
            i = first_won(rand, alpha, i + 1, stop)
