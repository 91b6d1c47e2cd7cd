"""Per-event edge-sampling estimator of the global triangle count.

Each stream event is inspected with probability ``alpha``.  For a sampled
edge (u, v), each endpoint's other neighbors Γ(u)∖{v} are probed for a
node closing a triangle, and the running estimate moves by the inverse of
the probability of the observed (edge, node) tuple, weighted because the
same triangle is observable from both endpoints.  Γ(u)∖{v} is the same set
before and after the store applies the event, so the estimator may run
either side of the mutation.  Sampled edges are discarded immediately: the
estimator holds no subgraph, needs O(d) transient space for the
neighborhood it inspects, and costs O(log d) per sampled edge.

Randomness comes from an ``rng`` with ``random()`` for the coins and
``getrandbits(k)`` for the probes.  A probe over d candidates draws one
uniform index, the value ``rng.randrange(d)`` gives, with the same draws:
k = d.bit_length() bits, redrawn while the value is >= d.

The estimator speaks the replay protocol that the baselines share:
``skip`` draws the coins of upcoming events until one is won, and ``act``
is the sampled update for that event.  A replay driver calls it only on
the events it samples, with the same random draws, in the same order, as
``process_event`` on every event.  Like the baselines, it assumes a
consistent stream (no duplicate addition, no absent deletion); the driver
rejects any other.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from .stream import EdgeEvent

OMEGA_DYNAMIC = 0.5  # a new triangle is observable via 2 tuples of its closing edge
OMEGA_STATIC = 1.0 / 6.0  # full-edge streams expose all 3 edges, 2 tuples each


class EsdEstimator:
    """Running triangle estimate over a fully dynamic edge stream.

    ``alpha`` is fixed at construction (the inverse-probability scale
    factors assume it never changes).  ``mode`` is "dynamic" for add/delete
    streams or "static" for a one-pass random-order stream over a fixed
    graph's edges.  Each event consumes one ``rng.random()`` coin, drawn by
    ``process_event`` or ahead of time by ``skip``, and each neighbor
    probe of a sampled event draws one uniform index, the value
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
        if self.skip((ev,), 0, 1) == 0:
            self.act(ev, g)

    def skip(self, events, start: int, stop: int) -> int:
        """Draw the coins of ``events[start:stop]``, stopping at the first
        one won, and return its position (``stop`` when none was won).  A
        lost coin needs no bookkeeping, so the events are not read.  The
        won event's coin has been drawn, so ``act`` draws none."""
        rand = self.rng.random
        alpha = self._alpha
        for k in range(start, stop):
            if rand() < alpha:
                return k
        return stop

    def act(self, ev, g) -> None:
        """The update for an event whose coin was won: probe both endpoints.
        Draws no coin; ``g`` may hold the graph before or after ``ev``."""
        self.edges_sampled += 1
        self.update_count(ev.u, ev.v, ev.beta, g)
        self.update_count(ev.v, ev.u, ev.beta, g)

    def update_count(self, u: int, v: int, beta: int, g) -> None:
        """Probe Γ(u)∖{v} for a node closing a triangle with (u, v) and move
        the estimate by ``beta`` times the inverse probability of the
        observed tuple, alpha/d with d = |Γ(u)∖{v}|.

        The set does not depend on whether ``g`` holds (u, v), so neither
        does the probe: v's slot, if present, is skipped.  Each probe draws
        one uniform index, the value ``rng.randrange(d)`` gives, from
        ``rng.getrandbits`` with the same draws, so a replay is
        deterministic from the seed.  The picked node w closes a triangle
        when (w, v) is an edge, found by bisecting the shorter of Γ(w) and
        Γ(v), as ``Graph.has_edge`` does.
        """
        adjacency = g.adjacency
        nbrs = adjacency(u)
        n = len(nbrs)
        i = bisect_left(nbrs, v)
        gap = 1 if i < n and nbrs[i] == v else 0  # v's own slot, skipped
        d = n - gap
        if d > 0:
            bits = self.rng.getrandbits
            k = d.bit_length()
            j = bits(k)
            while j >= d:
                j = bits(k)
            w = nbrs[j] if j < i else nbrs[j + gap]
            a = adjacency(w)
            b = adjacency(v)
            nb, target = (a, v) if len(a) <= len(b) else (b, w)
            p = bisect_left(nb, target)
            if p < len(nb) and nb[p] == target:
                self.t_est += beta * self.omega * d / self._alpha

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
            self.act(EdgeEvent(u, v, 1), g)
