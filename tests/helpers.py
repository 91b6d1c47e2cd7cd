"""Shared test utilities: independent oracles, a scripted RNG, a walker
over every draw path, and every strategy more than one test module draws."""

import math
import random
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from trisample import EdgeEvent, EstimatorSpec, Graph, derive_seed
from trisample.generators import _degree_weights


def brute_force_triangles(g: Graph) -> int:
    """Triple-enumeration triangle count, independent of the intersection
    oracle.  Counts each u < v < w triple whose three edges all exist."""
    nodes = sorted(g.nodes())
    count = 0
    for i, u in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            v = nodes[j]
            if not g.has_edge(u, v):
                continue
            for k in range(j + 1, len(nodes)):
                w = nodes[k]
                if g.has_edge(u, w) and g.has_edge(v, w):
                    count += 1
    return count


def brute_force_common_neighbors(g: Graph, u: int, v: int) -> int:
    return len(set(g.adjacency(u)) & set(g.adjacency(v)))


def complete_graph_edges(n: int) -> list:
    return list(combinations(range(n), 2))


def graph_with_isolated(nodes, edges) -> Graph:
    """A store whose rows start as one empty row per node of ``nodes``,
    handed over through ``Graph._of_rows`` as the generators hand theirs,
    and then gain ``edges`` one ``add_edge`` each: a node no edge touches
    stays as an isolated node."""
    g = Graph._of_rows({u: [] for u in nodes})
    for u, v in edges:
        g.add_edge(u, v)
    return g


def sorted_edges(g: Graph) -> list:
    """The edges of ``g``, sorted: equal for two graphs exactly when they
    hold the same edges, since ``edges()`` never lists a node of degree 0."""
    return sorted(g.edges())


def assert_graph_invariants(g: Graph) -> None:
    """Full-scan check: sortedness, no self-loops/duplicates, symmetry, and
    edge_count = half the degree sum."""
    total = 0
    for u in g.nodes():
        nbrs = list(g.adjacency(u))
        assert nbrs == sorted(set(nbrs)), f"neighbor list of {u} not strictly sorted"
        assert u not in nbrs, f"self-loop on {u}"
        for v in nbrs:
            assert g.has_edge(v, u), f"asymmetric edge ({u}, {v})"
        total += len(nbrs)
    assert total == 2 * g.edge_count


def toggled(pairs) -> list:
    """The events that toggle each pair in turn: a pair's first event adds
    it, the next deletes it and the one after re-adds it."""
    present, events = set(), []
    for u, v in pairs:
        e = (min(u, v), max(u, v))
        events.append(EdgeEvent(u, v, -1 if e in present else 1))
        present ^= {e}
    return events


def replay(events, g=None):
    """Apply a stream to a graph, asserting consistency (no duplicate adds,
    no absent deletes).  Returns the graph."""
    if g is None:
        g = Graph()
    for ev in events:
        if ev.beta == 1:
            assert g.add_edge(ev.u, ev.v), f"duplicate addition ({ev.u}, {ev.v})"
        else:
            assert g.delete_edge(ev.u, ev.v), f"absent deletion ({ev.u}, {ev.v})"
    return g


def state(est):
    """Everything an estimator carries from one event to the next."""
    s = {
        "estimate": est.estimate(),
        "edges_sampled": est.edges_sampled,
        "rng": est.rng.getstate(),
    }
    for name in ("tau", "c_bad", "c_good", "live_edges", "_edges", "tri_in_sample", "_gap"):
        if hasattr(est, name):
            s[name] = getattr(est, name)
    if hasattr(est, "sample"):
        s["sample"] = sorted(est.sample.edges())
    return s


class StateAtStops:
    """An estimator that records its full ``state`` whenever its estimate is
    read, which the stop loop ``_drive`` does at each stop alone, on either
    view.  It has a ``step`` only where the estimator has one, as ESD alone
    does."""

    def __init__(self, est):
        self.est, self.states = est, []
        self.skip, self.run = est.skip, est.run
        if hasattr(est, "step"):
            self.step = est.step

    def estimate(self):
        self.states.append(state(self.est))
        return self.est.estimate()


@st.composite
def consistent_streams(draw):
    """Toggle random pairs on a few nodes (``toggled``)."""
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda p: p[0] != p[1]),
            max_size=80,
        )
    )
    return toggled(pairs)


@st.composite
def simple_graphs(draw):
    """Distinct pairs on up to 9 nodes, each in a random orientation."""
    pairs = draw(
        st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda p: p[0] < p[1]), max_size=36)
    )
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [(v, u) if flip else (u, v) for (u, v), flip in zip(sorted(pairs), flips)]


estimator_specs = st.lists(
    st.one_of(
        st.builds(EstimatorSpec, st.just("esd"), st.sampled_from([1e-9, 0.2, 0.5, 0.6, 1.0])),
        st.builds(EstimatorSpec, st.just("doulion"), st.sampled_from([0.0, 0.3, 0.4, 0.7, 1.0])),
        st.builds(EstimatorSpec, st.just("triest"), st.integers(1, 12)),
    ),
    min_size=1,
    max_size=4,
)


class ScriptedRng:
    """Deterministic stand-in for random.Random fed from fixed sequences."""

    def __init__(self, randoms=(), randranges=()):
        self._randoms = list(randoms)
        self._randranges = list(randranges)

    def random(self) -> float:
        return self._randoms.pop(0)

    def getrandbits(self, k: int) -> int:
        """The next scripted index, served as the k-bit draw that
        ``randrange`` would have accepted for it."""
        v = self._randranges.pop(0)
        assert 0 <= v < 2**k, f"scripted value {v} does not fit in {k} bits"
        return v


class _Coin(float):
    """A ``random()`` draw known only to lie in [lo, hi).  ``coin < x`` with
    x inside the interval forks the walk: the branch below x has weight
    (x - lo) / (hi - lo) and narrows the interval to [lo, x), the other has
    the rest and narrows it to [x, hi).  So one coin compared twice forks
    only where the second comparison is still open."""

    def __new__(cls, walker):
        coin = super().__new__(cls, 0.5)
        coin.walker, coin.lo, coin.hi = walker, 0.0, 1.0
        return coin

    def __lt__(self, x):
        lo, hi = self.lo, self.hi
        if not lo < x < hi:
            return x >= hi
        if self.walker.fork([(x - lo) / (hi - lo), (hi - x) / (hi - lo)]) == 0:
            self.hi = x
            return True
        self.lo = x
        return False

    def _unsupported(self, x):
        raise AssertionError("a walked coin is only ever compared as coin < x")

    __le__ = __gt__ = __ge__ = _unsupported


class DrawWalker:
    """An ``rng`` that walks every draw path of a run depth first.

    ``walk(run)`` calls ``run(self)`` once per path and returns the
    ``(weight, result)`` of each; the weights must sum to 1, and ``walk``
    checks that they do.  ``random()`` returns a ``_Coin``, and
    ``getrandbits`` serves a uniform pick over ``range(capacity)``, as
    TRIÈST's slot draw accepts it.  ``run`` must draw the same way whenever
    the same branches are taken."""

    def __init__(self, capacity=None):
        self.capacity = capacity

    def fork(self, weights) -> int:
        depth = self._depth
        if depth == len(self._path):  # a fork past the replayed prefix takes its first branch
            self._path.append(0)
            self._ways.append(len(weights))
        assert self._ways[depth] == len(weights), "the run forked differently on a replayed path"
        self._depth += 1
        self._weight *= weights[self._path[depth]]
        return self._path[depth]

    def random(self):
        return _Coin(self)

    def getrandbits(self, k: int) -> int:
        cap = self.capacity
        assert cap is not None and cap <= 1 << k, f"a uniform pick over {cap} cannot come from {k} bits"
        return self.fork([1.0 / cap] * cap)

    def gap(self, p: float, h: int) -> int:
        """A geometric gap G, P(G = g) = p(1 - p)^g, forked over 0..h-1 and
        "at least h", served as h.  With h at least the stream's additions,
        a gap of h or more is never counted down, so serving it as h keeps
        every path's draws and results.  A ``_Coin`` cannot go through the
        logarithm of Doulion's gap, so its ``_draw_gap`` is walked here."""
        return self.fork([p * (1 - p) ** g for g in range(h)] + [(1 - p) ** h])

    def walk(self, run) -> list:
        self._path, self._ways, out = [], [], []
        while True:
            self._depth, self._weight = 0, 1.0
            result = run(self)
            assert self._depth == len(self._path), "the run forked differently on a replayed path"
            out.append((self._weight, result))
            while self._path and self._path[-1] == self._ways[-1] - 1:
                self._path.pop()
                self._ways.pop()
            if not self._path:
                break
            self._path[-1] += 1
        assert math.isclose(math.fsum(w for w, _ in out), 1.0, abs_tol=1e-12)
        return out


def _reference_pick_distinct(w, cum, k, rng) -> list[int]:
    """Rounds of cumulative-weight inversion with rejection of repeats, a
    rebuild of the running sum without the picked indices when rejection
    stalls, and uniform picks once every remaining weight is zero."""
    m = len(w)
    if m < k:
        raise ValueError(f"cannot attach {k} edges among {m} existing nodes")
    picked: list[int] = []
    chosen: set[int] = set()
    attempts_left = 200 * k + 200
    while len(picked) < k:
        total = cum[-1]
        if total <= 0.0:
            idx = rng.randrange(m)
            if idx not in chosen:
                picked.append(idx)
                chosen.add(idx)
            continue
        if attempts_left <= 0:
            w = w.copy()
            w[list(chosen)] = 0.0
            cum = np.cumsum(w)
            attempts_left = 200 * k + 200
            continue
        draws = min(k - len(picked), attempts_left)
        attempts_left -= draws
        coins = np.array([rng.random() for _ in range(draws)]) * total
        for idx in cum.searchsorted(coins, side="right").tolist():
            if idx == m:  # float rounding pushed the coin onto the total
                idx = len(cum) - 1
                while idx > 0 and cum[idx] == cum[idx - 1]:
                    idx -= 1
            if idx not in chosen:
                picked.append(idx)
                chosen.add(idx)
    return picked


def reference_er_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Per-pair ``er_graph`` reference: an empty row for each of nodes
    0..n-1 first, then one ``Graph.add_edge`` per pair (u, v), u < v, that
    its coin keeps, pairs in increasing order."""
    rng = random.Random(seed)
    g = Graph._of_rows({u: [] for u in range(n)})
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                g.add_edge(u, v)
    return g


def reference_ba_graph(cfg) -> Graph:
    """Per-node ``ba_graph`` reference: degrees and weights in numpy arrays,
    one ``np.cumsum`` per new node, numpy fancy indexing for the degree and
    weight updates, each weight by the ``_degree_weights`` rule.  ``ba_graph`` must grow the same graph, node order and
    neighbor order included, for every config."""
    g = reference_er_graph(cfg.seed_nodes, cfg.seed_edge_prob, derive_seed(cfg.seed, "er-seed"))
    rng = random.Random(derive_seed(cfg.seed, "attach"))
    k = cfg.edges_per_new_node
    degrees = np.zeros(cfg.n_total, dtype=np.float64)
    for u in range(cfg.seed_nodes):
        degrees[u] = g.degree(u)
    w = _degree_weights(degrees, cfg.gamma)
    cum = np.empty_like(w)
    for new in range(cfg.seed_nodes, cfg.n_total):
        targets = _reference_pick_distinct(w[:new], np.cumsum(w[:new], out=cum[:new]), k, rng)
        for t in targets:
            g.add_edge(new, t)
        degrees[targets] += 1.0
        degrees[new] = float(k)
        touched = targets + [new]
        w[touched] = _degree_weights(degrees[touched], cfg.gamma)
    return g
