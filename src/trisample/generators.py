"""Synthetic graphs: Erdős–Rényi seeds and preferential-attachment growth.

Both grow each neighbor row by appending, in an order that keeps it sorted,
and hand the rows to the store once.  Preferential attachment reads every
weight from one table of degree powers.  Each new node costs a fixed
handful of numpy calls, whatever the graph's size: one sequential prefix
sum over the existing nodes' weights (native code, linear in their number)
and one search per round of picks; plus k appends and k + 1 table reads.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .oracle import exact_triangles
from .seeding import derive_seed
from .stream import positive_int, probability


@dataclass(frozen=True)
class BaConfig:
    """Growth recipe: an ER seed graph, then one node per step attaching
    ``edges_per_new_node`` distinct edges, target picked with probability
    proportional to degree**gamma."""

    n_total: int
    seed_nodes: int
    seed_edge_prob: float
    edges_per_new_node: int
    gamma: float
    seed: int = 0

    def __post_init__(self):
        for name in ("n_total", "seed_nodes", "edges_per_new_node"):
            object.__setattr__(self, name, positive_int(name, getattr(self, name)))
        if self.seed_nodes < self.edges_per_new_node:
            raise ValueError("seed graph smaller than the per-node attachment count")
        if self.n_total < self.seed_nodes:
            raise ValueError("n_total must be >= seed_nodes")
        probability("seed_edge_prob", self.seed_edge_prob)
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")
        # Every weight is at most (n_total - 1)**gamma, so the prefix sum of
        # n_total of them stays finite below this bound.  Past it an inf
        # total makes every pick land on the first inf-weight node.
        if self.n_total > 1 and self.gamma * math.log(self.n_total - 1) + math.log(
            self.n_total
        ) >= math.log(sys.float_info.max):
            raise ValueError(
                f"gamma={self.gamma} overflows the attachment weights of "
                f"{self.n_total} nodes: need gamma*ln(n_total - 1) + ln(n_total) "
                f"< ln(sys.float_info.max)"
            )


# Desk-scale reference recipes for the six study graphs; the per-node
# attachment counts are inferred from (|E| - seed edges) / (|V| - 100).
BA_PRESETS = {
    "ba1": BaConfig(20000, 100, 0.1, 10, 1.5),
    "ba2": BaConfig(20000, 100, 0.1, 20, 1.5),
    "ba3": BaConfig(20000, 100, 0.1, 50, 1.5),
    "ba4": BaConfig(20000, 100, 0.1, 74, 1.0),
    "ba5": BaConfig(20000, 100, 0.1, 38, 1.5),
    "ba6": BaConfig(20000, 100, 0.1, 30, 2.0),
}


def er_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """G(n, p): nodes 0..n-1, every unordered pair present independently
    with probability ``edge_prob``.  O(n^2) draws, intended for seeds and
    test corpora rather than huge graphs.  Pairs (u, v), u < v, are drawn in
    increasing order, so both rows grow at their ends."""
    n = positive_int("n", n)
    probability("edge_prob", edge_prob)
    rand = random.Random(seed).random
    nodes = list(range(n))  # each row holds its neighbors' own key objects
    adj = {u: [] for u in nodes}
    for u, row in adj.items():
        for v in nodes[u + 1 :]:
            if rand() < edge_prob:
                row.append(v)
                adj[v].append(u)
    return Graph._of_rows(adj)


def _pick_distinct(w: np.ndarray, cum: np.ndarray, k: int, rng) -> list[int]:
    """Pick ``k`` distinct indices with probability proportional to the
    weights ``w``, whose running sum is ``cum``, by cumulative-weight
    inversion; zero-weight entries are never picked and neither array is
    modified.

    Rejection on within-batch repeats keeps each pick exactly proportional
    among the not-yet-picked.  Picks are resolved in rounds: a round draws
    one coin per pick still missing, inverts them with one search and
    rejects repeats in draw order.  The one-at-a-time loop would draw every
    one of those coins too, since it stops only once ``k`` are picked, so
    the RNG use is the same.  If rejection stalls (weight concentrated on
    picked nodes) the running sum is rebuilt without them.  When every
    remaining weight is zero the pick falls back to uniform.
    """
    m = len(w)
    if m < k:
        raise ValueError(f"cannot attach {k} edges among {m} existing nodes")
    picked: list[int] = []
    chosen: set[int] = set()
    attempts_left = 200 * k + 200
    rand = rng.random
    while len(picked) < k:
        total = float(cum[-1])
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
        coins = [rand() * total for _ in range(draws)]
        for idx in cum.searchsorted(coins, side="right").tolist():
            if idx not in chosen:
                picked.append(idx)
                chosen.add(idx)
    return picked


def ba_graph(cfg: BaConfig) -> Graph:
    """Grow a preferential-attachment graph from an ER seed.

    Selection weights are the existing degrees (frozen at each batch start)
    raised to ``cfg.gamma``; a new node's targets are distinct, so the
    result is simple with exactly seed edges plus
    (n_total - seed_nodes) * edges_per_new_node grown edges.

    Per new node the cost is one ``np.add.accumulate`` running sum over the
    existing nodes' weights, one ``searchsorted`` per round of picks, k row
    appends and k + 1 weight writes.  The new node's id exceeds every id so
    far, so appending it keeps each target's row sorted.  A node's weight
    is ``power[len(row)]``, from one ``np.power`` table over every degree,
    so every weight and sum is bitwise what recomputing them all would give.
    """
    g = er_graph(cfg.seed_nodes, cfg.seed_edge_prob, derive_seed(cfg.seed, "er-seed"))
    adj = {u: list(g.adjacency(u)) for u in g.nodes()}
    rng = random.Random(derive_seed(cfg.seed, "attach"))
    k = cfg.edges_per_new_node
    # 0**0 == 1, so gamma=0 is uniform
    power = np.power(np.arange(cfg.n_total, dtype=float), cfg.gamma).tolist()
    w = np.empty(cfg.n_total)
    w[: cfg.seed_nodes] = [power[len(row)] for row in adj.values()]
    cum = np.empty_like(w)
    accumulate = np.add.accumulate
    for new in range(cfg.seed_nodes, cfg.n_total):
        head = w[:new]
        targets = _pick_distinct(head, accumulate(head, out=cum[:new]), k, rng)
        for t in targets:
            row = adj[t]
            row.append(new)
            w[t] = power[len(row)]
        adj[new] = sorted(targets)
        w[new] = power[k]
    return Graph._of_rows(adj)


@dataclass(frozen=True)
class GraphStats:
    nodes: int
    edges: int
    triangles: int
    clustering: float


def graph_stats(g: Graph) -> GraphStats:
    """Node/edge/triangle counts plus the global clustering coefficient
    3 * triangles / wedges, where wedges = sum over nodes of C(d, 2)."""
    tri = exact_triangles(g)
    wedges = 0
    for u in g.nodes():
        d = g.degree(u)
        wedges += d * (d - 1) // 2
    eta = 3.0 * tri / wedges if wedges else 0.0
    return GraphStats(g.node_count, g.edge_count, tri, eta)
