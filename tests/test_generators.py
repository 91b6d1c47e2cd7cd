import hashlib
import math
import random
import sys

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisample import (
    BA_PRESETS,
    BaConfig,
    Graph,
    ba_graph,
    derive_seed,
    er_graph,
    exact_triangles,
    graph_stats,
)
from trisample.generators import _degree_weights, _pick_distinct

from helpers import (
    ScriptedRng,
    _reference_pick_distinct,
    assert_graph_invariants,
    complete_graph_edges,
    reference_ba_graph,
    reference_er_graph,
    sorted_edges,
)


def test_er_graph_extremes():
    assert er_graph(10, 0.0, seed=1).edge_count == 0
    k5 = er_graph(5, 1.0, seed=2)
    assert k5.edge_count == 10
    assert k5.node_count == 5
    for edge_prob in (1.5, 1.1, -0.1, float("nan")):
        with pytest.raises(ValueError, match="edge_prob must be in"):
            er_graph(5, edge_prob, seed=3)
    # n is a count: an integral value of at least 1 runs as that int
    for n in (-3, 0, 2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"n must be >= 1 and an integer, got {n}"):
            er_graph(n, 0.5, seed=3)
    assert sorted_edges(er_graph(6.0, 0.5, seed=4)) == sorted_edges(er_graph(6, 0.5, seed=4))


def test_er_graph_isolated_nodes_counted():
    g = er_graph(8, 0.0, seed=3)
    assert g.node_count == 8
    assert g.degree(5) == 0


def test_er_graph_edge_count_expectation():
    n, p = 100, 0.1
    pairs = n * (n - 1) // 2
    sigma_one = math.sqrt(pairs * p * (1 - p))
    n_seeds = 30
    mean = sum(er_graph(n, p, seed=s).edge_count for s in range(n_seeds)) / n_seeds
    assert abs(mean - pairs * p) <= 3 * sigma_one / math.sqrt(n_seeds)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), edge_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=1, edge_prob=1.0, seed=0)
@example(n=30, edge_prob=0.05, seed=3)  # isolated nodes among the rows
def test_er_graph_matches_the_per_pair_reference(n, edge_prob, seed):
    g, ref = er_graph(n, edge_prob, seed), reference_er_graph(n, edge_prob, seed)
    assert list(g.nodes()) == list(ref.nodes()) == list(range(n))
    for u in range(n):
        assert list(g.adjacency(u)) == list(ref.adjacency(u))
    assert g.edge_count == ref.edge_count


def test_er_graph_deterministic():
    a = er_graph(40, 0.2, seed=9)
    b = er_graph(40, 0.2, seed=9)
    assert sorted_edges(a) == sorted_edges(b)


def test_ba_config_validation():
    with pytest.raises(ValueError):
        BaConfig(10, 5, 0.1, 6, 1.0)  # seed smaller than attachment count
    with pytest.raises(ValueError):
        BaConfig(4, 5, 0.1, 2, 1.0)  # shrinking total
    with pytest.raises(ValueError):
        BaConfig(10, 5, 1.5, 2, 1.0)
    with pytest.raises(ValueError):
        BaConfig(10, 5, 0.1, 2, -0.5)
    with pytest.raises(ValueError):
        BaConfig(10, 5, 0.1, 0, 1.0)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            BaConfig(10, 5, 0.1, 2, gamma)
    # each count by the one count rule, each named; an integral value runs
    # as that int
    base = dict(n_total=200, seed_nodes=20, seed_edge_prob=0.1, edges_per_new_node=2, gamma=1.0)
    for name in ("n_total", "seed_nodes", "edges_per_new_node"):
        for bad in (2.5, 0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be >= 1 and an integer, got {bad}"):
                BaConfig(**{**base, name: bad})
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="seed_edge_prob must be in"):
            BaConfig(**{**base, "seed_edge_prob": bad})
    cfg = BaConfig(200.0, 20.0, 0.1, 2.0, 1.0)
    assert type(cfg.n_total) is type(cfg.seed_nodes) is type(cfg.edges_per_new_node) is int
    assert sorted_edges(ba_graph(cfg)) == sorted_edges(ba_graph(BaConfig(200, 20, 0.1, 2, 1.0)))


def test_ba_config_rejects_gamma_whose_weights_overflow():
    # 299**200 overflows float64, and an inf weight total would send every
    # pick to the first inf-weight node
    with pytest.raises(ValueError, match="overflows"):
        BaConfig(300, 20, 0.3, 3, 200.0)
    # the bound is gamma*ln(n_total - 1) + ln(n_total) < ln(float max)
    limit = (math.log(sys.float_info.max) - math.log(300)) / math.log(299)
    BaConfig(300, 20, 0.3, 3, limit * 0.999)
    with pytest.raises(ValueError):
        BaConfig(300, 20, 0.3, 3, limit * 1.001)
    BaConfig(1, 1, 0.0, 1, 1e6)  # one node has no degree to overflow


def test_ba_graph_total_equals_seed_returns_er_seed():
    cfg = BaConfig(n_total=20, seed_nodes=20, seed_edge_prob=0.3, edges_per_new_node=3, gamma=1.0, seed=4)
    g = ba_graph(cfg)
    assert g.node_count == 20
    assert max(g.nodes()) == 19


def test_ba_graph_edge_count_identity():
    cfg = BaConfig(n_total=300, seed_nodes=30, seed_edge_prob=0.2, edges_per_new_node=5, gamma=1.5, seed=5)
    g = ba_graph(cfg)
    seed_edges = er_graph(30, 0.2, derive_seed(5, "er-seed")).edge_count
    assert g.edge_count == seed_edges + (300 - 30) * 5
    assert list(g.nodes()) == list(range(300))  # each new node joins in id order
    assert_graph_invariants(g)


def test_ba_graph_deterministic():
    cfg = BaConfig(200, 20, 0.2, 4, 1.0, seed=6)
    assert sorted_edges(ba_graph(cfg)) == sorted_edges(ba_graph(cfg))


# sha256 of repr(sorted(edges)), recorded when every weight was recomputed
# for each new node; growing the weights incrementally must not change them
BA_GOLDEN = [
    (BaConfig(2000, 100, 0.1, 10, 1.5, seed=42), "eecb745579178aac22768e37905cd6e9ff31aa0ffc7ef6ed710ff4988834649c"),
    (BaConfig(2000, 100, 0.1, 5, 1.0, seed=42), "0509be7f71791766d7e7509b97847f52e4d4cf052c9992f922c8edadbfa99ede"),
    (BaConfig(2000, 100, 0.1, 5, 1.5, seed=42), "03f215e2dcf853b2af4b6282b9011f9ee0f4462778efe8114641ce947d6e81df"),
    (BaConfig(2000, 100, 0.1, 5, 2.0, seed=42), "5e600ae9262e158435d8760666a6edde2e2746cd7a7a9e2e1765abbdd6b7ca44"),
    (BaConfig(600, 20, 0.2, 4, 0.0, seed=3), "2ed4bcaffdbcb034d4b0b291e928214bbc8c80189fb2977c5139b7de5b008ceb"),
    # empty seed graph: every weight is zero and the first pick is uniform
    (BaConfig(500, 10, 0.0, 3, 1.5, seed=7), "95ab9f10855efcf4d0ad19bd8062a608fb0c6e0738810ba9c04b5fad07aabf5d"),
]


@pytest.mark.parametrize("cfg,digest", BA_GOLDEN)
def test_ba_graph_golden_edges(cfg, digest):
    edges = sorted(ba_graph(cfg).edges())
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest


def _sha(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()


# sha256 of repr(list(g.nodes())) and of repr(list(g.edges())), unsorted:
# the order a StreamSpec built from ``g.edges()`` receives its edges in.
# Recorded when degrees and weights were numpy arrays updated per node.
BA_ORDER_GOLDEN = [
    (BA_GOLDEN[0][0], "edd6c0024ff499a09e180e0cf8d1acdee66f285b5544a28346b6e74c5ffa0710", "eecb745579178aac22768e37905cd6e9ff31aa0ffc7ef6ed710ff4988834649c"),
    (BA_GOLDEN[1][0], "edd6c0024ff499a09e180e0cf8d1acdee66f285b5544a28346b6e74c5ffa0710", "0509be7f71791766d7e7509b97847f52e4d4cf052c9992f922c8edadbfa99ede"),
    (BA_GOLDEN[2][0], "edd6c0024ff499a09e180e0cf8d1acdee66f285b5544a28346b6e74c5ffa0710", "03f215e2dcf853b2af4b6282b9011f9ee0f4462778efe8114641ce947d6e81df"),
    (BA_GOLDEN[3][0], "edd6c0024ff499a09e180e0cf8d1acdee66f285b5544a28346b6e74c5ffa0710", "5e600ae9262e158435d8760666a6edde2e2746cd7a7a9e2e1765abbdd6b7ca44"),
    (BA_GOLDEN[4][0], "48f4454773a3144f04ee4b93781982309e8f9a20467f5f18ac413df7e17ff4fd", "2ed4bcaffdbcb034d4b0b291e928214bbc8c80189fb2977c5139b7de5b008ceb"),
    (BA_GOLDEN[5][0], "2d0f2158e924e7b2523220ddd9d9fe2ebbb42e7ecb1394580c9b93c3f225d6d6", "95ab9f10855efcf4d0ad19bd8062a608fb0c6e0738810ba9c04b5fad07aabf5d"),
    # the perm-ba20k benchmark graph: 199,509 edges, hub degree about 15.5k
    (BA_PRESETS["ba1"], "8bf40514cfc6e9593259f4db0904e65efe222c36718de567e968f25643fa97ad", "1438d791e36f4d534aaaaf92a1d3c46f97b8ab660af371852e84bfed1d363679"),
]


@pytest.mark.parametrize("cfg,nodes_digest,edges_digest", BA_ORDER_GOLDEN)
def test_ba_graph_golden_node_and_edge_order(cfg, nodes_digest, edges_digest):
    g = ba_graph(cfg)
    assert _sha(list(g.nodes())) == nodes_digest
    assert _sha(list(g.edges())) == edges_digest


@st.composite
def small_ba_configs(draw):
    k = draw(st.integers(1, 6))
    seed_nodes = draw(st.integers(k, 20))
    return BaConfig(
        n_total=draw(st.integers(seed_nodes, 80)),
        seed_nodes=seed_nodes,
        seed_edge_prob=draw(st.floats(0.0, 1.0)),
        edges_per_new_node=k,
        gamma=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(cfg=small_ba_configs())
# every seed weight zero: the first picks fall back to uniform
@example(cfg=BaConfig(30, 5, 0.0, 3, 1.5, seed=1))
# one seed edge, four picks: rejection stalls on its two endpoints, the
# rebuilt running sum is all zero and the last two picks are uniform
@example(cfg=BaConfig(30, 6, 0.1, 4, 1.0, seed=0))
def test_ba_graph_matches_the_per_node_reference(cfg):
    g, ref = ba_graph(cfg), reference_ba_graph(cfg)
    assert list(g.nodes()) == list(ref.nodes())
    assert list(g.edges()) == list(ref.edges())
    assert g.edge_count == ref.edge_count
    assert_graph_invariants(g)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_weight_table_equals_the_per_node_power_calls(gamma):
    # ba_graph reads each weight from one _degree_weights table over every
    # degree, while reference_ba_graph calls it once per new node over its
    # k + 1 touched degrees: on a numpy build where the two disagree (only
    # np.power, at gamma 0.5 here, can), this fails by name rather than only
    # as a reference or golden digest mismatch
    degrees = np.arange(20000, dtype=float)
    table = _degree_weights(degrees, gamma)
    for k in (3, 4, 5, 10):  # the golden configs' edges_per_new_node
        short = [_degree_weights(degrees[i : i + k + 1], gamma) for i in range(len(degrees) - k)]
        assert np.array_equal(short, sliding_window_view(table, k + 1)), f"k={k}"


def test_attachment_uniform_when_gamma_zero():
    # degree**0 == 1 for every node, including isolated ones
    w = _degree_weights(np.array([0.0, 1.0, 5.0, 2.0]), 0.0)  # as ba_graph weighs them
    cum = np.cumsum(w)
    rng = random.Random(7)
    counts = [0, 0, 0, 0]
    n = 40_000
    for _ in range(n):
        counts[_pick_distinct(w, cum, 1, rng)[0]] += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    for c in counts:
        assert abs(c - n / 4) <= 3 * sigma


def test_attachment_targets_distinct_and_infeasible():
    w = np.array([1.0, 2.0, 3.0])
    rng = random.Random(8)
    targets = _pick_distinct(w, np.cumsum(w), 3, rng)
    assert sorted(targets) == [0, 1, 2]
    with pytest.raises(ValueError):
        _pick_distinct(w, np.cumsum(w), 4, rng)


def test_attachment_stalled_rejection_rebuilds_without_picked():
    # after the hub, every draw lands on it again: the picker must rebuild
    # its running sum without the hub to find the other two
    w = np.array([1e6, 1.0, 1.0]) ** 2.0
    rng = random.Random(12)
    for _ in range(5):
        assert sorted(_pick_distinct(w, np.cumsum(w), 3, rng)) == [0, 1, 2]


def test_pick_distinct_leaves_its_arrays_unchanged():
    w = np.array([1e12, 1.0, 0.0, 1.0, 3.0])
    cum = np.cumsum(w)
    w_before, cum_before = w.copy(), cum.copy()
    picked = _pick_distinct(w, cum, 4, random.Random(13))  # stalls and rebuilds
    assert sorted(picked) == [0, 1, 3, 4]
    assert np.array_equal(w, w_before)
    assert np.array_equal(cum, cum_before)


def test_pick_distinct_top_coin_lands_on_the_last_positive_weight():
    # the largest coin random() can give stays below the total, so the
    # search lands on the last positive weight, never past the array
    w = np.array([1.0, 2.0, 0.0, 0.0])
    rng = ScriptedRng(randoms=[math.nextafter(1.0, 0.0)])
    assert _pick_distinct(w, np.cumsum(w), 1, rng) == [1]


@st.composite
def attachment_weights(draw):
    # few distinct magnitudes, so that hubs stall the rejection and zero
    # weights leave too few candidates for the running sum
    w = draw(st.lists(st.sampled_from([0.0, 1e-12, 1.0, 2.5, 1e6, 1e12]), min_size=1, max_size=12))
    return np.array(w), draw(st.integers(1, len(w)))


@settings(max_examples=300, deadline=None)
@given(wk=attachment_weights(), seed=st.integers(0, 2**32 - 1))
# the hub takes every coin after the first pick: one stall and a rebuild
@example(wk=(np.array([1e12, 1.0, 1.0]), 3), seed=0)
# one positive weight among four picks: a stall, then a zero running sum
@example(wk=(np.array([0.0, 1.0, 0.0, 0.0, 0.0]), 4), seed=1)
# every weight zero: uniform from the first pick
@example(wk=(np.zeros(6), 3), seed=2)
def test_pick_distinct_matches_the_round_based_reference(wk, seed):
    # the first k coins are one search and each repeat one bisection, so
    # every coin, stall and uniform draw falls where the rounds of the
    # reference that ``reference_ba_graph`` grows with put them
    w, k = wk
    cum = np.cumsum(w)
    rng, ref = random.Random(seed), random.Random(seed)
    assert _pick_distinct(w, cum, k, rng) == _reference_pick_distinct(w, cum, k, ref)
    assert rng.getstate() == ref.getstate()


def test_attachment_zero_weights_falls_back_to_uniform():
    w = np.zeros(6)
    rng = random.Random(9)
    for _ in range(50):
        targets = _pick_distinct(w, np.cumsum(w), 3, rng)
        assert len(set(targets)) == 3


def test_weighted_choice_frequencies_match_degree_power():
    # frozen 5-node state: pick frequency proportional to d**gamma
    degrees = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    gamma = 1.5
    weights = degrees**gamma
    probs = weights / weights.sum()
    rng = random.Random(11)
    n = 100_000
    counts = np.zeros(5)
    for _ in range(n):
        counts[_pick_distinct(weights, np.cumsum(weights), 1, rng)[0]] += 1
    for i in range(5):
        sigma = math.sqrt(n * probs[i] * (1 - probs[i]))
        assert abs(counts[i] - n * probs[i]) <= 3 * sigma


def test_ba_heavy_tail_versus_uniform_attachment():
    # preferential attachment should grow a larger hub than uniform picks
    n_seeds = 10
    pref, unif = [], []
    for s in range(n_seeds):
        base = dict(n_total=600, seed_nodes=20, seed_edge_prob=0.2, edges_per_new_node=4)
        g_pref = ba_graph(BaConfig(gamma=1.5, seed=s, **base))
        g_unif = ba_graph(BaConfig(gamma=0.0, seed=s, **base))
        pref.append(max(g_pref.degree(u) for u in g_pref.nodes()))
        unif.append(max(g_unif.degree(u) for u in g_unif.nodes()))
    assert sum(pref) / n_seeds > sum(unif) / n_seeds


def test_graph_stats_small_cases():
    tri = graph_stats(Graph.from_edges(complete_graph_edges(3)))
    assert (tri.triangles, tri.clustering) == (1, 1.0)
    star = graph_stats(Graph.from_edges([(0, i) for i in range(1, 6)]))
    assert (star.triangles, star.clustering) == (0, 0.0)
    k4 = graph_stats(Graph.from_edges(complete_graph_edges(4)))
    assert k4.triangles == 4
    assert k4.clustering == pytest.approx(1.0)
    assert k4.edges == 6
    assert k4.nodes == 4


def test_graph_stats_matches_exact_oracle():
    g = er_graph(40, 0.25, seed=11)
    stats = graph_stats(g)
    assert stats.triangles == exact_triangles(g)
    wedges = sum(g.degree(u) * (g.degree(u) - 1) // 2 for u in g.nodes())
    assert stats.clustering == pytest.approx(3 * stats.triangles / wedges)
