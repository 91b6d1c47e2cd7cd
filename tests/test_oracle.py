import random
import statistics
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisample import (
    BaConfig,
    EdgeEvent,
    EsdEstimator,
    ExactTracker,
    Graph,
    StreamSpec,
    ba_graph,
    er_graph,
    exact_triangles,
    replay,
    triangles_of_edge,
    variance_bound,
)
from trisample.oracle import _rank_table, common_neighbor_count

from helpers import (
    brute_force_common_neighbors,
    brute_force_triangles,
    complete_graph_edges,
)


def test_exact_triangles_complete_graphs():
    assert exact_triangles(Graph.from_edges(complete_graph_edges(3))) == 1
    assert exact_triangles(Graph.from_edges(complete_graph_edges(4))) == 4
    assert exact_triangles(Graph.from_edges(complete_graph_edges(6))) == 20


def test_exact_triangles_matches_brute_force_on_er_corpus():
    for i, p in enumerate([0.1, 0.3, 0.5] * 4):
        g = er_graph(16 + 4 * i, p, seed=100 + i)
        assert exact_triangles(g) == brute_force_triangles(g)


# ids the rank table does not serve, so a graph of them is ranked through
# the dict: floats (no int), ints from 2**63 up (beyond int64) and negative
# ints down to -2**70, nearly all of them sparse or beyond int64; no id
# equals one of another kind
ODD_IDS = st.one_of(
    st.integers(-(2**70), -1),
    st.integers(2**63, 2**66),
    st.floats(-1e9, 1e9).filter(lambda x: not x.is_integer()),
)


@st.composite
def graphs_with_odd_ids(draw):
    """A random simple graph on up to 12 ``ODD_IDS``, plus a few nodes that
    ``add_node`` adds and no edge touches."""
    ids = draw(st.lists(ODD_IDS, min_size=2, max_size=12, unique=True))
    pairs = list(combinations(ids, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(pair for pair, k in zip(pairs, keep) if k)
    for u in draw(st.lists(ODD_IDS, max_size=3)):
        g.add_node(u)
    return g


@settings(max_examples=200, deadline=None)
@given(g=graphs_with_odd_ids())
def test_exact_triangles_matches_brute_force_on_any_ids(g):
    assert exact_triangles(g) == brute_force_triangles(g)


@st.composite
def graphs_with_dense_ids(draw):
    """A random simple graph on n int ids, and their span: the ids lie in
    ``span`` consecutive ints from an offset anywhere in int64, n <= span <=
    2·n, both ends taken and the gaps left unused, and each is added by
    ``add_node``, so one that no edge touches is an isolated node."""
    n = draw(st.integers(2, 12))
    span = draw(st.one_of(st.sampled_from([2 * n - 1, 2 * n]), st.integers(n, 2 * n)))
    ends = [-(2**63), -(2**62), 0, 2**62, 2**63 - span]
    lo = draw(st.one_of(st.sampled_from(ends), st.integers(-(2**63), 2**63 - span)))
    inner = draw(st.permutations(range(1, span - 1)))[: n - 2]
    ids = [lo + i for i in [0, *inner, span - 1]]
    pairs = list(combinations(ids, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(pair for pair, k in zip(pairs, keep) if k)
    for u in ids:
        g.add_node(u)
    return g, span


@settings(max_examples=200, deadline=None)
@given(drawn=graphs_with_dense_ids())
def test_exact_triangles_rank_table_and_dict_agree(drawn):
    g, span = drawn
    n = g.node_count
    assert (_rank_table(sorted(g.nodes())) is not None) == (span < 2 * n)
    # x -> x * 2**40 - 3 spreads the ids far apart (and most beyond int64)
    sparse = Graph.from_edges((u * 2**40 - 3, v * 2**40 - 3) for u, v in g.edges())
    for u in g.nodes():
        sparse.add_node(u * 2**40 - 3)
    assert _rank_table(sorted(sparse.nodes())) is None
    assert exact_triangles(g) == exact_triangles(sparse) == brute_force_triangles(g)


HUB = list(range(0, 12_000, 3))


@pytest.mark.parametrize(
    "a, b",
    [
        ([], []),
        ([], [1, 2, 3]),
        ([5], [5]),
        ([5], [4, 6]),
        ([1, 3, 5], [2, 4, 6]),
        ([1, 2, 3], [10, 20, 30]),
        ([100, 200], [1, 2, 3]),
        ([2, 4, 8, 16], [2, 4, 8, 16]),
        ([0, 9, 10, 2999, 11_997, 11_998, 50_000], HUB),
        ([3, 6, 7, 11_999], HUB),
    ],
)
def test_common_neighbor_count_matches_set_intersection(a, b):
    expected = len(set(a) & set(b))
    assert common_neighbor_count(a, b) == expected
    assert common_neighbor_count(b, a) == expected


def test_common_neighbor_count_random_sorted_lists():
    rng = random.Random(11)
    for _ in range(500):
        a = sorted(rng.sample(range(300), rng.randrange(0, 40)))
        b = sorted(rng.sample(range(300), rng.randrange(0, 300)))
        assert common_neighbor_count(a, b) == len(set(a) & set(b))
        assert common_neighbor_count(b, a) == len(set(a) & set(b))


def test_exact_triangles_degree_ties():
    # every node ties on degree, so the orientation falls back to node ids
    cycle = Graph.from_edges([(i, (i + 1) % 7) for i in range(7)])
    star = Graph.from_edges([(0, i) for i in range(1, 9)])
    k5 = Graph.from_edges(complete_graph_edges(5))
    triangle = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    for g in (cycle, star, k5, triangle):
        assert exact_triangles(g) == brute_force_triangles(g)
    assert exact_triangles(k5) == 10


def test_exact_triangles_keeps_degree_zero_nodes():
    g = Graph.from_edges(complete_graph_edges(6))
    g.add_node(40)
    for u, v in [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]:
        g.delete_edge(u, v)
    assert g.degree(0) == 0 and 0 not in g.nodes()
    assert g.degree(40) == 0 and 40 in g.nodes()
    assert exact_triangles(g) == brute_force_triangles(g) == 7  # K5 minus an edge
    assert exact_triangles(Graph()) == 0


def test_exact_triangles_ba_graph_with_hub():
    g = ba_graph(BaConfig(500, 20, 0.3, 5, 1.5, seed=3))
    assert max(g.degree(u) for u in g.nodes()) > 100
    assert exact_triangles(g) == brute_force_triangles(g)


def test_triangles_of_edge():
    k4 = Graph.from_edges(complete_graph_edges(4))
    assert triangles_of_edge(k4, 0, 1) == 2
    star = Graph.from_edges([(0, i) for i in range(1, 6)])
    assert triangles_of_edge(star, 0, 3) == 0
    # absent edge still counts common neighbors
    path = Graph.from_edges([(1, 2), (2, 3)])
    assert triangles_of_edge(path, 1, 3) == 1


def test_triangles_of_edge_matches_brute_force():
    rng = random.Random(7)
    g = er_graph(32, 0.3, seed=8)
    for _ in range(200):
        u, v = rng.randrange(32), rng.randrange(32)
        if u != v:
            assert triangles_of_edge(g, u, v) == brute_force_common_neighbors(g, u, v)


def test_tracker_triangle_build_and_teardown():
    g = Graph()
    tracker = ExactTracker()
    counts = []
    for ev in [EdgeEvent(1, 2, 1), EdgeEvent(2, 3, 1), EdgeEvent(1, 3, 1)]:
        g.add_edge(ev.u, ev.v)
        tracker.apply(ev, g)
        counts.append(tracker.count)
    assert counts == [0, 0, 1]
    tracker.apply(EdgeEvent(2, 3, -1), g)
    assert tracker.count == 0  # counted before removal
    g.delete_edge(2, 3)
    assert tracker.h_trace == [0, 0, 1, 1]
    assert tracker.max_degree == 2


def test_tracker_misordered_deletion_raises():
    # a deletion that subtracts more triangles than were ever tracked means
    # apply() was called in the wrong order relative to the graph mutation
    g = Graph.from_edges(complete_graph_edges(3))
    tracker = ExactTracker()
    with pytest.raises(ValueError):
        tracker.apply(EdgeEvent(0, 1, -1), g)


def test_tracker_agrees_with_recount_on_dynamic_stream():
    rng = random.Random(9)
    g = Graph()
    tracker = ExactTracker()
    present = set()
    for step in range(10_000):
        if present and rng.random() < 0.35:
            e = rng.choice(sorted(present))
            present.discard(e)
            ev = EdgeEvent(e[0], e[1], -1)
            tracker.apply(ev, g)
            g.delete_edge(*e)
        else:
            u, v = rng.randrange(60), rng.randrange(60)
            if u == v or g.has_edge(u, v):
                continue
            g.add_edge(u, v)
            present.add((min(u, v), max(u, v)))
            tracker.apply(EdgeEvent(u, v, 1), g)
        if step % 500 == 0:
            assert tracker.count == exact_triangles(g)
    assert tracker.count == exact_triangles(g)


def test_tracker_order_does_not_matter():
    # Γ(u) ∩ Γ(v) never holds u or v, and the peak degree is read in the
    # graph that holds the edge, so applying each event before or after the
    # graph does gives the same count, trace and peak degree
    edges = list(er_graph(50, 0.3, seed=21).edges())
    streams = [StreamSpec("node-deletion", edges=edges, p_e=0.05, p_d=0.1).realize(22)]
    for seed in range(30):
        edges = list(er_graph(25, 0.3, seed=seed).edges())
        streams.append(StreamSpec("edge-deletion", edges=edges, p_e=0.1, p_d=0.3).realize(seed))
    for events in streams:
        assert any(ev.beta == -1 for ev in events)
        before, after = ExactTracker(), ExactTracker()
        g = Graph()
        for ev in events:
            before.apply(ev, g)
            if ev.beta == 1:
                g.add_edge(ev.u, ev.v)
            else:
                g.delete_edge(ev.u, ev.v)
            after.apply(ev, g)
        assert after.count == before.count == exact_triangles(g)
        assert after.h_trace == before.h_trace
        assert after.max_degree == before.max_degree


def test_variance_bound_alpha_half_zeroes_second_term():
    # at alpha = 0.5 the squared-overlap coefficient vanishes
    assert variance_bound([3, 7, 1], n_t=10, d_max=6, alpha=0.5) == 10 * 5
    assert variance_bound([], n_t=0, d_max=0, alpha=0.5) == 0.0


def test_variance_bound_formula():
    trace = [0, 1, 2]
    alpha = 0.1
    expected = 3 * (4 - 1) / (2 * alpha) + (1 / (2 * alpha) - 1) * 5
    assert variance_bound(trace, n_t=3, d_max=4, alpha=alpha) == pytest.approx(expected)


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, 1.1, float("nan")])
def test_variance_bound_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be in"):
        variance_bound([1], n_t=1, d_max=2, alpha=alpha)


def test_variance_bound_dominates_empirical_variance_k4():
    # small Monte Carlo sanity check; the acceptance suite runs the full one
    edges = complete_graph_edges(4)
    events = StreamSpec("permutation", edges=edges).realize(21)
    tracker = ExactTracker()
    ests = [EsdEstimator(0.2, seed=seed) for seed in range(3000)]
    replay(events, Graph(), ests, tracker)
    bound = variance_bound(tracker.h_trace, tracker.count, tracker.max_degree, alpha=0.2)
    assert statistics.variance([est.estimate() for est in ests]) <= bound * 1.1
