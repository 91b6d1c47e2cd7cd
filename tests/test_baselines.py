import math
import statistics

import pytest

from trisample import (
    DoulionEstimator,
    EdgeEvent,
    EstimatorSpec,
    ExperimentConfig,
    Graph,
    StreamSpec,
    TriestEstimator,
    er_graph,
    exact_triangles,
    run_experiment,
)

from helpers import complete_graph_edges


def drive(est, events):
    for ev in events:
        est.process(ev)
    return est


def test_doulion_validation():
    with pytest.raises(ValueError):
        DoulionEstimator(-0.1)
    with pytest.raises(ValueError):
        DoulionEstimator(1.1)


def test_doulion_p_one_mirrors_graph_exactly():
    base = er_graph(30, 0.3, seed=1)
    events = StreamSpec("edge-deletion", edges=list(base.edges()), p_e=0.05, p_d=0.3).realize(2)
    est = drive(DoulionEstimator(1.0, seed=3), events)
    g = Graph()
    for ev in events:
        if ev.beta == 1:
            g.add_edge(ev.u, ev.v)
        else:
            g.delete_edge(ev.u, ev.v)
    assert est.sample == g
    assert est.estimate() == exact_triangles(g)


def test_doulion_p_zero_always_zero():
    events = StreamSpec("permutation", edges=complete_graph_edges(5)).realize(4)
    est = drive(DoulionEstimator(0.0, seed=5), events)
    assert est.estimate() == 0.0
    assert est.edges_sampled == 0


def test_doulion_triangle_stream_unbiased():
    stream = StreamSpec("permutation", edges=complete_graph_edges(3))
    finals = []
    n = 10_000
    for seed in range(n):
        est = drive(DoulionEstimator(0.5, seed=seed), stream.realize(seed))
        finals.append(est.estimate())
    mean = statistics.fmean(finals)
    se = statistics.stdev(finals) / math.sqrt(n)
    assert abs(mean - 1.0) <= 3 * se


def test_doulion_incremental_count_matches_recount():
    base = er_graph(40, 0.3, seed=6)
    events = StreamSpec("edge-deletion", edges=list(base.edges()), p_e=0.05, p_d=0.25).realize(7)
    est = DoulionEstimator(0.6, seed=8)
    for i, ev in enumerate(events, start=1):
        est.process(ev)
        if i % 1000 == 0 or i == len(events):
            assert est.tri_in_sample == exact_triangles(est.sample)


def test_doulion_deletion_of_unsampled_edge_noop():
    est = DoulionEstimator(0.0, seed=9)
    est.process(EdgeEvent(1, 2, 1))
    est.process(EdgeEvent(1, 2, -1))
    est.process(EdgeEvent(3, 4, -1))
    assert est.tri_in_sample == 0
    assert est.sample.edge_count == 0


def test_triest_validation():
    with pytest.raises(ValueError):
        TriestEstimator(0)


def test_triest_capacity_covers_stream_is_exact():
    base = er_graph(25, 0.4, seed=10)
    edges = list(base.edges())
    events = StreamSpec("permutation", edges=edges).realize(11)
    est = drive(TriestEstimator(len(edges), seed=12), events)
    assert est.edges_sampled == len(edges)
    assert est.estimate() == exact_triangles(base)


def test_triest_capacity_covers_dynamic_stream_is_exact():
    base = er_graph(25, 0.4, seed=13)
    events = StreamSpec("edge-deletion", edges=list(base.edges()), p_e=0.05, p_d=0.3).realize(14)
    est = drive(TriestEstimator(len(list(base.edges())), seed=15), events)
    g = Graph()
    for ev in events:
        if ev.beta == 1:
            g.add_edge(ev.u, ev.v)
        else:
            g.delete_edge(ev.u, ev.v)
    assert est.estimate() == exact_triangles(g)
    assert est.sample == g


def test_triest_capacity_one_never_counts():
    events = StreamSpec("permutation", edges=complete_graph_edges(6)).realize(16)
    est = drive(TriestEstimator(1, seed=17), events)
    assert est.tau == 0
    assert est.estimate() == 0.0


def test_triest_reduces_to_classic_reservoir_without_deletions():
    # every prefix edge should sit in the reservoir with equal probability
    edges = [(0, i) for i in range(1, 21)]  # star: no triangles, pure sampling
    events = [EdgeEvent(u, v, 1) for u, v in edges]
    m = 5
    counts = {e: 0 for e in edges}
    n = 10_000
    for seed in range(n):
        est = drive(TriestEstimator(m, seed=seed), events)
        for e in est._edges:
            counts[e] += 1
    expected = n * m / len(edges)
    sigma = math.sqrt(n * (m / len(edges)) * (1 - m / len(edges)))
    for e, c in counts.items():
        assert abs(c - expected) <= 4 * sigma, (e, c)


def test_triest_unbiased_on_addition_stream():
    base = er_graph(22, 0.45, seed=18)
    edges = list(base.edges())
    truth = exact_triangles(base)
    m = math.ceil(len(edges) / 2)
    finals = []
    n = 4000
    stream = StreamSpec("permutation", edges=edges)
    for seed in range(n):
        est = drive(TriestEstimator(m, seed=seed), stream.realize(seed + n))
        finals.append(est.estimate())
    mean = statistics.fmean(finals)
    se = statistics.stdev(finals) / math.sqrt(n)
    assert abs(mean - truth) <= 3 * se


def test_triest_tau_matches_sample_recount_on_dynamic_stream():
    base = er_graph(40, 0.3, seed=19)
    events = StreamSpec("edge-deletion", edges=list(base.edges()), p_e=0.05, p_d=0.25).realize(20)
    est = TriestEstimator(60, seed=21)
    for i, ev in enumerate(events, start=1):
        est.process(ev)
        if i % 1000 == 0 or i == len(events):
            assert est.tau == exact_triangles(est.sample)
            assert est.edges_sampled <= 60


def test_triest_sample_holds_only_the_nodes_of_its_edges():
    # evicted edges take their emptied endpoints with them, so the reservoir
    # graph stays O(capacity) however many nodes the stream visits
    base = er_graph(300, 0.05, seed=24)
    est = drive(TriestEstimator(40, seed=24), StreamSpec("permutation", edges=list(base.edges())).realize(24))
    assert est.edges_sampled == 40
    assert est.sample.node_count <= 2 * 40


def test_triest_estimate_scaling_formula():
    est = TriestEstimator(5, seed=22)
    for u, v in complete_graph_edges(5):  # 10 edges through a size-5 reservoir
        est.process(EdgeEvent(u, v, 1))
    s = est.live_edges
    assert s == 10
    rho = (s * (s - 1) * (s - 2)) / (5 * 4 * 3)
    assert est.estimate() == pytest.approx(est.tau * rho)


def test_triest_absent_deletion_rejected_by_driver():
    # the reservoir counts live edges instead of storing them, so the
    # driver, not the baseline, rejects a deletion of an absent edge
    cfg = ExperimentConfig(
        stream=StreamSpec("events", events=[EdgeEvent(1, 2, 1), EdgeEvent(8, 9, -1)]),
        estimators=[EstimatorSpec("triest", 4)],
        replications=1,
        seed=23,
    )
    with pytest.raises(ValueError, match="inconsistent stream: absent deletion"):
        run_experiment(cfg)


def test_triest_random_pairing_counters_stay_nonnegative():
    base = er_graph(20, 0.5, seed=25)
    events = StreamSpec("edge-deletion", edges=list(base.edges()), p_e=0.3, p_d=0.4).realize(26)
    est = TriestEstimator(10, seed=27)
    for ev in events:
        est.process(ev)
        assert est.c_bad >= 0 and est.c_good >= 0
        assert est.edges_sampled <= 10
