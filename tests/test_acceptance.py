"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Statistical criteria use fixed seeds so the suite is
deterministic; the 3-SE bounds were chosen by the criteria themselves.
"""

import math
import statistics
from itertools import permutations

from trisample import (
    BaConfig,
    DoulionEstimator,
    EdgeEvent,
    EsdEstimator,
    EstimatorSpec,
    ExactTracker,
    ExperimentConfig,
    Graph,
    StreamSpec,
    TriestEstimator,
    ba_graph,
    emit_csv,
    er_graph,
    exact_triangles,
    graph_stats,
    read_edge_list,
    read_stream_file,
    run_experiment,
    variance_bound,
    write_edge_list,
    write_stream_file,
)
from trisample.harness import trace_path_for
from trisample.seeding import derive_seed

from helpers import brute_force_triangles, complete_graph_edges


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# the BA graph shared by criteria 3, 4 and 8
BA_CRITERION_CFG = BaConfig(
    n_total=2000, seed_nodes=100, seed_edge_prob=0.1, edges_per_new_node=10, gamma=1.5, seed=42
)


def ba_criterion_graph():
    return ba_graph(BA_CRITERION_CFG)


def test_c01_oracle_matches_brute_force():
    checked = 0
    probs = [0.1, 0.3, 0.5]
    for i in range(50):
        n = 40 + (i % 25)
        g = er_graph(n, probs[i % 3], seed=1000 + i)
        assert exact_triangles(g) == brute_force_triangles(g)
        checked += 1
    report(1, checked == 50, f"exact count equals triple enumeration on {checked} ER graphs (n<=64)")


def test_c02_tracker_matches_recount_checkpoints():
    base = er_graph(300, 0.2, seed=2)
    events = StreamSpec("edge-deletion", edges=list(base.edges()), p_e=0.001, p_d=0.05).realize(3)
    assert len(events) >= 9000
    stride = max(1, len(events) // 20)
    g = Graph()
    tracker = ExactTracker()
    checks = 0
    for i, ev in enumerate(events, start=1):
        if ev.beta == 1:
            assert g.add_edge(ev.u, ev.v)
            tracker.apply(ev, g)
        else:
            tracker.apply(ev, g)
            assert g.delete_edge(ev.u, ev.v)
        if i % stride == 0 or i == len(events):
            assert tracker.count == exact_triangles(g), f"checkpoint at event {i}"
            checks += 1
    report(2, checks >= 20, f"tracker equals recount at {checks} checkpoints over {len(events)} events")


def test_c03_esd_unbiased_on_additions():
    g = ba_criterion_graph()
    truth = exact_triangles(g)
    cfg = ExperimentConfig(
        stream=StreamSpec("permutation", edges=list(g.edges())),
        estimators=[EstimatorSpec("esd", 0.05)],
        replications=400,
        seed=3,
    )
    rep, _ = run_experiment(cfg)
    row = rep.rows[0]
    assert rep.truth == truth
    se = math.sqrt(row.var / row.replications)
    ok = abs(row.mean - truth) <= 3 * se and abs(row.rel_err) < 0.02
    report(
        3,
        ok,
        f"additions: |mean-T|={abs(row.mean - truth):.1f} <= 3SE={3 * se:.1f}, "
        f"|rel_err|={abs(row.rel_err):.4f} < 0.02 (T={truth})",
    )


def test_c04_esd_unbiased_fully_dynamic():
    g = ba_criterion_graph()
    events = StreamSpec("edge-deletion", edges=list(g.edges()), p_e=0.001, p_d=0.05).realize(2024)
    assert any(ev.beta == -1 for ev in events)
    gt = Graph()
    tracker = ExactTracker()
    for ev in events:
        if ev.beta == 1:
            gt.add_edge(ev.u, ev.v)
            tracker.apply(ev, gt)
        else:
            tracker.apply(ev, gt)
            gt.delete_edge(ev.u, ev.v)
    truth = tracker.count
    assert truth == exact_triangles(gt)

    r = 400
    ests = [EsdEstimator(0.05, seed=5000 + i) for i in range(r)]
    g2 = Graph()
    for ev in events:
        if ev.beta == 1:
            g2.add_edge(ev.u, ev.v)
        else:
            g2.delete_edge(ev.u, ev.v)
        for est in ests:
            est.process_event(ev, g2)
    finals = [est.estimate() for est in ests]
    mean = statistics.fmean(finals)
    se = statistics.stdev(finals) / math.sqrt(r)
    ok = abs(mean - truth) <= 3 * se
    report(
        4,
        ok,
        f"dynamic: |mean-T|={abs(mean - truth):.1f} <= 3SE={3 * se:.1f} "
        f"(T={truth}, {len(events)} events)",
    )


def test_c05_static_mode_k30():
    edges = complete_graph_edges(30)
    g = Graph.from_edges(edges)
    truth = exact_triangles(g)
    assert truth == 4060
    r = 1000
    ests = [EsdEstimator(0.2, mode="static", seed=100 + i) for i in range(r)]
    stream = StreamSpec("permutation", edges=edges)
    for rep_idx, est in enumerate(ests):
        for ev in stream.realize(derive_seed(9, "static", rep_idx)):
            est.process_static((ev.u, ev.v), g)
    finals = [est.estimate() for est in ests]
    mean = statistics.fmean(finals)
    se = statistics.stdev(finals) / math.sqrt(r)
    ok = abs(mean - 4060) <= 3 * se
    report(5, ok, f"static K30: |mean-4060|={abs(mean - 4060):.1f} <= 3SE={3 * se:.1f}")


def corpus_graphs():
    yield "K3", Graph.from_edges(complete_graph_edges(3))
    yield "K4", Graph.from_edges(complete_graph_edges(4))
    yield "K6", Graph.from_edges(complete_graph_edges(6))
    yield "star", Graph.from_edges([(0, i) for i in range(1, 11)])
    yield "path", Graph.from_edges([(i, i + 1) for i in range(10)])
    yield "tri+pendant", Graph.from_edges([(1, 2), (2, 3), (1, 3), (1, 4)])
    yield "er20", er_graph(20, 0.3, seed=6)
    yield "er24", er_graph(24, 0.4, seed=7)


def test_c06_degenerate_exactness():
    for name, g in corpus_graphs():
        edges = list(g.edges())
        truth = exact_triangles(g)
        events = StreamSpec("permutation", edges=edges).realize(8)
        dou = DoulionEstimator(1.0, seed=9)
        tri = TriestEstimator(max(1, len(edges)), seed=10)
        for ev in events:
            dou.process(ev)
            tri.process(ev)
        assert dou.estimate() == truth, name
        assert tri.estimate() == truth, name

    # alpha=1 branch enumeration on K3: every permutation is deterministic,
    # the two wedge events contribute 0 and the closing event exactly +1
    for order in permutations(complete_graph_edges(3)):
        for seed in (0, 1):
            est = EsdEstimator(1.0, seed=seed)
            g = Graph()
            increments = []
            for u, v in order:
                g.add_edge(u, v)
                before = est.estimate()
                est.process_event(EdgeEvent(u, v, 1), g)
                increments.append(est.estimate() - before)
            assert increments[0] == 0.0 and increments[1] == 0.0
            assert increments[2] == 1.0
    report(6, True, "p=1 sparsifier and full reservoir exact on corpus; alpha=1 K3 increment = 1")


def test_c07_variance_bound():
    def check(edges, stream_seed, alpha, r=5000):
        events = StreamSpec("permutation", edges=edges).realize(stream_seed)
        g = Graph()
        tracker = ExactTracker()
        for ev in events:
            g.add_edge(ev.u, ev.v)
            tracker.apply(ev, g)
        bound = variance_bound(tracker.h_trace, tracker.count, tracker.max_degree, alpha)
        ests = [EsdEstimator(alpha, seed=9000 + i) for i in range(r)]
        g2 = Graph()
        for ev in events:
            g2.add_edge(ev.u, ev.v)
            for est in ests:
                est.process_event(ev, g2)
        var = statistics.variance([e.estimate() for e in ests])
        return var, bound

    ba = ba_graph(BaConfig(n_total=116, seed_nodes=20, seed_edge_prob=0.1, edges_per_new_node=5, gamma=1.5, seed=11))
    ba_edges = list(ba.edges())
    assert abs(len(ba_edges) - 500) <= 10
    details = []
    ok = True
    for name, edges in (("K8", complete_graph_edges(8)), ("BA500", ba_edges)):
        for alpha in (0.1, 0.5):
            var, bound = check(edges, stream_seed=31, alpha=alpha)
            details.append(f"{name}@{alpha}: var/bound={var / bound:.3f}")
            ok = ok and var <= bound * 1.1
    report(7, ok, "empirical variance within 1.1x bound (" + ", ".join(details) + ")")


def test_c08_accuracy_ordering_at_equal_sample_size():
    g = ba_criterion_graph()
    edges = list(g.edges())
    frac = 0.01
    capacity = max(1, round(frac * len(edges)))
    wins = 0
    details = []
    for batch in range(3):
        cfg = ExperimentConfig(
            stream=StreamSpec("permutation", edges=edges),
            estimators=[
                EstimatorSpec("esd", frac),
                EstimatorSpec("doulion", frac),
                EstimatorSpec("triest", capacity),
            ],
            replications=200,
            seed=derive_seed(21, "batch", batch),
        )
        rep, _ = run_experiment(cfg)
        by_name = {row.name: row.nrmse for row in rep.rows}
        won = by_name["esd"] < by_name["doulion"] and by_name["esd"] < by_name["triest"]
        wins += won
        details.append(
            f"batch{batch}: esd={by_name['esd']:.3f} doulion={by_name['doulion']:.3f} "
            f"triest={by_name['triest']:.3f}"
        )
    report(8, wins >= 2, f"esd lowest NRMSE in {wins}/3 batches (" + "; ".join(details) + ")")


def test_c09_sensitivity_to_clustering_coefficient():
    results = {}
    sizes = set()
    for gamma in (1.0, 1.5, 2.0):
        g = ba_graph(BaConfig(2000, 100, 0.1, 5, gamma, seed=42))
        stats = graph_stats(g)
        sizes.add((stats.nodes, stats.edges))
        cfg = ExperimentConfig(
            stream=StreamSpec("permutation", edges=list(g.edges())),
            estimators=[EstimatorSpec("esd", 0.05)],
            replications=200,
            seed=13,
        )
        rep, _ = run_experiment(cfg)
        row = rep.rows[0]
        results[gamma] = (stats.clustering, row.ci_half_width / rep.truth)
    assert len(sizes) == 1, "the three graphs must have matched |V| and |E|"
    highest_eta = max(results, key=lambda k: results[k][0])
    smallest_ci = min(results, key=lambda k: results[k][1])
    detail = ", ".join(
        f"gamma={k}: eta={v[0]:.5f} rel_ci={v[1]:.4f}" for k, v in sorted(results.items())
    )
    report(9, highest_eta == smallest_ci, f"highest eta is gamma={highest_eta} ({detail})")


def test_c10_determinism_and_round_trips(tmp_path):
    edges = list(er_graph(25, 0.4, seed=14).edges())
    cfg_args = dict(
        stream=StreamSpec("edge-deletion", edges=edges, p_e=0.05, p_d=0.2),
        estimators=[
            EstimatorSpec("esd", 0.5),
            EstimatorSpec("doulion", 0.5),
            EstimatorSpec("triest", 30),
        ],
        replications=5,
        seed=15,
    )
    paths = []
    for name in ("one.csv", "two.csv"):
        rep, traces = run_experiment(ExperimentConfig(**cfg_args))
        out = tmp_path / name
        emit_csv(rep, traces, out)
        paths.append(out)
    identical = (
        paths[0].read_bytes() == paths[1].read_bytes()
        and trace_path_for(paths[0]).read_bytes() == trace_path_for(paths[1]).read_bytes()
    )

    import random as _random

    rng = _random.Random(16)
    rand_edges = []
    while len(rand_edges) < 10_000:
        u, v = rng.randrange(1 << 40), rng.randrange(1 << 40)
        if u != v:
            rand_edges.append((u, v))
    epath = tmp_path / "edges.txt"
    write_edge_list(rand_edges, epath)
    edges_ok = read_edge_list(epath) == rand_edges

    rand_events = [
        EdgeEvent(u, v, rng.choice((1, -1))) for u, v in rand_edges
    ]
    spath = tmp_path / "stream.txt"
    write_stream_file(rand_events, spath)
    events_ok = read_stream_file(spath) == rand_events

    ok = identical and edges_ok and events_ok
    report(10, ok, "byte-identical CSVs and lossless 10^4-record round-trips")
