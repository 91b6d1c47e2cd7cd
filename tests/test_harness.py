import csv
import dataclasses
import hashlib
import importlib.util
import math
import random
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import trisample.harness
from trisample import (
    BaConfig,
    EdgeEvent,
    EstimatorSpec,
    ExactTracker,
    ExperimentConfig,
    Graph,
    StreamSpec,
    TriestEstimator,
    confidence_interval,
    ba_graph,
    derive_seed,
    emit_csv,
    er_graph,
    exact_triangles,
    nrmse,
    relative_error,
    run_experiment,
)
from trisample.harness import SUMMARY_HEADER, TRACE_HEADER, Trace, _drive, _trace_stops, trace_path_for

from helpers import complete_graph_edges

TRIANGLE = [(1, 2), (2, 3), (1, 3)]


def test_relative_error_basic():
    assert relative_error([10.0, 10.0], 10.0) == 0.0
    assert relative_error([10.5], 10.0) == pytest.approx(0.05)
    assert relative_error([8.0, 12.0, 13.0], 10.0) == pytest.approx(0.1)


def test_relative_error_hand_recomputation():
    rng = random.Random(1)
    xs = [rng.uniform(50, 150) for _ in range(37)]
    truth = 99.0
    by_hand = (sum(xs) / len(xs) - truth) / truth
    assert relative_error(xs, truth) == pytest.approx(by_hand)


def test_nrmse_basic():
    assert nrmse([7.0, 7.0, 7.0], 7.0) == 0.0
    assert nrmse([14.0], 7.0) == pytest.approx(1.0)


def test_nrmse_two_pass_agreement():
    rng = random.Random(2)
    xs = [rng.gauss(20, 4) for _ in range(200)]
    truth = 20.0
    direct = math.sqrt(sum((x - truth) ** 2 for x in xs) / len(xs)) / truth
    assert nrmse(xs, truth) == pytest.approx(direct)


def test_nrmse_per_replication_truths():
    # each estimate against its own truth, normalized by the mean truth
    assert nrmse([11.0, 18.0], [10.0, 20.0]) == pytest.approx(math.sqrt(2.5) / 15.0)
    assert nrmse([3.0, 5.0], [4.0, 4.0]) == nrmse([3.0, 5.0], 4.0)


def test_metrics_are_nan_for_zero_truth():
    assert math.isnan(relative_error([1.0, 2.0], 0.0))
    assert math.isnan(nrmse([1.0, 2.0], 0.0))
    assert math.isnan(nrmse([1.0, 2.0], [0.0, 0.0]))


def test_confidence_interval_constant_vector():
    lo, hi = confidence_interval([5.0, 5.0, 5.0, 5.0])
    assert lo == hi == 5.0


def test_confidence_interval_symmetric_two_point():
    lo, hi = confidence_interval([4.0, 6.0])
    assert lo + hi == pytest.approx(10.0)
    assert hi - 5.0 == pytest.approx(5.0 - lo)


def test_confidence_interval_z_value():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    lo, hi = confidence_interval(xs)
    half = 1.9600 * statistics.stdev(xs) / math.sqrt(len(xs))
    assert (hi - lo) / 2 == pytest.approx(half, rel=1e-3)


def test_confidence_interval_coverage():
    rng = np.random.default_rng(3)
    mu, sd, reps, batches = 10.0, 2.0, 50, 2000
    covered = 0
    for _ in range(batches):
        xs = rng.normal(mu, sd, size=reps)
        lo, hi = confidence_interval(xs)
        covered += lo <= mu <= hi
    assert 0.93 <= covered / batches <= 0.97


def test_config_validation():
    spec = StreamSpec("permutation", edges=TRIANGLE)
    with pytest.raises(ValueError):
        ExperimentConfig(stream=spec, estimators=[], replications=5)
    with pytest.raises(ValueError):
        ExperimentConfig(stream=spec, estimators=[EstimatorSpec("esd", 0.5)], replications=0)
    with pytest.raises(ValueError):
        EstimatorSpec("unknown", 0.5)
    # a count that cannot run is refused when the config is built, by the
    # reservoir capacity's rule: an integral value of at least 1 runs as that int
    for reps in (0, 1.5, 2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="replications"):
            ExperimentConfig(stream=spec, estimators=[EstimatorSpec("esd", 0.5)], replications=reps)
    cfg = ExperimentConfig(stream=spec, estimators=[EstimatorSpec("esd", 0.5)], replications=3.0, trace_stride=2.0)
    assert (cfg.replications, cfg.trace_stride) == (3, 2)
    assert type(cfg.replications) is type(cfg.trace_stride) is int
    assert run_experiment(cfg)[0].rows[0].replications == 3


@pytest.mark.parametrize("capacity", [2.7, 2.5, 0.5, 0, -3, float("nan"), float("inf")])
def test_reservoir_capacity_must_be_an_integer_of_at_least_one(capacity):
    # the summary CSV reports the spec's param, so a capacity the reservoir
    # would run rounded is refused when the spec is built; the reservoir's
    # own constructor applies the same rule
    with pytest.raises(ValueError, match="reservoir capacity"):
        EstimatorSpec("triest", capacity)
    with pytest.raises(ValueError, match="reservoir capacity"):
        TriestEstimator(capacity)
    assert EstimatorSpec("triest", 3.0).build(0).capacity == 3
    assert TriestEstimator(3.0).capacity == 3


@pytest.mark.parametrize(
    "kind, param, message",
    [
        ("esd", 0.0, "alpha"),
        ("esd", 1.5, "alpha"),
        ("esd", -0.1, "alpha"),
        ("esd", float("nan"), "alpha"),
        ("esd", 1.1, "alpha"),
        ("doulion", 1.5, "p must"),
        ("doulion", 1.1, "p must"),
        ("doulion", -0.1, "p must"),
        ("doulion", float("nan"), "p must"),
    ],
)
def test_every_estimator_kind_rejects_a_bad_param_at_the_spec(kind, param, message):
    # refused when the spec is built, as a reservoir capacity is, not at
    # replication 0's first build
    with pytest.raises(ValueError, match=message):
        EstimatorSpec(kind, param)


@pytest.mark.parametrize("stride", [0, -5, 2.5, float("nan"), float("inf")])
def test_trace_stride_must_be_positive(stride):
    # the default stride is trace_stride=None; 0, negatives and non-integers are errors
    spec = StreamSpec("permutation", edges=TRIANGLE)
    with pytest.raises(ValueError, match="trace_stride"):
        ExperimentConfig(stream=spec, estimators=[EstimatorSpec("esd", 0.5)], trace_stride=stride)
    cfg = ExperimentConfig(stream=spec, estimators=[EstimatorSpec("esd", 0.5)], trace_stride=1)
    assert [row[0] for row in run_experiment(cfg)[1]] == [1, 2, 3]


def test_run_experiment_k3_alpha_one_exact():
    cfg = ExperimentConfig(
        stream=StreamSpec("permutation", edges=TRIANGLE),
        estimators=[EstimatorSpec("esd", 1.0)],
        replications=1,
        seed=11,
    )
    report, traces = run_experiment(cfg)
    assert report.truth == 1.0
    row = report.rows[0]
    assert row.mean == pytest.approx(1.0)
    assert row.rel_err == pytest.approx(0.0)
    assert row.nrmse == pytest.approx(0.0)
    assert traces[-1][:2] == (3, 1)


def test_run_experiment_deterministic_and_csv_bytes(tmp_path):
    edges = list(er_graph(20, 0.4, seed=4).edges())
    cfg = dict(
        stream=StreamSpec("edge-deletion", edges=edges, p_e=0.05, p_d=0.2),
        estimators=[
            EstimatorSpec("esd", 0.5),
            EstimatorSpec("doulion", 0.5),
            EstimatorSpec("triest", 20),
        ],
        replications=3,
        seed=5,
    )
    r1, t1 = run_experiment(ExperimentConfig(**cfg))
    r2, t2 = run_experiment(ExperimentConfig(**cfg))
    assert r1 == r2
    assert t1 == t2
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(r1, t1, p1)
    emit_csv(r2, t2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert trace_path_for(p1).read_bytes() == trace_path_for(p2).read_bytes()


def test_run_experiment_truth_from_tracker_with_deletions():
    edges = list(er_graph(25, 0.4, seed=6).edges())
    cfg = ExperimentConfig(
        stream=StreamSpec("edge-deletion", edges=edges, p_e=0.1, p_d=0.3),
        estimators=[EstimatorSpec("doulion", 1.0)],
        replications=4,
        seed=7,
    )
    report, _ = run_experiment(cfg)
    # p=1 sparsifier mirrors the graph, so its mean equals the mean truth
    assert report.rows[0].mean == pytest.approx(report.truth)
    assert report.rows[0].nrmse == pytest.approx(0.0)


def test_sample_size_accounting():
    edges = list(er_graph(40, 0.3, seed=8).edges())
    n_events = len(edges)
    alpha = p = 0.2
    reps = 60
    cfg = ExperimentConfig(
        stream=StreamSpec("permutation", edges=edges),
        estimators=[EstimatorSpec("esd", alpha), EstimatorSpec("doulion", p)],
        replications=reps,
        seed=9,
    )
    report, _ = run_experiment(cfg)
    sigma_mean = math.sqrt(n_events * alpha * (1 - alpha) / reps)
    for row in report.rows:
        assert abs(row.edges_sampled_mean - alpha * n_events) <= 3 * sigma_mean


def test_wall_ms_zero_without_timing_and_positive_with():
    cfg_args = dict(
        stream=StreamSpec("permutation", edges=complete_graph_edges(12)),
        estimators=[EstimatorSpec("esd", 1.0)],
        replications=2,
        seed=10,
    )
    report, _ = run_experiment(ExperimentConfig(**cfg_args))
    assert report.rows[0].wall_ms_mean == 0.0
    report_t, _ = run_experiment(ExperimentConfig(**cfg_args, timing=True))
    assert report_t.rows[0].wall_ms_mean > 0.0


def test_emit_csv_formats(tmp_path):
    cfg = ExperimentConfig(
        stream=StreamSpec("permutation", edges=complete_graph_edges(8)),
        estimators=[EstimatorSpec("esd", 0.5), EstimatorSpec("triest", 10)],
        replications=5,
        seed=12,
        trace_stride=7,
    )
    report, traces = run_experiment(cfg)
    out = tmp_path / "summary.csv"
    emit_csv(report, traces, out)

    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert ",".join(rows[0]) == SUMMARY_HEADER
    assert len(rows[0]) == 12
    assert len(rows) == 3
    for row in rows[1:]:
        assert len(row) == 12
        float(row[4])  # mean parses back

    with open(trace_path_for(out)) as fh:
        trows = list(csv.reader(fh))
    assert ",".join(trows[0]) == TRACE_HEADER
    assert len(trows[0]) == 4
    # 28 events at stride 7: trace points at 7, 14, 21, 28 for each estimator
    assert [int(r[0]) for r in trows[1:]] == [7, 7, 14, 14, 21, 21, 28, 28]


def test_emit_csv_empty_traces_header_only(tmp_path):
    cfg = ExperimentConfig(
        stream=StreamSpec("permutation", edges=TRIANGLE),
        estimators=[EstimatorSpec("esd", 1.0)],
        replications=1,
    )
    report, _ = run_experiment(cfg)
    out = tmp_path / "s.csv"
    emit_csv(report, [], out)
    assert trace_path_for(out).read_text() == TRACE_HEADER + "\n"


def _tuple_trace(cfg) -> list:
    """Replication 0's trace rows of ``cfg`` as a list of tuples, the form
    ``run_experiment`` returned before ``Trace``: from the stop loop on a
    store, whose draws and truths the arrival index repeats."""
    events = cfg.stream.realize(derive_seed(cfg.seed, "stream", 0))
    ests = [spec.build(derive_seed(cfg.seed, spec.kind, i, 0)) for i, spec in enumerate(cfg.estimators)]
    stops = _trace_stops(len(events), cfg.trace_stride)
    estimates, truths = _drive(ests, events, stops, Graph(), ExactTracker())
    return [
        (stop, truth, spec.name, est)
        for stop, truth, row in zip(stops, truths, estimates.tolist())
        for spec, est in zip(cfg.estimators, row)
    ]


@pytest.mark.parametrize(
    "stream",
    [dict(kind="edge-deletion", p_e=0.05, p_d=0.2), dict(kind="permutation")],
    ids=["store", "indexed"],
)
def test_trace_is_the_tuple_list(stream):
    cfg = ExperimentConfig(
        stream=StreamSpec(edges=list(er_graph(20, 0.4, seed=4).edges()), **stream),
        estimators=[EstimatorSpec("esd", 0.5), EstimatorSpec("doulion", 0.5), EstimatorSpec("triest", 20)],
        replications=2,
        seed=5,
        trace_stride=7,
    )
    _, trace = run_experiment(cfg)
    rows = _tuple_trace(cfg)
    assert isinstance(trace, Trace)
    assert len(trace) == len(rows) > 30
    for k in (0, 4, len(rows) - 1, -1, -5, -len(rows)):
        assert trace[k] == rows[k]
    assert [type(x) for x in trace[-1]] == [int, int, str, float]
    with pytest.raises(IndexError):
        trace[len(rows)]
    with pytest.raises(IndexError):
        trace[-len(rows) - 1]
    assert trace[2:20:3] == rows[2:20:3]
    assert trace[::-1] == rows[::-1]
    assert list(trace) == rows
    assert trace == rows and rows == trace
    assert trace != rows[:-1] and rows[:-1] != trace
    assert trace != rows[:-1] + [rows[0]] and rows[:-1] + [rows[0]] != trace


def test_dropping_the_trace_frees_a_float_per_cell():
    # a tuple and a float object per row would be about 128 bytes a cell;
    # the columns hold 8 per cell, plus a stop and a truth per 16 cells
    cfg = ExperimentConfig(
        stream=StreamSpec("permutation", edges=list(er_graph(60, 0.5, seed=30).edges())),
        estimators=[EstimatorSpec("doulion", 0.5, label=f"doulion-{k}") for k in range(16)],
        replications=1,
        seed=31,
        trace_stride=1,
    )
    tracemalloc.start()
    try:
        _, trace = run_experiment(cfg)
        cells = len(trace)
        held = tracemalloc.get_traced_memory()[0]
        del trace
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cells > 10_000
    assert freed <= 24 * cells + 4096


def test_a_whole_stream_stretch_is_replayed_uncopied(monkeypatch):
    # a later replication on a store has one stop, the stream's end, and
    # replays the event list itself: a slice would copy a pointer per event
    edges = list(er_graph(20, 0.4, seed=6).edges())
    events = StreamSpec("edge-deletion", edges=edges, p_e=0.05, p_d=0.2).realize(7)
    stretches, real = [], trisample.harness.replay

    def recording(stretch, *args):
        stretches.append(stretch)
        return real(stretch, *args)

    monkeypatch.setattr(trisample.harness, "replay", recording)
    _drive([], events, [len(events)], Graph())
    _drive([], events, [5, len(events)], Graph())
    assert stretches[0] is events
    assert stretches[1:] == [events[:5], events[5:]]


def test_run_experiment_rejects_inconsistent_stream():
    from trisample import EdgeEvent

    cfg = ExperimentConfig(
        stream=StreamSpec("events", events=[EdgeEvent(1, 2, 1), EdgeEvent(1, 2, 1)]),
        estimators=[EstimatorSpec("esd", 1.0)],
        replications=1,
    )
    with pytest.raises(ValueError):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# only replication 0 runs the tracker; a later replication reuses the truth of
# an earlier deletion-free one when it is deletion-free too, and otherwise
# recounts its final graph


def _set_recount(edges) -> int:
    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return sum(len(adj[u] & adj[v]) for u, v in edges) // 3


def _final_edges(events):
    present = set()
    for ev in events:
        e = (min(ev.u, ev.v), max(ev.u, ev.v))
        if ev.beta == 1:
            present.add(e)
        else:
            present.remove(e)
    return present


@pytest.mark.parametrize("kind", ["edge-deletion", "node-deletion"])
def test_truth_is_mean_of_per_replication_recounts(kind):
    edges = list(er_graph(30, 0.35, seed=13).edges())
    stream = dict(kind=kind, edges=edges, p_e=0.1, p_d=0.2)
    reps, seed = 4, 14
    cfg = ExperimentConfig(
        stream=StreamSpec(**stream),
        estimators=[EstimatorSpec("esd", 0.5), EstimatorSpec("triest", 30)],
        replications=reps,
        seed=seed,
    )
    report, traces = run_experiment(cfg)
    truths = [
        _set_recount(_final_edges(StreamSpec(**stream).realize(derive_seed(seed, "stream", r))))
        for r in range(reps)
    ]
    assert len(set(truths)) > 1  # the deletions really differ per replication
    assert report.truth == float(np.asarray(truths, dtype=float).mean())
    assert traces[-1][1] == truths[0]


def test_permutation_truth_is_base_graph_count():
    base = er_graph(40, 0.3, seed=15)
    cfg = ExperimentConfig(
        stream=StreamSpec("permutation", edges=list(base.edges())),
        estimators=[EstimatorSpec("esd", 0.3), EstimatorSpec("doulion", 0.3)],
        replications=3,
        seed=16,
    )
    report, traces = run_experiment(cfg)
    truth = exact_triangles(base)
    assert truth == _set_recount(list(base.edges())) > 0
    assert report.truth == truth
    assert traces[-1][1] == truth


def _assert_timing_changes_only_wall_ms(stream):
    edges = list(er_graph(30, 0.35, seed=25).edges())
    cfg_args = dict(
        stream=StreamSpec(edges=edges, **stream),
        estimators=[
            EstimatorSpec("esd", 0.5),
            EstimatorSpec("doulion", 0.5),
            EstimatorSpec("triest", 40),
        ],
        replications=3,
        seed=26,
    )
    plain, plain_traces = run_experiment(ExperimentConfig(**cfg_args))
    timed, timed_traces = run_experiment(ExperimentConfig(**cfg_args, timing=True))
    assert timed_traces == plain_traces
    assert timed.truth == plain.truth
    for a, b in zip(plain.rows, timed.rows):
        assert a.wall_ms_mean == 0.0
        assert b.wall_ms_mean > 0.0
        assert a == dataclasses.replace(b, wall_ms_mean=0.0)


def test_timing_changes_only_wall_ms():
    # the store path
    _assert_timing_changes_only_wall_ms(dict(kind="edge-deletion", p_e=0.05, p_d=0.2))


def test_timing_changes_only_wall_ms_indexed():
    # the time-indexed path of a deletion-free stream
    _assert_timing_changes_only_wall_ms(dict(kind="permutation"))


_INDEXED = dict(kind="permutation")
_STORE = dict(kind="edge-deletion", p_e=0.05, p_d=0.2)


@pytest.mark.parametrize(
    "spec, method, stream",
    [
        (EstimatorSpec("triest", 40), "estimate", _INDEXED),
        (EstimatorSpec("triest", 40), "estimate", _STORE),
        (EstimatorSpec("esd", 0.5), "skip", _STORE),
        (EstimatorSpec("esd", 0.5), "step", _STORE),
        (EstimatorSpec("triest", 40), "run", _INDEXED),
    ],
    ids=["indexed", "store", "store-skip", "store-step", "indexed-run"],
)
def test_timing_counts_estimate_reads(monkeypatch, spec, method, stream):
    # every call a driver makes is timed as the estimator's work, reads of
    # its estimate included: each replication makes the call at least once,
    # so a call made 2 ms slower must show in every replication's wall time
    cls = type(spec.build(0))
    fn = getattr(cls, method)

    def slow(self, *args):
        time.sleep(0.002)
        return fn(self, *args)

    monkeypatch.setattr(cls, method, slow)
    cfg = ExperimentConfig(
        stream=StreamSpec(edges=list(er_graph(30, 0.35, seed=25).edges()), **stream),
        estimators=[spec],
        replications=2,
        seed=26,
        trace_stride=10_000,
        timing=True,
    )
    report, _ = run_experiment(cfg)
    (row,) = report.rows
    assert row.wall_ms_mean >= 2.0


# sha256 of emit_csv's summary and trace files for the config below.  These
# pin every seeded draw of the stream and the three estimators: a change
# that alters RNG use must update them and say so in CHANGES.md.  Updated
# when TRIÈST became TRIÈST-FD (coin capacity/s, estimate over |S| and
# kappa), which changed the triest lines and no other, and when Doulion's
# coins became geometric gaps, which changed the doulion lines and no
# other.
GOLDEN_SUMMARY_SHA256 = "a70b159bfb4dfaaf6e91af4e291e85046410fad702c502542c43cd6f9f54a611"
GOLDEN_TRACE_SHA256 = "c66f25201999a8058476f3938a64bf4ad5916f9f9bfad7ec484c594d90313e9e"


def test_emit_csv_golden_sha256(tmp_path):
    edges = list(er_graph(40, 0.3, seed=21).edges())
    cfg = ExperimentConfig(
        stream=StreamSpec("edge-deletion", edges=edges, p_e=0.05, p_d=0.2),
        estimators=[
            EstimatorSpec("esd", 0.3),
            EstimatorSpec("doulion", 0.3),
            EstimatorSpec("triest", 60),
        ],
        replications=3,
        seed=22,
    )
    out = tmp_path / "golden.csv"
    emit_csv(*run_experiment(cfg), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SUMMARY_SHA256
    assert hashlib.sha256(trace_path_for(out).read_bytes()).hexdigest() == GOLDEN_TRACE_SHA256


def _count_recounts(monkeypatch) -> list:
    """Record every graph the harness recounts."""
    recounted = []

    def counting(g):
        recounted.append(g)
        return exact_triangles(g)

    monkeypatch.setattr(trisample.harness, "exact_triangles", counting)
    return recounted


def test_deletion_free_replications_reuse_the_truth(monkeypatch):
    recounted = _count_recounts(monkeypatch)
    base = er_graph(30, 0.3, seed=28)
    edges = list(base.edges())
    reps = 5
    spec = EstimatorSpec("esd", 0.5)
    report, _ = run_experiment(
        ExperimentConfig(StreamSpec("permutation", edges=edges), [spec], reps, seed=29)
    )
    assert recounted == []
    assert report.truth == exact_triangles(base) > 0

    events = StreamSpec("edge-deletion", edges=edges, p_e=0.1, p_d=0.3).realize(30)
    assert any(ev.beta == -1 for ev in events)
    report, _ = run_experiment(
        ExperimentConfig(StreamSpec("events", events=events), [spec], reps, seed=31)
    )
    # every replication replays replication 0's events, so none recounts
    assert recounted == []
    assert report.truth == _set_recount(_final_edges(events))


@pytest.mark.parametrize("seed", [0, 2])  # replication 0 with deletions, and without
def test_per_replication_truths_with_some_deletion_free(monkeypatch, seed):
    recounted = _count_recounts(monkeypatch)
    replicated = []
    replicate = trisample.harness._replicate

    def recording(*args):
        out = replicate(*args)
        replicated.append(out[0])
        return out

    monkeypatch.setattr(trisample.harness, "_replicate", recording)
    edges = list(er_graph(20, 0.3, seed=27).edges())
    stream = dict(kind="edge-deletion", edges=edges, p_e=0.012, p_d=0.3)
    reps = 6
    cfg = ExperimentConfig(
        stream=StreamSpec(**stream),
        estimators=[EstimatorSpec("esd", 0.5), EstimatorSpec("doulion", 1.0)],
        replications=reps,
        seed=seed,
    )
    report, _ = run_experiment(cfg)
    realized = [StreamSpec(**stream).realize(derive_seed(seed, "stream", r)) for r in range(reps)]
    free = [all(ev.beta == 1 for ev in events) for events in realized]
    assert any(free) and not all(free)  # both paths run
    truths = [_set_recount(_final_edges(events)) for events in realized]
    assert replicated == truths
    assert report.truth == float(np.asarray(truths, dtype=float).mean())
    assert report.rows[1].nrmse == 0.0  # Doulion at p=1 mirrors each final graph
    # replication 0 has the tracker or the index; a later one recounts unless
    # it is deletion-free and replication 0 was too, so the index proves it
    assert len(recounted) == sum(not (free[0] and free[r]) for r in range(1, reps))


class _Prefixes:
    """A stream given through ``realize`` alone, as the harness reads it:
    the first ``len(edges) - 10 * (seed % 3)`` edges, each added once, as
    fresh event objects or as one shared list's."""

    def __init__(self, edges, fresh):
        self.edges, self.fresh = edges, fresh
        self.events = [EdgeEvent(u, v, 1) for u, v in edges]

    def realize(self, seed):
        n = len(self.edges) - 10 * (seed % 3)
        if self.fresh:
            return [EdgeEvent(u, v, 1) for u, v in self.edges[:n]]
        return self.events[:n]


@pytest.mark.parametrize("fresh", [True, False])  # fresh objects, and shared ones with some dropped
def test_deletion_free_replications_on_other_graphs_recount(monkeypatch, fresh):
    replicated = []
    replicate = trisample.harness._replicate

    def recording(*args):
        out = replicate(*args)
        replicated.append(out[0])
        return out

    monkeypatch.setattr(trisample.harness, "_replicate", recording)
    edges = list(er_graph(25, 0.4, seed=1).edges())
    stream = _Prefixes(edges, fresh)
    reps, seed = 4, 3
    report, _ = run_experiment(
        ExperimentConfig(stream, [EstimatorSpec("doulion", 1.0)], reps, seed=seed)
    )
    realized = [stream.realize(derive_seed(seed, "stream", r)) for r in range(reps)]
    truths = [_set_recount([(ev.u, ev.v) for ev in events]) for events in realized]
    assert len(set(truths)) > 1  # the replications end on different graphs
    assert replicated == truths
    assert report.truth == float(np.asarray(truths, dtype=float).mean())
    assert report.rows[0].nrmse == 0.0  # Doulion at p=1 mirrors each final graph


# The same pins for a permutation stream, whose later replications reuse
# the truth instead of recounting; recorded before that reuse existed.
GOLDEN_PERMUTATION_SUMMARY_SHA256 = "ffb5f018195cfa947ee9a493681a3f509af237f5d9a8d4df3c0f88585cb23ffe"
GOLDEN_PERMUTATION_TRACE_SHA256 = "613abe24a9e41dc0be4e5a9926d03c0d93baf0a0978076f1d0025a7b05a7f249"


def test_emit_csv_golden_sha256_permutation(tmp_path):
    edges = list(er_graph(40, 0.3, seed=23).edges())
    cfg = ExperimentConfig(
        stream=StreamSpec("permutation", edges=edges),
        estimators=[
            EstimatorSpec("esd", 0.3),
            EstimatorSpec("doulion", 0.3),
            EstimatorSpec("triest", 60),
        ],
        replications=4,
        seed=24,
    )
    out = tmp_path / "golden.csv"
    emit_csv(*run_experiment(cfg), out)
    summary = hashlib.sha256(out.read_bytes()).hexdigest()
    assert summary == GOLDEN_PERMUTATION_SUMMARY_SHA256
    trace = hashlib.sha256(trace_path_for(out).read_bytes()).hexdigest()
    assert trace == GOLDEN_PERMUTATION_TRACE_SHA256


# The same pins for a node-deletion stream of a BA graph whose hub has
# degree 379, so ESD probes ranges past 256 that need rejection draws;
# recorded before the probes and the shuffle drew from getrandbits, and
# updated, in its triest lines only, when TRIÈST became TRIÈST-FD, and in
# its doulion lines only, when Doulion's coins became geometric gaps.
GOLDEN_NODE_DELETION_SUMMARY_SHA256 = "17c4ba3070a3dc8342d9a26b94481e9c30ee0735185d5216f87b17904d65e8c8"
GOLDEN_NODE_DELETION_TRACE_SHA256 = "e72a820a9068c9c94e3e217b9730662a5b5de149c0d028899fd7a47eb6315f7a"


def test_emit_csv_golden_sha256_node_deletion(tmp_path):
    edges = sorted(ba_graph(BaConfig(800, 20, 0.2, 3, 1.5, seed=5)).edges())
    cfg = ExperimentConfig(
        stream=StreamSpec("node-deletion", edges=edges, p_e=0.002, p_d=0.05),
        estimators=[EstimatorSpec("esd", 0.5, label=f"esd-{i}") for i in range(8)]
        + [EstimatorSpec("doulion", 0.5), EstimatorSpec("triest", 600)],
        replications=2,
        seed=32,
    )
    out = tmp_path / "golden.csv"
    emit_csv(*run_experiment(cfg), out)
    summary = hashlib.sha256(out.read_bytes()).hexdigest()
    assert summary == GOLDEN_NODE_DELETION_SUMMARY_SHA256
    trace = hashlib.sha256(trace_path_for(out).read_bytes()).hexdigest()
    assert trace == GOLDEN_NODE_DELETION_TRACE_SHA256


# sha256 of the summary CSV bytes followed by the trace CSV bytes that
# the benchmark workloads' setups give at a fixed replication count and
# seed 7.  The benchmark sizes its runs by wall time, so its own digests
# compare only runs that fit equal counts; these compare every change.
# Updated, in the doulion summary lines only, when Doulion's coins became
# geometric gaps.
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
GOLDEN_WORKLOAD_SHA256 = {  # workload: (replications, digest)
    "perm-ba2k": (6, "1dc46b279ab4a1932ee78e9f8395714454a792611a29a23aebe7b643b780ce1d"),
    "dynfan-ba2k": (3, "233b7ad2932bb1d5dce93a40afef009f45339b2fb2ae41ef191e36cfe83ce40d"),
    "perm-ba20k": (2, "6330942178fbbb07d557a5e84efc07e5ccd8b2999898b65ad42af5635b25fdce"),
}


@pytest.mark.parametrize("name", GOLDEN_WORKLOAD_SHA256)
def test_benchmark_workload_csvs_golden_sha256(tmp_path, monkeypatch, name):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    replications, digest = GOLDEN_WORKLOAD_SHA256[name]
    setup = workloads.WORKLOADS[name].setup()
    cfg = ExperimentConfig(setup.stream, setup.estimators, replications=replications, seed=7)
    out = tmp_path / "golden.csv"
    emit_csv(*run_experiment(cfg), out)
    both = out.read_bytes() + trace_path_for(out).read_bytes()
    assert hashlib.sha256(both).hexdigest() == digest
