"""The arrival index: a deletion-free replication that reads
``TimeIndexedGraph`` instead of mutating a store must leave every estimator
where ``replay`` on a fresh ``Graph`` does, with the same random draws, its
triangle closings must be the exact tracker's trace, and ``run_experiment``
must fall back to the store wherever the index does not apply."""

import os
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisample import (
    BaConfig,
    EdgeEvent,
    EstimatorSpec,
    ExactTracker,
    ExperimentConfig,
    Graph,
    StreamSpec,
    ba_graph,
    derive_seed,
    emit_csv,
    er_graph,
    exact_triangles,
    replay,
    run_experiment,
)
from trisample.graph import TimeIndexedGraph
from trisample.harness import _drive, _trace_stops, trace_path_for

from helpers import state


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
        st.builds(EstimatorSpec, st.just("esd"), st.sampled_from([1e-9, 0.2, 0.5, 1.0])),
        st.builds(EstimatorSpec, st.just("doulion"), st.sampled_from([0.0, 0.4, 1.0])),
        st.builds(EstimatorSpec, st.just("triest"), st.integers(1, 12)),
    ),
    min_size=1,
    max_size=4,
)


def slots(order, a):
    """Node ``a``'s final neighbors, as ranks in id order, and the arrival
    of each, read through the order's views."""
    nodes, start, nbrs, _ = order.views
    r = bisect_left(nodes, a)
    s, e = start[r], start[r + 1]
    return np.asarray(nbrs)[s:e], order.arrival[s:e]


@settings(max_examples=150, deadline=None)
@given(
    edges=simple_graphs(),
    specs=estimator_specs,
    seeds=st.lists(st.integers(0, 2**32), min_size=6, max_size=6),
)
def test_index_draws_what_a_fresh_store_draws(edges, specs, seeds):
    spec = StreamSpec("permutation", edges=edges)
    first = spec.realize(seeds[0])
    index = TimeIndexedGraph.of(first).index
    events = spec.realize(seeds[1])
    order = index.ordered(events)
    assert order is not None

    est_seeds = seeds[2:]
    indexed = [s.build(seed) for s, seed in zip(specs, est_seeds)]
    _drive(indexed, events, [len(events)], order)
    stored = [s.build(seed) for s, seed in zip(specs, est_seeds)]
    replay(events, Graph(), stored)
    assert [state(est) for est in indexed] == [state(est) for est in stored]

    # Γ before each position, read from the rank rows, is the store's
    store = Graph()
    nodes = sorted({x for e in edges for x in e})
    assert index.nodes.tolist() == nodes
    for i, ev in enumerate(events + [None]):
        for a in nodes:
            row, arrival = slots(order, a)
            assert [nodes[w] for w, t in zip(row, arrival) if t < i] == list(store.adjacency(a))
        if ev is not None:
            store.add_edge(ev.u, ev.v)


@settings(max_examples=150, deadline=None)
@given(
    edges=simple_graphs(),
    specs=estimator_specs,
    seeds=st.lists(st.integers(0, 2**32), min_size=5, max_size=5),
)
def test_closings_are_the_trackers_trace(edges, specs, seeds):
    events = StreamSpec("permutation", edges=edges).realize(seeds[0])
    order = TimeIndexedGraph.of(events)
    counts = order.closings()
    assert counts.dtype == np.int32
    tracker = ExactTracker()
    replay(events, Graph(), (), tracker)
    assert counts.tolist() == tracker.h_trace
    # the recount runs the same lister over the final graph
    assert int(counts.sum()) == exact_triangles(Graph.from_edges(edges))

    # replication 0's indexed pass reads the store's trace rows at every stride
    for stride in (1, 3):
        stops = _trace_stops(len(events), stride)
        stored = [s.build(seed) for s, seed in zip(specs, seeds[1:])]
        estimates, truths = _drive(stored, events, stops, Graph(), ExactTracker())
        assert [int(counts[:stop].sum()) for stop in stops] == truths
        indexed = [s.build(seed) for s, seed in zip(specs, seeds[1:])]
        indexed_estimates, indexed_truths = _drive(indexed, events, stops, order)
        assert indexed_estimates.tolist() == estimates.tolist()
        assert indexed_truths == []


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


@settings(max_examples=150, deadline=None)
@given(
    edges=simple_graphs(),
    specs=estimator_specs,
    seeds=st.lists(st.integers(0, 2**32), min_size=5, max_size=5),
)
def test_states_at_every_stop_are_replays(edges, specs, seeds):
    # the indexed runs of ESD, Doulion and TRIÈST draw no coin past a stop
    # and leave every count where the store's skips do
    events = StreamSpec("permutation", edges=edges).realize(seeds[0])
    order = TimeIndexedGraph.of(events)
    for stride in (1, 3):
        stops = _trace_stops(len(events), stride)
        stored = [StateAtStops(s.build(seed)) for s, seed in zip(specs, seeds[1:])]
        _drive(stored, events, stops, Graph(), ExactTracker())
        indexed = [StateAtStops(s.build(seed)) for s, seed in zip(specs, seeds[1:])]
        _drive(indexed, events, stops, order)
        assert [est.states for est in indexed] == [est.states for est in stored]


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_esd_over_sparse_negative_int64_ids_is_a_replay_at_every_stop(alpha):
    # node x is (x - 10) * 2**40 - 3: sparse, negative for x <= 10 and far
    # beyond int32, so a row is only found by its full int64 id
    edges = [((u - 10) * 2**40 - 3, (v - 10) * 2**40 - 3) for u, v in er_graph(30, 0.3, seed=57).edges()]
    events = StreamSpec("permutation", edges=edges).realize(58)
    order = TimeIndexedGraph.of(events)
    assert order is not None
    stops = _trace_stops(len(events), 1)
    stored = [StateAtStops(EstimatorSpec("esd", alpha).build(59))]
    _drive(stored, events, stops, Graph(), ExactTracker())
    indexed = [StateAtStops(EstimatorSpec("esd", alpha).build(59))]
    _drive(indexed, events, stops, order)
    assert len(stored[0].states) == len(events)
    assert indexed[0].states == stored[0].states


def test_closings_with_slot_keys_beyond_int32():
    # 16,000 disjoint triangles on 48,000 nodes: n² passes 2^31, so the
    # closing count searches int64 slot keys
    edges = [e for t in range(0, 48_000, 3) for e in ((t, t + 1), (t + 1, t + 2), (t, t + 2))]
    events = StreamSpec("permutation", edges=edges).realize(56)
    order = TimeIndexedGraph.of(events)
    assert len(order.index.nodes) ** 2 > 2**31
    tracker = ExactTracker()
    replay(events, Graph(), (), tracker)
    assert order.closings().tolist() == tracker.h_trace
    assert tracker.count == 16_000


def _run(cfg, monkeypatch, index: bool):
    """``run_experiment(cfg)`` with the arrival index on or off, and how many
    replications the index served.  Off, replication 0's build is off too,
    so every replication replays into a store, replication 0 with the
    tracker."""
    served = []
    of, ordered = TimeIndexedGraph.of, TimeIndexedGraph.ordered

    def spy_of(events):
        out = of(events) if index else None
        served.append(out is not None)
        return out

    def spy(self, events):
        out = ordered(self, events) if index else None
        served.append(out is not None)
        return out

    with monkeypatch.context() as m:
        m.setattr(TimeIndexedGraph, "of", staticmethod(spy_of))
        m.setattr(TimeIndexedGraph, "ordered", spy)
        report, traces = run_experiment(cfg)
    return report, traces, sum(served)


def _same_with_and_without_index(cfg, monkeypatch, tmp_path) -> int:
    """The CSVs are byte-identical with the index on and off; returns the
    number of replications the index served."""
    outputs, served = [], []
    for index in (True, False):
        report, traces, n = _run(cfg, monkeypatch, index)
        out = tmp_path / f"index-{index}.csv"
        emit_csv(report, traces, out)
        outputs.append((out.read_bytes(), trace_path_for(out).read_bytes()))
        served.append(n)
    assert outputs[0] == outputs[1]
    return served[0]


ESTIMATORS = [
    EstimatorSpec("esd", 1.0),
    EstimatorSpec("esd", 0.3, label="esd-small"),
    EstimatorSpec("doulion", 0.5),
    EstimatorSpec("triest", 12),
]


class OnlyRealize:
    """A stream that offers ``realize`` and nothing else."""

    def __init__(self, realize):
        self.realize = realize


def test_a_spec_behind_realize_alone_is_indexed(monkeypatch, tmp_path):
    spec = StreamSpec("permutation", edges=list(er_graph(25, 0.3, seed=40).edges()))
    assert len(spec.realize(0)) == 103
    # the default stride, one that does not divide the 103 events and one
    # past their end, so replication 0's truths total stretches of each shape
    for stride in (None, 10, 104):
        for reps in (1, 5):  # one replication keeps replication 0's index too
            cfg = ExperimentConfig(OnlyRealize(spec.realize), ESTIMATORS, reps, seed=41, trace_stride=stride)
            assert _same_with_and_without_index(cfg, monkeypatch, tmp_path) == reps


def test_fresh_events_each_realization_fall_back(monkeypatch, tmp_path):
    spec = StreamSpec("permutation", edges=list(er_graph(25, 0.3, seed=42).edges()))

    def fresh(seed):
        return [EdgeEvent(ev.u, ev.v, ev.beta) for ev in spec.realize(seed)]

    cfg = ExperimentConfig(OnlyRealize(fresh), ESTIMATORS, replications=4, seed=43)
    # replication 0 is indexed from its own events; the others are other objects
    assert _same_with_and_without_index(cfg, monkeypatch, tmp_path) == 1


def test_events_spec_is_indexed_only_without_deletions(monkeypatch, tmp_path):
    edges = list(er_graph(25, 0.3, seed=44).edges())
    additions = StreamSpec("permutation", edges=edges).realize(45)
    dynamic = StreamSpec("edge-deletion", edges=edges, p_e=0.1, p_d=0.3).realize(47)
    assert any(ev.beta == -1 for ev in dynamic)
    for reps in (1, 4):  # one replication keeps replication 0's index or events too
        cfg = ExperimentConfig(StreamSpec("events", events=additions), ESTIMATORS, replications=reps, seed=46)
        assert _same_with_and_without_index(cfg, monkeypatch, tmp_path) == reps
        cfg = ExperimentConfig(StreamSpec("events", events=dynamic), ESTIMATORS, replications=reps, seed=48)
        assert _same_with_and_without_index(cfg, monkeypatch, tmp_path) == 0


def test_edge_deletion_spec_uses_the_index_on_its_deletion_free_replications(monkeypatch, tmp_path):
    # seed 2 makes replication 0 deletion-free and some later ones not
    stream = dict(kind="edge-deletion", edges=list(er_graph(20, 0.3, seed=27).edges()), p_e=0.012, p_d=0.3)
    reps = 6
    cfg = ExperimentConfig(StreamSpec(**stream), ESTIMATORS, replications=reps, seed=2)
    realized = [StreamSpec(**stream).realize(derive_seed(2, "stream", r)) for r in range(reps)]
    free = [all(ev.beta == 1 for ev in events) for events in realized]
    assert free[0] and not all(free)
    assert _same_with_and_without_index(cfg, monkeypatch, tmp_path) == sum(free) > 1


@pytest.mark.parametrize("edges", [[], [(3, 1)]])
def test_empty_and_one_edge_streams(edges, monkeypatch, tmp_path):
    cfg = ExperimentConfig(StreamSpec("permutation", edges=edges), ESTIMATORS, replications=3, seed=49)
    assert _same_with_and_without_index(cfg, monkeypatch, tmp_path) == 3
    events = StreamSpec("permutation", edges=edges).realize(0)
    assert TimeIndexedGraph.of(events).closings().tolist() == [0] * len(edges)


@pytest.fixture(scope="module")
def numpy_modules_imported():
    """One fresh interpreter runs a permutation and an edge-deletion
    experiment; returns the process and, for ``numpy.ma`` and
    ``numpy.random``, whether the run imported it ("True" or "False")."""
    code = """
import sys
from trisample import EstimatorSpec, ExperimentConfig, StreamSpec, er_graph, run_experiment
edges = list(er_graph(25, 0.3, seed=1).edges())
ests = [EstimatorSpec("esd", 0.5), EstimatorSpec("doulion", 0.5), EstimatorSpec("triest", 20)]
for stream in (
    StreamSpec("permutation", edges=edges),
    StreamSpec("edge-deletion", edges=edges, p_e=0.1, p_d=0.3),
):
    run_experiment(ExperimentConfig(stream, ests, replications=3, seed=2))
for name in ("numpy.ma", "numpy.random"):
    print(name, name in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    return proc, dict(line.split() for line in proc.stdout.splitlines())


def test_runs_do_not_import_numpy_ma(numpy_modules_imported):
    # ``graph._distinct`` stands in for ``np.unique``, whose import of
    # ``numpy.ma`` adds about 0.5 MB to a run's resident memory
    proc, imported = numpy_modules_imported
    assert proc.returncode == 0, proc.stderr
    assert imported["numpy.ma"] == "False"


def test_runs_do_not_import_numpy_random(numpy_modules_imported):
    # the estimators draw from ``random.Random``; creating numpy's MT19937
    # and a Generator adds about 6 MB to a fresh interpreter's resident memory
    proc, imported = numpy_modules_imported
    assert proc.returncode == 0, proc.stderr
    assert imported["numpy.random"] == "False"


def test_node_ids_beyond_int64_keep_the_store(monkeypatch, tmp_path):
    for big in (2**63, 2**64):
        edges = [(big + u, big + v) for u, v in er_graph(15, 0.4, seed=50).edges()]
        cfg = ExperimentConfig(StreamSpec("permutation", edges=edges), ESTIMATORS, replications=3, seed=51)
        assert TimeIndexedGraph.of(StreamSpec("permutation", edges=edges).realize(0)) is None
        assert _same_with_and_without_index(cfg, monkeypatch, tmp_path) == 0


def test_non_integer_node_ids_keep_the_store(monkeypatch, tmp_path):
    # 1.5 and 1.7 would both read as node 1 in an int64 array, closing a
    # triangle that the stream does not hold
    events = [EdgeEvent(1.5, 3, 1), EdgeEvent(1.7, 4, 1), EdgeEvent(3, 4, 1)]
    assert TimeIndexedGraph.of(events) is None
    cfg = ExperimentConfig(StreamSpec("events", events=events), ESTIMATORS, replications=3, seed=57)
    assert _same_with_and_without_index(cfg, monkeypatch, tmp_path) == 0
    assert run_experiment(cfg)[0].truth == 0


def test_duplicate_addition_raises_as_before():
    once = EdgeEvent(1, 2, 1)
    for events, pair in [
        ([EdgeEvent(1, 2, 1), EdgeEvent(2, 3, 1), EdgeEvent(2, 1, 1)], r"\(2, 1\)"),  # one edge twice
        ([once, EdgeEvent(2, 3, 1), once], r"\(1, 2\)"),  # one object twice
    ]:
        assert TimeIndexedGraph.of(events) is None
        cfg = ExperimentConfig(StreamSpec("events", events=events), ESTIMATORS, replications=3, seed=52)
        with pytest.raises(ValueError, match=r"inconsistent stream: duplicate addition " + pair):
            run_experiment(cfg)


def test_a_repeated_or_foreign_object_misses_the_index():
    spec = StreamSpec("permutation", edges=list(er_graph(12, 0.5, seed=53).edges()))
    index = TimeIndexedGraph.of(spec.realize(0)).index
    events = spec.realize(1)
    assert index.ordered(events) is not None
    assert index.ordered(events[:-1]) is None
    assert index.ordered(events[:-1] + events[:1]) is None
    assert index.ordered(events[:-1] + [EdgeEvent(events[-1].u, events[-1].v, 1)]) is None


@settings(max_examples=100, deadline=None)
@given(edges=simple_graphs().filter(lambda edges: len(edges) >= 2), data=st.data())
def test_sorted_ids_prove_an_order_wherever_the_defect_lies(edges, data):
    spec = StreamSpec("permutation", edges=edges)
    index = TimeIndexedGraph.of(spec.realize(0)).index
    events = spec.realize(data.draw(st.integers(1, 2**32)))
    order = index.ordered(events)
    # each slot's arrival is the position of its edge's event
    for a in index.nodes.tolist():
        row, arrival = slots(order, a)
        assert arrival.dtype == np.int32
        for w, t in zip(index.nodes[row].tolist(), arrival.tolist()):
            assert {events[t].u, events[t].v} == {a, w}

    positions = st.integers(0, len(events) - 1)
    gone, twice = data.draw(st.lists(positions, min_size=2, max_size=2, unique=True))
    repeated = list(events)
    repeated[gone] = events[twice]
    assert index.ordered(repeated) is None
    assert TimeIndexedGraph.of(repeated) is None
    foreign = list(events)
    foreign[gone] = EdgeEvent(events[gone].u, events[gone].v, 1)
    assert index.ordered(foreign) is None


def test_hub_rows_match_the_store_on_a_ba_graph():
    # a BA graph's hub has a row far longer than 256, so its probes draw
    # indices with rejection, as the store path does
    edges = sorted(ba_graph(BaConfig(800, 20, 0.2, 3, 1.5, seed=5)).edges())
    spec = StreamSpec("permutation", edges=edges)
    g = Graph.from_edges(edges)
    assert max(g.degree(u) for u in g.nodes()) > 256
    index = TimeIndexedGraph.of(spec.realize(0)).index
    events = spec.realize(1)
    specs = [EstimatorSpec("esd", alpha) for alpha in (0.05, 0.5, 1.0)]
    indexed = [s.build(55 + k) for k, s in enumerate(specs)]
    _drive(indexed, events, [len(events)], index.ordered(events))
    stored = [s.build(55 + k) for k, s in enumerate(specs)]
    replay(events, Graph(), stored)
    assert [state(e) for e in indexed] == [state(e) for e in stored]
