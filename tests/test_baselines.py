import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisample import (
    DoulionEstimator,
    EdgeEvent,
    EsdEstimator,
    EstimatorSpec,
    ExactTracker,
    ExperimentConfig,
    Graph,
    StreamSpec,
    TriestEstimator,
    er_graph,
    exact_triangles,
    replay,
    run_experiment,
)

from trisample import baselines
from trisample.graph import TimeIndexedGraph
from trisample.harness import _drive, _trace_stops

from helpers import (
    DrawWalker,
    ScriptedRng,
    brute_force_triangles,
    complete_graph_edges,
    sorted_edges,
    state,
    toggled,
)
from test_schedule import consistent_streams
from test_time_index import StateAtStops, simple_graphs


def drive(est, events):
    est.skip(events)
    return est


def test_doulion_validation():
    with pytest.raises(ValueError):
        DoulionEstimator(-0.1)
    with pytest.raises(ValueError):
        DoulionEstimator(1.1)
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\], got nan"):
        DoulionEstimator(float("nan"))


def test_doulion_p_one_mirrors_graph_exactly():
    base = er_graph(30, 0.3, seed=1)
    events = StreamSpec("edge-deletion", edges=list(base.edges()), p_e=0.05, p_d=0.3).realize(2)
    est = DoulionEstimator(1.0, seed=3)
    unused = est.rng.getstate()
    drive(est, events)
    g = Graph()
    replay(events, g)
    assert sorted_edges(est.sample) == sorted_edges(g)
    assert est.estimate() == exact_triangles(g)
    assert est.edges_sampled == sum(ev.beta == 1 for ev in events)  # every addition is kept
    assert est.rng.getstate() == unused  # every gap is 0, and none is drawn


def test_doulion_p_zero_always_zero():
    # no addition is ever kept, so the countdown never runs out and nothing
    # is drawn, on the store and over the arrival order alike
    events = StreamSpec("permutation", edges=complete_graph_edges(5)).realize(4)
    order = TimeIndexedGraph.of(events)
    stored, indexed = DoulionEstimator(0.0, seed=5), DoulionEstimator(0.0, seed=5)
    unused = stored.rng.getstate()
    drive(stored, events)
    indexed.run(events, 0, len(events), order)
    for est in (stored, indexed):
        assert est.estimate() == 0.0
        assert est.edges_sampled == 0
        assert est.rng.getstate() == unused


@pytest.mark.parametrize("p", [0.01, 0.3, 0.7])
def test_doulion_gap_tail_is_geometric(p):
    # G = floor(ln U / log1p(-p)) with U = 1 - r is at least g exactly when
    # U <= (1 - p)^g, so P(G >= g) = (1 - p)^g: an r just below 1 - (1 - p)^g
    # gives g - 1 and one just above gives g, for every g whose tail a
    # float r can still straddle
    est = DoulionEstimator(p)
    for g in range(1, 31):
        tail = (1 - p) ** g
        if tail < 1e-9:
            break
        est.rng = ScriptedRng([1 - tail * (1 + 1e-6), 1 - tail * (1 - 1e-6)])
        assert (est._draw_gap(), est._draw_gap()) == (g - 1, g)


def test_doulion_gap_too_large_for_a_float_never_runs_out():
    # ln U / log1p(-p) overflows for a p below about 1e-307: the countdown
    # is then one that never reaches 0, as at p = 0
    est = DoulionEstimator(5e-324, seed=1)
    assert est._gap == math.inf
    drive(est, [EdgeEvent(0, 1, 1), EdgeEvent(1, 2, 1)])
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
    est, start = DoulionEstimator(0.6, seed=8), 0
    for stop in _trace_stops(len(events), 1000):
        est.skip(events[start:stop])
        assert est.tri_in_sample == exact_triangles(est.sample)
        start = stop


def test_doulion_deletion_of_unsampled_edge_noop():
    events = [EdgeEvent(1, 2, 1), EdgeEvent(1, 2, -1), EdgeEvent(3, 4, -1)]
    est = drive(DoulionEstimator(0.0, seed=9), events)
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
    replay(events, g)
    assert est.estimate() == exact_triangles(g)
    assert sorted_edges(est.sample) == sorted_edges(g)


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
    est, start = TriestEstimator(60, seed=21), 0
    for stop in _trace_stops(len(events), 1000):
        est.skip(events[start:stop])
        assert est.tau == exact_triangles(est.sample)
        assert est.edges_sampled <= 60
        start = stop


@settings(max_examples=200, deadline=None)
@given(events=consistent_streams(), capacity=st.sampled_from([1, 3, 10, 10_000]), seed=st.integers(0, 2**32))
def test_triest_read_after_every_event_ends_where_an_unread_one_does(events, capacity, seed):
    # tau and the sample graph are settled once per call, so the unread
    # estimator, fed the whole stream in one ``skip``, settles every net
    # change at once, re-added edges included, and must end where the one
    # fed and read event by event does
    read, unread = TriestEstimator(capacity, seed=seed), TriestEstimator(capacity, seed=seed)
    for k in range(len(events)):
        read.skip(events[k : k + 1])
        read.estimate()
        sample = read.sample
        assert read.tau == exact_triangles(sample)
        assert sorted(sample.edges()) == sorted(read._edges)
    assert unread.skip(events) == len(events)
    assert state(unread) == state(read)


def count_sample_graph_calls(monkeypatch) -> dict:
    """Patch into ``baselines`` a graph that counts its inserts, deletes and
    neighbor-list reads; returns the counts."""
    calls = {"add_edge": 0, "delete_edge": 0, "adjacency": 0}

    class CountingGraph(Graph):
        def add_edge(self, u, v):
            calls["add_edge"] += 1
            return super().add_edge(u, v)

        def delete_edge(self, u, v):
            calls["delete_edge"] += 1
            return super().delete_edge(u, v)

        def adjacency(self, u):
            calls["adjacency"] += 1
            return super().adjacency(u)

    monkeypatch.setattr(baselines, "Graph", CountingGraph)
    return calls


def test_indexed_triest_pass_builds_only_the_final_sample(monkeypatch):
    # a reservoir mutation only moves slots, so one untraced indexed pass
    # settles the final reservoir's inserts, and no delete, before it
    # returns, and the read after it touches the sample graph no more
    calls = count_sample_graph_calls(monkeypatch)
    events = StreamSpec("permutation", edges=list(er_graph(60, 0.3, seed=63).edges())).realize(64)
    order = TimeIndexedGraph.of(events)
    m, cap = len(events), 10
    est = TriestEstimator(cap, seed=65)
    est.run(events, 0, m, order)
    assert (calls["add_edge"], calls["delete_edge"]) == (cap, 0)  # the reservoir is full
    assert not est._pending
    settled = dict(calls)
    est.estimate()
    tau, sample = est.tau, est.sample
    assert calls == settled
    assert tau == exact_triangles(sample)


@pytest.mark.parametrize("feed", ["store", "indexed", "per-event"])
def test_triest_reads_do_no_work(monkeypatch, feed):
    # every call that feeds events settles the reservoir before it returns,
    # so reading estimate(), tau and sample afterwards makes no graph call
    calls = count_sample_graph_calls(monkeypatch)
    edges = list(er_graph(40, 0.3, seed=66).edges())
    if feed == "indexed":
        events = StreamSpec("permutation", edges=edges).realize(67)
        order = TimeIndexedGraph.of(events)
    else:
        events = StreamSpec("edge-deletion", edges=edges, p_e=0.05, p_d=0.25).realize(67)
    est, start = TriestEstimator(20, seed=68), 0
    for stop in _trace_stops(len(events), 1 if feed == "per-event" else 7):
        if feed == "indexed":
            est.run(events, start, stop, order)
        else:
            est.skip(events[start:stop])
        start = stop
        assert not est._pending
        settled = dict(calls)
        est.estimate()
        tau, sample = est.tau, est.sample
        assert calls == settled
        assert tau == exact_triangles(sample)
    assert calls["add_edge"] > 0


@settings(max_examples=200, deadline=None)
@given(
    edges=simple_graphs(),
    capacity=st.integers(1, 3),
    seeds=st.lists(st.integers(0, 2**32), min_size=2, max_size=2),
)
def test_indexed_triest_reconciles_each_slot_once_per_stretch(edges, capacity, seeds):
    # over the index a won coin only notes its slot's last occupant, and the
    # slot is replaced once, at the stop; at every stop the state, RNG
    # included, is that of an estimator fed every event
    events = StreamSpec("permutation", edges=edges).realize(seeds[0])
    order = TimeIndexedGraph.of(events)
    for stride in (1, 3):
        stops = _trace_stops(len(events), stride)
        fed, states, start = TriestEstimator(capacity, seed=seeds[1]), [], 0
        for stop in stops:
            for k in range(start, stop):
                fed.skip(events[k : k + 1])
            states.append(state(fed))
            start = stop
        indexed = StateAtStops(TriestEstimator(capacity, seed=seeds[1]))
        _drive([indexed], events, stops, order)
        assert indexed.states == states


def test_triest_sample_holds_only_the_nodes_of_its_edges():
    # evicted edges take their emptied endpoints with them, so the reservoir
    # graph stays O(capacity) however many nodes the stream visits
    base = er_graph(300, 0.05, seed=24)
    est = drive(TriestEstimator(40, seed=24), StreamSpec("permutation", edges=list(base.edges())).realize(24))
    assert est.edges_sampled == 40
    assert est.sample.node_count <= 2 * 40


def test_triest_estimate_scaling_formula():
    events = [EdgeEvent(u, v, 1) for u, v in complete_graph_edges(5)]
    est = drive(TriestEstimator(5, seed=22), events)  # 10 edges through a size-5 reservoir
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
    for k in range(len(events)):
        est.skip(events[k : k + 1])
        assert est.c_bad >= 0 and est.c_good >= 0
        assert est.edges_sampled <= 10


def _kappa(s, d, capacity):
    """TRIÈST-FD's kappa from its definition, in exact arithmetic."""
    w = min(capacity, s + d)
    tail = sum(
        Fraction(math.comb(s, j) * math.comb(d, w - j), math.comb(s + d, w))
        for j in range(3)
        if w - j >= 0
    )
    return 1 - tail


@pytest.mark.parametrize(
    "capacity,live,c_bad,c_good",
    [
        (5, 10, 0, 0),  # no debts: 1
        (5, 2, 0, 0),  # w = 2 live edges at most: 0
        (5, 3, 1, 1),
        (5, 2, 3, 4),  # fewer than 3 live edges: 0
        (25, 40, 7, 12),
        (25, 3, 40, 0),  # a rare full draw of the 3 live edges
        (60, 150, 20, 55),
        (976, 14_000, 900, 4_100),  # dynfan-ba2k's scale
        (1995, 190_000, 9_000, 6_000),
        (3, 3, 10**6, 0),  # kappa = 1 / C(10**6 + 3, 3)
        (976, 1_000, 10**6, 0),  # kappa < 1/2, summed over j >= 3
    ],
)
def test_triest_kappa_matches_its_definition_on_debt_states(capacity, live, c_bad, c_good):
    est = TriestEstimator(capacity)
    est._live, est.c_bad, est.c_good = live, c_bad, c_good
    exact = _kappa(live, c_bad + c_good, capacity)
    assert est.kappa() == pytest.approx(float(exact), rel=1e-8, abs=0.0)
    if c_bad + c_good == 0 and min(capacity, live) >= 3:
        assert est.kappa() == 1.0


def test_triest_estimate_is_zero_below_three_sampled_edges():
    events = [EdgeEvent(0, 1, 1), EdgeEvent(1, 2, 1), EdgeEvent(0, 2, 1), EdgeEvent(0, 2, -1)]
    est = drive(TriestEstimator(10, seed=1), events)
    assert est.edges_sampled == 2 and est.estimate() == 0.0


# A deletion-heavy stream: 70 additions and 23 deletions of ER(18, 0.5),
# whose truth rises to 19 and falls to 2 on the way.
DELETION_HEAVY = dict(
    kind="edge-deletion", edges=list(er_graph(18, 0.5, seed=3).edges()), p_e=0.04, p_d=0.4
)


def test_mid_stream_means_match_the_tracker_on_a_deletion_heavy_stream():
    # Thousands of estimators ride one stop loop, so the store and the tracker
    # are built once; each estimator kind's mean at every trace point must
    # sit within 4 standard errors of the tracker's count.  A TRIÈST whose
    # coin counts every addition ever made and whose estimate has no kappa
    # fails at event 50, with a mean of 8.73 against 9 (z = -10).
    events = StreamSpec(**DELETION_HEAVY).realize(4)
    assert (len(events), sum(ev.beta == -1 for ev in events)) == (93, 23)
    n = 3000
    kinds = {
        "triest": [TriestEstimator(25, seed=s) for s in range(n)],
        "doulion": [DoulionEstimator(0.5, seed=s) for s in range(n)],
        "esd": [EsdEstimator(0.3, seed=s) for s in range(n)],
    }
    ests = [est for group in kinds.values() for est in group]
    stops = _trace_stops(len(events), 10)
    rows, truths = _drive(ests, events, stops, Graph(), ExactTracker())
    assert max(truths) == 19
    for position, truth, estimates in zip(stops, truths, rows.tolist()):
        for k, name in enumerate(kinds):
            xs = estimates[k * n : (k + 1) * n]
            mean = statistics.fmean(xs)
            se = statistics.stdev(xs) / math.sqrt(n)
            if se == 0.0:  # every estimate is exact (no triangle can be seen yet)
                assert mean == truth, (name, position)
            else:
                assert abs(mean - truth) <= 4 * se, (name, position, mean, truth, se)


# Small consistent streams, as pairs to toggle: deletions and re-adds
WALKED = {
    "readd-in-triangles": [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 1), (2, 3), (0, 1), (1, 2), (1, 2)],
    "delete-under-a-full-reservoir": [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 3), (0, 2), (2, 4), (0, 4), (0, 2)],
}
# K6's edges, each node's edges to the nodes before it in turn: K4 is whole
# after six
COLEX = [(u, v) for v in range(6) for u in range(v)]


def debt_pairs(capacity: int) -> list:
    """capacity + 3 additions, the last three drawing coins against
    capacity/s; four deletions, which leave kappa below 1; two re-adds, each
    paying a debt on a coin; and one new addition."""
    adds = COLEX[: capacity + 3]
    return adds + adds[1:5] + adds[1:3] + [COLEX[capacity + 3]]


def expected_at_every_prefix(make, events, capacity=None, order=None) -> list:
    """E[estimate] after each event, fed one at a time through ``skip``, or
    through ``run`` over the arrival order ``order`` when one is given,
    exactly: the weighted mean over every draw path of the estimator
    ``make()`` builds, with ``DrawWalker`` as its rng.  Doulion's gaps are
    walked by ``DrawWalker.gap``, and its first gap, drawn by the
    constructor from the seed, is drawn again from the walker."""
    adds = sum(ev.beta == 1 for ev in events)

    def run(rng):
        est = make()
        est.rng = rng
        if isinstance(est, DoulionEstimator):
            est._draw_gap = lambda: rng.gap(est.p, adds)
            est._gap = est._draw_gap()
        estimates = []
        for k in range(len(events)):
            if order is None:
                est.skip(events[k : k + 1])
            else:
                est.run(events, k, k + 1, order)
            estimates.append(est.estimate())
        return estimates

    paths = DrawWalker(capacity).walk(run)
    return [math.fsum(w * estimates[k] for w, estimates in paths) for k in range(len(events))]


def truths_at_every_prefix(events) -> list:
    g = Graph()
    truths = []
    for ev in events:
        (g.add_edge if ev.beta == 1 else g.delete_edge)(ev.u, ev.v)
        truths.append(brute_force_triangles(g))
    return truths


@pytest.mark.parametrize("pairs", WALKED.values(), ids=WALKED)
@pytest.mark.parametrize("p", [0.3, 0.7])
def test_doulion_expectation_is_the_truth_at_every_prefix(p, pairs):
    events = toggled(pairs)
    assert any(ev.beta == -1 for ev in events)
    expected = expected_at_every_prefix(lambda: DoulionEstimator(p), events)
    assert expected == pytest.approx(truths_at_every_prefix(events), abs=1e-9)


@pytest.mark.parametrize("stream", ["debts", *WALKED])
@pytest.mark.parametrize("capacity", [3, 4, 5, 6])
def test_triest_expectation_is_the_truth_at_every_prefix(capacity, stream):
    # random pairing is exactly unbiased only with kappa, which the debts
    # left by deletions move below 1
    events = toggled(debt_pairs(capacity) if stream == "debts" else WALKED[stream])
    expected = expected_at_every_prefix(lambda: TriestEstimator(capacity), events, capacity)
    assert expected == pytest.approx(truths_at_every_prefix(events), abs=1e-9)


@pytest.mark.parametrize(
    "make, capacity",
    [(lambda: DoulionEstimator(0.3), None), (lambda: TriestEstimator(3), 3), (lambda: TriestEstimator(4), 4)],
    ids=["doulion-0.3", "triest-3", "triest-4"],
)
def test_run_over_the_arrival_order_has_the_same_expectation(make, capacity):
    # TRIÈST's run compares one coin against two bounds, which the walked
    # coin's interval resolves as one draw
    events = toggled(COLEX[:8])
    order = TimeIndexedGraph.of(events)
    assert order is not None
    expected = expected_at_every_prefix(make, events, capacity, order)
    assert expected == pytest.approx(truths_at_every_prefix(events), abs=1e-9)


class Unread:
    """A stand-in event that fails when any of its fields is read."""

    __slots__ = ()

    def __getattr__(self, name):
        raise AssertionError(f"read .{name} of an event the estimator does not act on")


def recording(est, picks: dict) -> dict:
    """What each call made to ``est``'s methods named in ``picks`` is
    handed, as ``picks[name]`` reads it from the call's arguments, per name
    in call order.  A method ``est`` lacks is never called, and no stand-in
    is added for it."""
    calls = {name: [] for name in picks}

    def wrap(method, pick, into):
        def recorded(*args):
            into.append(pick(*args))
            return method(*args)

        return recorded

    for name, pick in picks.items():
        method = getattr(est, name, None)
        if method is not None:
            setattr(est, name, wrap(method, pick, calls[name]))
    return calls


# where each estimator applies an edge on the store, read from the call's
# arguments as an unordered pair
DOULION_APPLIES = {"_apply": lambda ev: frozenset((ev.u, ev.v))}
TRIEST_APPLIES = {"_insert": frozenset, "_replace": lambda j, e: frozenset(e), "_remove": frozenset}
ESD_APPLIES = {"step": lambda events, i, nu, nv: frozenset((events[i].u, events[i].v))}
# the stretch each protocol call covers: a store call's list is its
# stretch, and a ``step`` covers one position of it
STRETCHES = {
    "skip": len,
    "step": lambda events, i, nu, nv: i,
    "run": lambda events, start, stop, order: (start, stop),
}


@pytest.mark.parametrize(
    "make,picks",
    [
        (lambda: DoulionEstimator(0.3, seed=61), DOULION_APPLIES),
        (lambda: TriestEstimator(10, seed=61), TRIEST_APPLIES),
        (lambda: TriestEstimator(1, seed=61), TRIEST_APPLIES),
        (lambda: EsdEstimator(0.3, seed=61), ESD_APPLIES),
    ],
    ids=["doulion", "triest-10", "triest-1", "esd"],
)
def test_indexed_skip_reads_only_the_events_acted_on(make, picks):
    # an ArrivalOrder's stream holds no deletion, so a coin needs no event:
    # every position the estimator does not act on is a stand-in that fails
    # when read, and the pass must end where the one over the real events
    # does, which ends where a store replay does.  The positions acted on
    # are those of the edges a store replay applies: ESD's ``step``, and
    # the sample updates of the baselines, whose ``skip`` applies them;
    # each edge arrives once in a permutation, at one position
    events = StreamSpec("permutation", edges=list(er_graph(30, 0.3, seed=60).edges())).realize(62)
    order = TimeIndexedGraph.of(events)
    m = len(events)
    stored = make()
    applied = recording(stored, picks)
    replay(events, Graph(), [stored])
    position = {frozenset((ev.u, ev.v)): k for k, ev in enumerate(events)}
    acts = [position[e] for edges in applied.values() for e in edges]
    ref = make()
    _drive([ref], events, [m], order)
    assert state(ref) == state(stored)
    read = set(acts)
    assert len(read) < m / 2
    est = make()
    _drive([est], [ev if k in read else Unread() for k, ev in enumerate(events)], [m], order)
    assert state(est) == state(ref)


def test_indexed_drive_runs_each_estimator_once_per_stretch():
    # on the store every estimator gets one ``skip`` per stretch, over the
    # stretch's own events; only ESD has a ``step``, and it acts on several
    # events of some stretch, while a baseline's ``skip`` applies its whole
    # stretch.  Over the index each estimator gets one ``run`` call per
    # stretch and never a ``skip`` or ``step``, and every row and state is
    # the store's
    events = StreamSpec("permutation", edges=list(er_graph(30, 0.3, seed=66).edges())).realize(67)
    order = TimeIndexedGraph.of(events)
    stops = _trace_stops(len(events), 7)
    makes = [
        lambda: EsdEstimator(0.5, seed=68),
        lambda: DoulionEstimator(0.5, seed=68),
        lambda: TriestEstimator(3, seed=68),
    ]
    stored = [make() for make in makes]
    stored_calls = [recording(est, STRETCHES) for est in stored]
    rows, _ = _drive(stored, events, stops, Graph(), ExactTracker())
    indexed = [make() for make in makes]
    indexed_calls = [recording(est, STRETCHES) for est in indexed]
    assert _drive(indexed, events, stops, order)[0].tolist() == rows.tolist()
    assert [state(est) for est in indexed] == [state(est) for est in stored]
    stretches = list(zip([0, *stops], stops))
    for calls in indexed_calls:
        assert calls == {"skip": [], "step": [], "run": stretches}
    assert [calls["skip"] for calls in stored_calls] == [[stop - start for start, stop in stretches]] * 3
    steps, *baseline_steps = [calls["step"] for calls in stored_calls]
    assert baseline_steps == [[], []]
    assert len(steps) > len(stops)  # so some stretch holds several
