import math
import random
import statistics
from bisect import bisect_left
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

import trisample
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
    triangles_of_edge,
)

from helpers import ScriptedRng, complete_graph_edges, replay, state
from test_schedule import consistent_streams


def test_constructor_validation():
    with pytest.raises(ValueError):
        EsdEstimator(0.0)
    with pytest.raises(ValueError):
        EsdEstimator(1.1)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\], got nan"):
        EsdEstimator(float("nan"))
    with pytest.raises(ValueError):
        EsdEstimator(0.5, mode="batch")
    assert EsdEstimator(1.0).estimate() == 0.0


@pytest.mark.parametrize("missing", ["random", "getrandbits"])
def test_constructor_names_the_rng_method_it_lacks(missing):
    # the probe draws from getrandbits, so an rng offering only the
    # randrange of the old contract is refused before any event
    methods = {"random": random.random, "getrandbits": random.getrandbits, "randrange": random.randrange}
    del methods[missing]
    with pytest.raises(TypeError, match=rf"{missing}\(\)"):
        EsdEstimator(0.5, rng=SimpleNamespace(**methods))


def test_alpha_is_fixed_after_construction():
    est = EsdEstimator(0.3)
    with pytest.raises(AttributeError):
        est.alpha = 0.5


def test_t_est_is_a_read_only_alias_of_the_estimate():
    est = EsdEstimator(0.3)
    est.s = 7
    assert est.t_est == est.estimate() == 0.5 * 7 / 0.3
    with pytest.raises(AttributeError):
        est.t_est = 1.0


def test_mode_weights():
    assert EsdEstimator(0.5).omega == 0.5
    assert EsdEstimator(0.5, mode="static").omega == pytest.approx(1 / 6)


def test_coin_failure_leaves_estimate_unchanged():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    est = EsdEstimator(0.5, rng=ScriptedRng(randoms=[0.9]))
    est.process_event(EdgeEvent(1, 3, 1), g)
    assert est.estimate() == 0.0
    assert est.edges_sampled == 0


def test_isolated_new_edge_fails_both_guards():
    g = Graph.from_edges([(7, 8)])
    est = EsdEstimator(0.5, rng=ScriptedRng(randoms=[0.1]))
    est.process_event(EdgeEvent(7, 8, 1), g)
    assert est.estimate() == 0.0
    assert est.edges_sampled == 1


def test_worked_addition_example():
    # wedge 1-2-3 closed by (1, 3): each endpoint has the apex as its only
    # candidate, so both directions hit and each adds 0.5*(2-1)/0.5 = 1
    g = Graph.from_edges([(1, 2), (2, 3)])
    g.add_edge(1, 3)
    est = EsdEstimator(0.5, rng=ScriptedRng(randoms=[0.2], randranges=[0, 0]))
    est.process_event(EdgeEvent(1, 3, 1), g)
    assert est.estimate() == pytest.approx(2.0)


def step_one(est, ev, g) -> None:
    """Apply one sampled event through ``step``, which then has no coin to
    draw ahead."""
    assert est.step((ev,), 0, g.adjacency(ev.u), g.adjacency(ev.v)) == 1


def test_step_addition_increment_scale():
    # d(u)=5 after insert, alpha=0.01, closing node found: +0.5*4/0.01 = 200
    g = Graph.from_edges([(0, 9), (0, 2), (0, 3), (0, 4), (0, 5), (9, 2), (9, 7)])
    rng = ScriptedRng(randranges=[0, 1])
    est = EsdEstimator(0.01, rng=rng)
    # candidates of 0 excluding 9 are [2,3,4,5]; scripted pick lands on 2,
    # which is a neighbor of 9; 9's probe picks 7 from [2, 7], which is not
    # a neighbor of 0
    step_one(est, EdgeEvent(0, 9, 1), g)
    assert est.estimate() == pytest.approx(200.0)
    assert rng._randranges == []


def test_step_deletion_decrement_scale():
    # d(u)=4 after delete, alpha=0.1, closing node found: -0.5*4/0.1 = -20
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (1, 9), (8, 9)])
    g.add_edge(0, 9)
    g.delete_edge(0, 9)
    rng = ScriptedRng(randranges=[0, 1])
    est = EsdEstimator(0.1, rng=rng)
    # Γ(0) = [1,2,3,4]; pick 1, which is a neighbor of 9; 9's probe picks 8
    # from [1, 8], which is not a neighbor of 0
    step_one(est, EdgeEvent(0, 9, -1), g)
    assert est.estimate() == pytest.approx(-20.0)
    assert rng._randranges == []


def test_step_deletion_empty_neighborhood_noop():
    g = Graph.from_edges([(1, 2)])
    g.delete_edge(1, 2)
    est = EsdEstimator(0.5, rng=ScriptedRng())
    step_one(est, EdgeEvent(1, 2, -1), g)
    assert est.estimate() == 0.0


@pytest.mark.parametrize("d", [1, 2, 255, 256, 257, 4096, 4097])
def test_probe_picks_the_candidate_randrange_draws(d):
    # Γ(0)∖{v} holds d candidates with v's slot in their middle, and one
    # candidate, the target, is also a neighbor of v: 0's probe moves the
    # estimate exactly when randrange(d) lands on it, and the draws leave
    # the rng where randrange leaves it (a d of 2**m or 2**m + 1 rejects
    # about half of its draws).  v's probe then has the target as its one
    # candidate, which closes, so it adds 0.5 and draws randrange(1)
    v = d // 2 + 1
    cands = [x for x in range(1, d + 2) if x != v]
    g = Graph.from_edges([(0, x) for x in range(1, d + 2)])
    hits = 0
    for seed in range(200):
        ref = random.Random(seed)
        pick = ref.randrange(d)
        ref.randrange(1)
        target = (pick + seed % 2) % d  # the pick on even seeds, its successor on odd ones
        g.add_edge(v, cands[target])
        est = EsdEstimator(1.0, rng=random.Random(seed))
        step_one(est, EdgeEvent(0, v, 1), g)
        g.delete_edge(v, cands[target])
        assert est.estimate() == (0.5 * d if pick == target else 0.0) + 0.5
        assert est.rng.getstate() == ref.getstate()
        hits += pick == target
    assert hits == (200 if d == 1 else 100)


def neighbors_around(n, offset):
    """n neighbors for node 20 or 21: about half below 20 and the rest
    above 21, so the other endpoint's slot sits inside the list."""
    low = n // 2
    return [offset + 2 * k for k in range(low)] + [40 + offset + 2 * k for k in range(n - low)]


@pytest.mark.parametrize("n_u, n_v", [(3, 6), (6, 3), (4, 4), (5, 5)])
@pytest.mark.parametrize("beta, present", [(1, False), (1, True), (-1, True), (-1, False)])
def test_step_presence_test_matches_randrange_picks(n_u, n_v, beta, present):
    # step tests once whether (u, v) is in the store, by bisecting Γ(u),
    # here shorter than, longer than or as long as Γ(v), and then probes
    # both endpoints.  Fed before or after the store applies an
    # addition or a deletion, each probe must pick what randrange(d) picks
    # from Γ(a)∖{b}, move the estimate by the same increments and leave the
    # rng where randrange leaves it, for picks just below, at and above b's
    # slot s in Γ(a)
    u, v = 20, 21
    nbrs = {u: neighbors_around(n_u, 0), v: neighbors_around(n_v, 2)}
    g = Graph.from_edges([(a, w) for a in (u, v) for w in nbrs[a]] + [(u, v)] * present)
    slot = {a: bisect_left(g.adjacency(a), b) for a, b in ((u, v), (v, u))}
    seen = {u: set(), v: set()}
    closes = set()
    for seed in range(300):
        ref = random.Random(seed)
        t_est = 0.0
        for a, b in ((u, v), (v, u)):
            cands = [w for w in g.adjacency(a) if w != b]
            j = ref.randrange(len(cands))
            seen[a].add(j - slot[a])
            closed = g.has_edge(cands[j], b)
            closes.add(closed)
            if closed:
                t_est += beta * 0.5 * len(cands) / 1.0
        est = EsdEstimator(1.0, rng=random.Random(seed))
        step_one(est, EdgeEvent(u, v, beta), g)
        assert est.t_est == t_est
        assert est.rng.getstate() == ref.getstate()
        assert est.edges_sampled == 1
    assert all({-1, 0, 1} <= seen[a] for a in (u, v))
    assert closes == {False, True}


class ReadRecordingGraph(Graph):
    """A store that records every node whose neighbor list is asked for."""

    def __init__(self):
        super().__init__()
        self.read = []

    def adjacency(self, u):
        self.read.append(u)
        return super().adjacency(u)


def test_step_on_lists_before_or_after_the_event():
    # Γ(a)∖{b} is the same set whether or not the store holds (u, v), so
    # over an edge-deletion stream an ESD handed the endpoints' lists before
    # the store applies each event (the edge absent for an addition,
    # present for a deletion) ends where its twin handed them after does,
    # its draws included
    edges = list(er_graph(30, 0.3, seed=36).edges())
    events = StreamSpec("edge-deletion", edges=edges, p_e=0.05, p_d=0.3).realize(37)
    assert any(ev.beta == -1 for ev in events)
    g = Graph()
    before, after = EsdEstimator(1.0, seed=38), EsdEstimator(1.0, seed=38)
    for ev in events:
        assert before.step((ev,), 0, g.adjacency(ev.u), g.adjacency(ev.v)) == 1
        replay([ev], g)
        assert after.step((ev,), 0, g.adjacency(ev.u), g.adjacency(ev.v)) == 1
    assert before.t_est == after.t_est != 0.0
    assert before.rng.getstate() == after.rng.getstate()


def test_replay_fetches_each_events_lists_once():
    # every ESD due at an event is handed the one pair of lists the replay
    # reads there, Γ(u) then Γ(v): two reads per event where any step runs,
    # however many are due, and each ESD ends where a replay of it alone
    # ends
    edges = list(er_graph(30, 0.3, seed=36).edges())
    events = StreamSpec("edge-deletion", edges=edges, p_e=0.05, p_d=0.3).realize(37)
    assert any(ev.beta == -1 for ev in events)
    seeds = range(40, 48)
    ests = [EsdEstimator(0.5, seed=seed) for seed in seeds]
    stepped = []
    for est in ests:

        def recording(events, i, nu, nv, step=est.step):
            stepped.append(i)
            return step(events, i, nu, nv)

        est.step = recording
    g = ReadRecordingGraph()
    trisample.replay(events, g, ests)
    acted = sorted(set(stepped))
    assert len(stepped) > len(acted)  # some event had several steps due
    assert g.read == [w for i in acted for w in (events[i].u, events[i].v)]
    refs = [EsdEstimator(0.5, seed=seed) for seed in seeds]
    for ref in refs:
        trisample.replay(events, Graph(), [ref])
    assert [state(est) for est in ests] == [state(ref) for ref in refs]


def test_add_then_delete_same_closing_edge_nets_zero():
    # triangle 1-2-3 plus pendant 4 on node 1; closing edge (2, 3) has a
    # single candidate in both directions, so the walk is deterministic
    g = Graph.from_edges([(1, 2), (1, 3), (1, 4)])
    est = EsdEstimator(1.0, rng=ScriptedRng(randoms=[0.5, 0.5], randranges=[0, 0, 0, 0]))
    g.add_edge(2, 3)
    est.process_event(EdgeEvent(2, 3, 1), g)
    assert est.estimate() == pytest.approx(1.0)
    g.delete_edge(2, 3)
    est.process_event(EdgeEvent(2, 3, -1), g)
    assert est.estimate() == pytest.approx(0.0)


def expected_event_increment(g, u, v, beta, mode="dynamic"):
    """Branch enumeration at alpha=1: run ``step`` once per pair of picks,
    one from Γ(u)∖{v} and one from Γ(v)∖{u}, and average the increments.
    An endpoint with no candidate draws no pick."""
    n_u = sum(w != v for w in g.adjacency(u))
    n_v = sum(w != u for w in g.adjacency(v))
    picks_u = range(n_u) if n_u else [None]
    picks_v = range(n_v) if n_v else [None]
    total = 0.0
    for j_u in picks_u:
        for j_v in picks_v:
            rng = ScriptedRng(randranges=[j for j in (j_u, j_v) if j is not None])
            est = EsdEstimator(1.0, mode=mode, rng=rng)
            step_one(est, EdgeEvent(u, v, beta), g)
            assert rng._randranges == []
            total += est.t_est
    return total / (len(picks_u) * len(picks_v))


def test_expected_increment_equals_edge_triangle_count():
    # on every event of a small dynamic stream the mean over all sampling
    # branches must equal the change in the exact count (sign included),
    # whether the graph is read before or after the event is applied
    rng = random.Random(13)
    g = Graph()
    present = set()
    checked = 0
    for _ in range(400):
        if present and rng.random() < 0.4:
            u, v = rng.choice(sorted(present))
            beta = -1
        else:
            u, v = rng.randrange(6), rng.randrange(6)
            if u == v or g.has_edge(u, v):
                continue
            beta = 1
        h = triangles_of_edge(g, u, v)
        before = expected_event_increment(g, u, v, beta)
        if beta == 1:
            g.add_edge(u, v)
            present.add((min(u, v), max(u, v)))
        else:
            g.delete_edge(u, v)
            present.discard((u, v))
        after = expected_event_increment(g, u, v, beta)
        assert before == pytest.approx(beta * h, abs=1e-12)
        assert after == pytest.approx(beta * h, abs=1e-12)
        checked += 1
    assert checked > 100


@settings(max_examples=100, deadline=None)
@given(events=consistent_streams())
def test_expected_increment_equals_edge_triangle_count_on_random_streams(events):
    # the same on every event of a random consistent stream, with h counted
    # before the store applies the event
    g = Graph()
    for ev in events:
        h = triangles_of_edge(g, ev.u, ev.v)
        before = expected_event_increment(g, ev.u, ev.v, ev.beta)
        replay([ev], g)
        after = expected_event_increment(g, ev.u, ev.v, ev.beta)
        assert before == pytest.approx(ev.beta * h, abs=1e-12)
        assert after == pytest.approx(ev.beta * h, abs=1e-12)


def test_static_expected_increment_is_third_of_edge_count():
    g = er_graph(6, 0.8, seed=14)
    for u, v in g.edges():
        h = triangles_of_edge(g, u, v)
        exp = expected_event_increment(g, u, v, 1, mode="static")
        assert exp == pytest.approx(h / 3, rel=1e-12, abs=1e-12)


def test_static_k3_is_exact():
    g = Graph.from_edges(complete_graph_edges(3))
    for seed in range(5):
        est = EsdEstimator(1.0, mode="static", seed=seed)
        for ev in StreamSpec("permutation", edges=list(g.edges())).realize(seed):
            est.process_event(ev, g)
        assert est.estimate() == pytest.approx(1.0)


def test_static_star_is_zero():
    g = Graph.from_edges([(0, i) for i in range(1, 8)])
    est = EsdEstimator(1.0, mode="static", seed=3)
    for u, v in g.edges():
        est.process_event(EdgeEvent(u, v, 1), g)
    assert est.estimate() == 0.0


def test_static_k4_unbiased():
    g = Graph.from_edges(complete_graph_edges(4))
    stream = StreamSpec("permutation", edges=list(g.edges()))
    finals = []
    for seed in range(10_000):
        est = EsdEstimator(1.0, mode="static", seed=seed)
        for ev in stream.realize(seed + 1_000_000):
            est.process_event(ev, g)
        finals.append(est.estimate())
    mean = statistics.fmean(finals)
    se = statistics.stdev(finals) / math.sqrt(len(finals))
    assert abs(mean - 4.0) <= 3 * max(se, 1e-12)


def test_static_mode_guards():
    g = Graph.from_edges([(1, 2)])
    est = EsdEstimator(0.5, mode="static", seed=0)
    with pytest.raises(ValueError):
        est.process_event(EdgeEvent(1, 3, 1), g)  # edge not in graph
    with pytest.raises(ValueError):
        est.process_event(EdgeEvent(1, 2, -1), g)  # a deletion
    est.process_event(EdgeEvent(1, 2, 1), g)


def run_additions(events, alpha, seed):
    est = EsdEstimator(alpha, seed=seed)
    trisample.replay(events, Graph(), [est])
    return est


def test_unbiased_on_addition_stream():
    g = er_graph(60, 0.3, seed=15)
    truth = exact_triangles(g)
    finals = []
    r = 400
    stream = StreamSpec("permutation", edges=list(g.edges()))
    for rep in range(r):
        events = stream.realize(1000 + rep)
        finals.append(run_additions(events, alpha=0.3, seed=rep).estimate())
    mean = statistics.fmean(finals)
    se = statistics.stdev(finals) / math.sqrt(r)
    assert abs(mean - truth) <= 3 * se


def test_unbiased_under_deletions():
    base = er_graph(50, 0.35, seed=16)
    events = StreamSpec("edge-deletion", edges=list(base.edges()), p_e=0.02, p_d=0.2).realize(17)
    r = 400
    ests = [EsdEstimator(0.3, seed=500 + i) for i in range(r)]
    g = Graph()
    tracker = ExactTracker()
    trisample.replay(events, g, ests, tracker)
    truth = tracker.count
    assert truth == exact_triangles(g)
    assert truth > 0
    finals = [est.estimate() for est in ests]
    mean = statistics.fmean(finals)
    se = statistics.stdev(finals) / math.sqrt(r)
    assert abs(mean - truth) <= 3 * se


def test_chebyshev_consistency():
    g = er_graph(40, 0.4, seed=18)
    truth = exact_triangles(g)
    finals = []
    stream = StreamSpec("permutation", edges=list(g.edges()))
    for rep in range(600):
        events = stream.realize(3000 + rep)
        finals.append(run_additions(events, alpha=0.25, seed=rep).estimate())
    var = statistics.variance(finals)
    n = len(finals)
    for eps_scale in (1.0, 1.5, 2.0):
        eps = eps_scale * math.sqrt(var) / truth
        p_emp = sum(1 for x in finals if abs(x - truth) >= eps * truth) / n
        assert p_emp <= var / (eps**2 * truth**2) * 1.2


def test_variance_grows_as_alpha_halves():
    g = er_graph(40, 0.4, seed=19)
    stream = StreamSpec("permutation", edges=list(g.edges()))

    def empirical_var(alpha):
        finals = []
        for rep in range(400):
            events = stream.realize(7000 + rep)
            finals.append(run_additions(events, alpha=alpha, seed=rep).estimate())
        return statistics.variance(finals)

    v_full = empirical_var(0.4)
    v_half = empirical_var(0.2)
    assert v_half >= v_full * 0.8  # never decreases beyond estimation noise


def test_replay_determinism():
    g = er_graph(30, 0.3, seed=20)
    events = StreamSpec("permutation", edges=list(g.edges())).realize(21)
    a = run_additions(events, alpha=0.2, seed=5).estimate()
    b = run_additions(events, alpha=0.2, seed=5).estimate()
    assert a == b


def closing_increments(events, alpha, seed):
    """Re-run ESD's draws for ``events`` from ``random.Random(seed)``
    without the estimator: a coin per event, and per sampled event one
    ``randrange`` pick per endpoint over its other neighbors, read after
    the store applies the event.  Returns beta * d for every pick that
    closes a triangle, in order."""
    rng = random.Random(seed)
    g = Graph()
    closing = []
    for ev in events:
        if ev.beta == 1:
            g.add_edge(ev.u, ev.v)
        else:
            g.delete_edge(ev.u, ev.v)
        if rng.random() >= alpha:
            continue
        for a, b in ((ev.u, ev.v), (ev.v, ev.u)):
            cands = [w for w in g.adjacency(a) if w != b]
            if cands and g.has_edge(cands[rng.randrange(len(cands))], b):
                closing.append(ev.beta * len(cands))
    return closing


def test_estimate_is_the_exact_sum_of_its_increments_rounded_once():
    # ESD keeps the int sum of beta * d over its closing probes and reads
    # 0.5 * sum / alpha, so over a BA edge-deletion stream the estimate is
    # the exact sum of its increments beta * 0.5 * d / alpha, correctly
    # rounded, at an alpha where a float running sum drifts (0.3) and at
    # one where every increment is an integer (0.05)
    edges = sorted(ba_graph(BaConfig(600, 20, 0.2, 5, 1.5, seed=33)).edges())
    events = StreamSpec("edge-deletion", edges=edges, p_e=0.01, p_d=0.05).realize(34)
    assert any(ev.beta == -1 for ev in events)
    for alpha in (0.05, 0.3):
        ests = [EsdEstimator(alpha, seed=35 + i) for i in range(8)]
        trisample.replay(events, Graph(), ests)
        for i, est in enumerate(ests):
            closing = closing_increments(events, alpha, 35 + i)
            assert any(x < 0 for x in closing) and any(x > 0 for x in closing)
            assert type(est.s) is int
            assert est.estimate() == float(Fraction(sum(closing), 2) / Fraction(alpha))
