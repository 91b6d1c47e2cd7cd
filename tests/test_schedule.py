"""The replay schedule, which the ``harness`` module states: ``replay``
drives every estimator through ``skip(events)``, and ESD also through
``step(events, i, nu, nv)``, and must leave it exactly where feeding it
every event through a one-event ``skip`` (baselines) or ``process_event``
(ESD) does, with the same random draws; the stop loop on a store, one
``replay`` per stretch, must read the same trace rows, and its running
truth must match a recount after every event.  ESD itself must end in the
same state whether it is fed before or after the store applies each
event."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisample import (
    DoulionEstimator,
    EsdEstimator,
    EstimatorSpec,
    ExactTracker,
    Graph,
    StreamSpec,
    TriestEstimator,
    er_graph,
    replay,
)
from trisample.harness import _drive, _trace_stops

import helpers
from helpers import (
    assert_graph_invariants,
    brute_force_triangles,
    consistent_streams,
    estimator_specs,
    sorted_edges,
    state,
)


def feed_every_event(specs, seeds, events, stride=None):
    """Reference run: every estimator sees every event after the graph does.
    With a stride, returns the trace rows ``(stop, truth, [estimates])`` at
    every stride and at the end."""
    ests = [spec.build(seed) for spec, seed in zip(specs, seeds)]
    g, tracker, rows = Graph(), ExactTracker(), []
    for i, ev in enumerate(events):
        helpers.replay([ev], g)
        tracker.apply(ev, g)
        for spec, est in zip(specs, ests):
            if spec.kind == "esd":
                est.process_event(ev, g)
            else:
                est.skip(events[i : i + 1])
        if stride is not None and ((i + 1) % stride == 0 or i + 1 == len(events)):
            rows.append((i + 1, tracker.count, [est.estimate() for est in ests]))
    return ests, g, rows


def scheduled(specs, seeds, events, stride=None):
    """The stop loop on a store: one ``replay`` of the whole stream, or,
    with a stride, one per stretch, with the rows ``feed_every_event``
    returns."""
    ests = [spec.build(seed) for spec, seed in zip(specs, seeds)]
    g = Graph()
    if stride is None:
        replay(events, g, ests)
        return ests, g, []
    stops = _trace_stops(len(events), stride)
    estimates, truths = _drive(ests, events, stops, g, ExactTracker())
    return ests, g, list(zip(stops, truths, estimates.tolist()))


@pytest.mark.parametrize(
    "kind,param",
    [
        ("esd", 1e-9),
        ("esd", 0.05),
        ("esd", 0.5),
        ("esd", 1.0),
        ("doulion", 0.0),
        ("doulion", 0.05),
        ("doulion", 0.5),
        ("doulion", 1.0),
        ("triest", 1),
        ("triest", 20),
        ("triest", 150),
        ("triest", 10_000),
    ],
)
def test_schedule_matches_feeding_every_event(kind, param):
    edges = list(er_graph(40, 0.3, seed=23).edges())
    events = StreamSpec("edge-deletion", edges=edges, p_e=0.05, p_d=0.2).realize(24)
    assert any(ev.beta == -1 for ev in events)
    specs = [EstimatorSpec(kind, param) for _ in range(3)]
    seeds = (1, 2, 3)

    fed, g, _ = feed_every_event(specs, seeds, events)
    ests, g2, _ = scheduled(specs, seeds, events)

    assert sorted_edges(g2) == sorted_edges(g)
    for a, b in zip(fed, ests):
        assert state(b) == state(a)
    if kind != "triest" and param == 1.0:  # every event's coin is won
        adds = sum(ev.beta == 1 for ev in events)
        assert all(est.edges_sampled == (len(events) if kind == "esd" else adds) for est in ests)
    if kind != "triest" and param in (1e-9, 0.0):
        assert all(est.edges_sampled == 0 for est in ests)
    if param == 10_000:  # the reservoir never fills, so it holds the graph
        assert all(sorted(est.sample.edges()) == sorted(g.edges()) for est in ests)


seeds = st.lists(st.integers(0, 2**32), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(events=consistent_streams(), specs=estimator_specs, seeds=seeds)
def test_schedule_state_matches_on_random_streams(events, specs, seeds):
    fed, g, _ = feed_every_event(specs, seeds, events)
    ests, g2, _ = scheduled(specs, seeds, events)
    assert sorted_edges(g2) == sorted_edges(g)
    assert [state(est) for est in ests] == [state(est) for est in fed]


@settings(max_examples=100, deadline=None)
@given(events=consistent_streams(), specs=estimator_specs, seeds=seeds, stride=st.sampled_from([1, 3]))
def test_schedule_trace_rows_match_on_random_streams(events, specs, seeds, stride):
    fed, _, expected = feed_every_event(specs, seeds, events, stride)
    ests, _, rows = scheduled(specs, seeds, events, stride)
    assert rows == expected
    assert [state(est) for est in ests] == [state(est) for est in fed]


@settings(max_examples=150, deadline=None)
@given(events=consistent_streams(), alpha=st.sampled_from([0.2, 0.6, 1.0]), seed=st.integers(0, 2**32))
def test_esd_is_the_same_fed_before_or_after_the_mutation(events, alpha, seed):
    before, after = EsdEstimator(alpha, seed=seed), EsdEstimator(alpha, seed=seed)
    g = Graph()
    for ev in events:
        before.process_event(ev, g)
        helpers.replay([ev], g)
        after.process_event(ev, g)
    assert state(before) == state(after)


@settings(max_examples=150, deadline=None)
@given(events=consistent_streams())
def test_replay_truth_matches_recount_after_every_event(events):
    g = Graph()
    stops = _trace_stops(len(events), 1)
    estimates, truths = _drive((), events, stops, g, ExactTracker())
    assert stops == list(range(1, len(events) + 1))
    assert estimates.shape == (len(events), 0)
    for i, truth in zip(stops, truths, strict=True):
        assert truth == brute_force_triangles(helpers.replay(events[:i]))
    assert_graph_invariants(g)
    untraced = Graph()
    assert replay(events, untraced) is None
    assert sorted_edges(untraced) == sorted_edges(g) == sorted_edges(helpers.replay(events))


@settings(max_examples=150, deadline=None)
@given(events=consistent_streams(), seed=st.integers(0, 2**32), spare=st.integers(0, 5))
def test_full_sample_baselines_are_exact_on_random_streams(events, seed, spare):
    live = peak = 0
    for ev in events:
        live += ev.beta
        peak = max(peak, live)
    # a reservoir that holds the largest graph of the stream never evicts
    ests = [DoulionEstimator(1.0, seed=seed), TriestEstimator(max(1, peak) + spare, seed=seed)]
    g = Graph()
    replay(events, g, ests)
    truth = brute_force_triangles(g)
    assert [est.estimate() for est in ests] == [truth, truth]
