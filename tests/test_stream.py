import hashlib
import math
import random
import re
import tempfile
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trisample.stream
from trisample import (
    BaConfig,
    EdgeEvent,
    StreamSpec,
    ba_graph,
    read_edge_list,
    read_snapshot_dir,
    read_stream_file,
    snapshot_diffs,
    write_edge_list,
    write_stream_file,
)
from trisample.stream import _check_simple

from helpers import replay

TRIANGLE = [(1, 2), (2, 3), (1, 3)]


def test_edge_event_validation():
    with pytest.raises(ValueError):
        EdgeEvent(1, 1, 1)
    with pytest.raises(ValueError):
        EdgeEvent(1, 2, 0)
    ev = EdgeEvent(1, 2, -1)
    assert (ev.u, ev.v, ev.beta) == (1, 2, -1)


def test_spec_events_are_edge_events_like_any_other():
    # a spec builds its events without re-running EdgeEvent's checks on
    # pairs it has already validated; they must still be ordinary events
    spec = StreamSpec("edge-deletion", edges=[(2, 1), (2, 3), (1, 3), (3, 4)], p_e=1.0, p_d=1.0)
    events = spec.realize(3)
    assert any(ev.beta == -1 for ev in events)
    for ev in events:
        twin = EdgeEvent(ev.u, ev.v, ev.beta)
        assert type(ev) is EdgeEvent
        assert ev == twin and hash(ev) == hash(twin) and repr(ev) == repr(twin)
        with pytest.raises(AttributeError):
            ev.beta = 1


def test_permutation_stream_is_permutation_of_additions():
    events = StreamSpec("permutation", edges=TRIANGLE).realize(5)
    assert len(events) == 3
    assert all(ev.beta == 1 for ev in events)
    assert {(ev.u, ev.v) for ev in events} == set(TRIANGLE)


def test_permutation_stream_deterministic():
    a = StreamSpec("permutation", edges=TRIANGLE).realize(11)
    b = StreamSpec("permutation", edges=TRIANGLE).realize(11)
    assert a == b
    c = StreamSpec("permutation", edges=TRIANGLE).realize(12)
    assert len(c) == 3  # different seed may or may not differ; only length is guaranteed


def test_permutation_is_the_stdlib_shuffle_of_the_additions():
    # the Fisher–Yates loop draws what random.Random.shuffle draws, for
    # every length, including the bit-length steps of the index range
    for n in range(301):
        spec = StreamSpec("permutation", edges=[(0, i) for i in range(1, n + 1)])
        for seed in range(20):
            expected = list(range(1, n + 1))
            random.Random(seed).shuffle(expected)
            assert [ev.v for ev in spec.realize(seed)] == expected


def test_permutation_is_the_stdlib_shuffle_at_every_band_edge():
    # the shuffle runs one bit-length band of slots at a time, so each
    # length just below, at and above a power of two ends a band at its
    # top, bottom or one past it; 19,520 is perm-ba2k's edge count
    lengths = sorted({n for k in range(16) for n in (2**k - 1, 2**k, 2**k + 1)} | {19_520})
    for n in lengths:
        spec = StreamSpec("permutation", edges=[(0, i) for i in range(1, n + 1)])
        for seed in (0, 1, 7):
            expected = list(range(1, n + 1))
            random.Random(seed).shuffle(expected)
            assert [ev.v for ev in spec.realize(seed)] == expected


def test_permutation_stream_rejects_duplicates_and_loops():
    with pytest.raises(ValueError):
        StreamSpec("permutation", edges=[(1, 2), (2, 1)]).realize(0)
    with pytest.raises(ValueError):
        StreamSpec("permutation", edges=[(4, 4)]).realize(0)


def test_permutation_stream_order_frequencies():
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    orders = {p: 0 for p in permutations(edges)}
    n = 10_000
    spec = StreamSpec("permutation", edges=edges)
    for seed in range(n):
        events = spec.realize(seed)
        orders[tuple((ev.u, ev.v) for ev in events)] += 1
    assert len(orders) == 24
    # Pearson's statistic against chi-square(23)'s 0.999 quantile, 49.7282:
    # a p-value above 0.001 (it reads 14.52 here)
    expected = n / 24
    assert sum((c - expected) ** 2 / expected for c in orders.values()) < 49.7282


def random_edges(n_nodes, m, seed):
    rng = random.Random(seed)
    out = set()
    while len(out) < m:
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u != v:
            out.add((min(u, v), max(u, v)))
    return sorted(out)


def test_edge_deletion_stream_pe_zero_is_pure_permutation():
    edges = random_edges(30, 60, seed=1)
    shuffled = StreamSpec("permutation", edges=edges).realize(2)
    assert [ev.beta for ev in shuffled] == [1] * 60
    for kind in ("edge-deletion", "node-deletion"):
        assert StreamSpec(kind, edges=edges, p_e=0.0, p_d=0.5).realize(2) == shuffled


def _ba_edge_lists():
    """A small BA graph's edges, sorted, and shuffled with every other pair
    reversed and every third a list."""
    edges = sorted(ba_graph(BaConfig(80, 10, 0.3, 3, 1.0, seed=7)).edges())
    mixed = list(edges)
    random.Random(8).shuffle(mixed)
    mixed = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(mixed)]
    return {"sorted": edges, "mixed": [list(e) if i % 3 == 0 else e for i, e in enumerate(mixed)]}


BA_EDGE_LISTS = _ba_edge_lists()


@pytest.mark.parametrize("kind", ["edge-deletion", "node-deletion"])
@pytest.mark.parametrize("order", ["sorted", "mixed"])
@pytest.mark.parametrize("p_d", [0.0, 0.4, 1.0])
def test_deletion_kinds_at_pe_zero_run_the_permutation_path(monkeypatch, kind, order, p_d):
    # at p_e = 0 no deletion event can run: the stream is the permutation,
    # shuffled from its events, with no rank table and no ``_generate``
    def no_generate(*args):
        raise AssertionError("_generate called at p_e = 0")

    monkeypatch.setattr(trisample.stream, "_generate", no_generate)
    edges = BA_EDGE_LISTS[order]
    spec = StreamSpec(kind, edges=edges, p_e=0.0, p_d=p_d)
    permutation = StreamSpec("permutation", edges=edges)
    for seed in range(12):
        assert spec.realize(seed) == permutation.realize(seed)
    assert spec._ranks is None


def test_edge_deletion_stream_full_wipe():
    edges = random_edges(20, 40, seed=3)
    events = StreamSpec("edge-deletion", edges=edges, p_e=1.0, p_d=1.0).realize(4)
    # every addition is immediately deleted, so deletions mirror additions
    g = replay(events)
    assert g.edge_count == 0
    adds = sum(1 for ev in events if ev.beta == 1)
    assert adds == 40
    assert len(events) == 80


def test_edge_deletion_stream_replay_consistent():
    edges = random_edges(50, 300, seed=5)
    for seed in range(5):
        replay(StreamSpec("edge-deletion", edges=edges, p_e=0.05, p_d=0.3).realize(seed))


def test_edge_deletion_event_count_expectation():
    # deletion events fire with probability p_e after each addition, so the
    # expected count is p_e * |E|.  Every deletion event is immediately
    # preceded by one addition, so events that delete at least one edge show
    # up as exactly one run of -1s; with p_d=0.01 the chance a burst deletes
    # nothing decays like 0.99^present and biases the count by < 1 event.
    edges = random_edges(200, 5000, seed=6)
    p_e = 0.01
    expected = p_e * len(edges)
    sigma_one = math.sqrt(len(edges) * p_e * (1 - p_e))
    n_seeds = 30
    total = 0
    for seed in range(n_seeds):
        events = StreamSpec("edge-deletion", edges=edges, p_e=p_e, p_d=0.01).realize(seed)
        prev = 1
        for ev in events:
            if ev.beta == -1 and prev == 1:
                total += 1
            prev = ev.beta
    mean = total / n_seeds
    assert abs(mean - expected) <= 3 * sigma_one / math.sqrt(n_seeds) + 1.0


def test_node_deletion_stream_pd_one_empties_graph():
    edges = random_edges(25, 80, seed=7)
    events = StreamSpec("node-deletion", edges=edges, p_e=1.0, p_d=1.0).realize(8)
    g = replay(events)
    assert g.edge_count == 0


def test_node_deletion_star_center_emits_degree_deletions():
    # star: deleting every node wipes exactly degree(center) edges
    k = 7
    edges = [(0, i) for i in range(1, k + 1)]
    events = StreamSpec("node-deletion", edges=edges, p_e=1.0, p_d=1.0).realize(9)
    adds = [ev for ev in events if ev.beta == 1]
    dels = [ev for ev in events if ev.beta == -1]
    assert len(adds) == k
    # after each addition exactly the present star edge(s) are deleted: the
    # graph holds 1 edge at each deletion event
    assert len(dels) == k


def test_node_deletion_shared_edge_emitted_once():
    edges = random_edges(40, 200, seed=10)
    for seed in range(10):
        events = StreamSpec("node-deletion", edges=edges, p_e=0.2, p_d=0.3).realize(seed)
        replay(events)  # absent deletions would fail: no double-emission
        seen = set()
        for ev in events:
            if ev.beta == -1:
                e = (min(ev.u, ev.v), max(ev.u, ev.v))
                assert e not in seen  # each edge deleted at most once ever
                seen.add(e)


# sha256 of repr([(u, v, beta), ...]) over random_edges(40, 200, seed=10):
# pins each generated model's draw order, not only its consistency
GENERATED_GOLDEN = [
    ("permutation", 0.0, 0.0, 0, "576c6ef8772ab3636d04826e0567828fdbdeeed3fa42132f22aa7ed2ff542d53"),
    ("permutation", 0.0, 0.0, 1, "00823710912c800d75748f8d05b1c49ced74efcef2b3587e721cff88c8c818e2"),
    ("edge-deletion", 0.2, 0.3, 0, "0d76c2442d38c61a2258fecada53a05741364943ee44fd34ad7dddccf33172b8"),
    ("edge-deletion", 0.5, 0.1, 1, "c7762ef99d2bc3d32a9174b578baf44b61ae089c9deac6130e421ab39a8063f5"),
    ("edge-deletion", 1.0, 0.5, 2, "e9b755e45eb4f1fe117d1431ec0688ee341427723b10226740b330040da20566"),
    ("edge-deletion", 0.05, 0.9, 3, "a0c0d0c0768c73c4108d614726edfd94424419a2f5f34a50f53e374f0056c726"),
    ("node-deletion", 0.2, 0.3, 0, "dc29bf52faed6676893d63bad53b56c81de72985cbf94683156d9dc06de5eb5b"),
    ("node-deletion", 0.5, 0.1, 1, "3e7cef72dbce06a6f4be8feb28ae73a9bbbe5505719dbc81fd6771f83ab0918c"),
    ("node-deletion", 1.0, 0.5, 2, "37ca89a1a753b2bba14d8fa448f74005b56765be5497f7a00d8b090a65faee7d"),
    ("node-deletion", 0.05, 0.9, 3, "d2c50587f7768d08e131b2a5dc1ab4211d322e6b16c222b922a1615bf308e2b2"),
]


# the ids leave the kind out, so the node-deletion rows keep their names
@pytest.mark.parametrize(
    "kind,p_e,p_d,seed,digest",
    GENERATED_GOLDEN,
    ids=["-".join(map(str, row[1:])) for row in GENERATED_GOLDEN],
)
def test_node_deletion_golden_events(kind, p_e, p_d, seed, digest):
    edges = random_edges(40, 200, seed=10)
    events = StreamSpec(kind, edges=edges, p_e=p_e, p_d=p_d).realize(seed)
    rows = [(ev.u, ev.v, ev.beta) for ev in events]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# The deletion kinds against the tuple-based generator they replaced


def _reference_edge_victims(present, p_d, rng):
    return [e for e in present if rng.random() < p_d]


def _reference_node_victims(present, p_d, rng):
    touched = sorted({x for e in present for x in e})
    marked = {node for node in touched if rng.random() < p_d}
    if not marked:
        return []
    return [e for e in present if e[0] in marked or e[1] in marked]


def _reference_generate(additions, p_e, victims, p_d, seed):
    """The deletion kinds' generator as it was when the present graph was a
    sorted list of edge tuples; the goldens above pin it on fixed inputs."""
    rng = random.Random(seed)
    order = list(additions)
    bits = rng.getrandbits
    top = len(order) - 1
    for k in range(len(order).bit_length(), 1, -1):
        for i in range(top, (1 << (k - 1)) - 2, -1):
            j = bits(k)
            while j > i:
                j = bits(k)
            order[i], order[j] = order[j], order[i]
        top = (1 << (k - 1)) - 2
    if not p_e:
        return order
    events = []
    present = []
    batch = []
    for ev in order:
        events.append(ev)
        batch.append((ev.u, ev.v))
        if rng.random() < p_e:
            present += batch
            present.sort()
            batch = []
            gone = victims(present, p_d, rng)
            if gone:
                events += [EdgeEvent(u, v, -1) for u, v in gone]
                dead = set(gone)
                present = [e for e in present if e not in dead]
    return events


REFERENCE_VICTIMS = {"edge-deletion": _reference_edge_victims, "node-deletion": _reference_node_victims}

# small ids make dense graphs; the others sit around 2^63 and 2^64, past
# what a numpy int64 holds
node_ids = st.one_of(
    st.integers(0, 12), st.integers(2**63 - 3, 2**63 + 3), st.integers(2**64 - 2, 2**64 + 2)
)
# each edge once, in either orientation, as a tuple or a list
edge_lists = st.lists(
    st.tuples(st.tuples(node_ids, node_ids).filter(lambda p: p[0] != p[1]), st.booleans()),
    unique_by=lambda row: frozenset(row[0]),
    max_size=60,
).map(lambda rows: [list(p) if as_list else p for p, as_list in rows])
rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["edge-deletion", "node-deletion"]),
    edges=edge_lists,
    p_e=rates,
    p_d=rates,
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
)
# a sorted edge list is its own rank table
@example(kind="edge-deletion", edges=random_edges(20, 60, seed=1), p_e=0.3, p_d=0.5, seeds=[0, 1])
@example(kind="node-deletion", edges=random_edges(20, 60, seed=1), p_e=1.0, p_d=0.2, seeds=[2])
def test_deletion_streams_match_the_tuple_based_reference(kind, edges, p_e, p_d, seeds):
    # the rank mask, the one shuffle over positions and the cached rank
    # table draw and emit what the sorted tuple lists did, realization
    # after realization of one spec
    spec = StreamSpec(kind, edges=edges, p_e=p_e, p_d=p_d)
    additions = [EdgeEvent(min(u, v), max(u, v), 1) for u, v in edges]
    for seed in seeds:
        expected = _reference_generate(additions, p_e, REFERENCE_VICTIMS[kind], p_d, seed)
        assert spec.realize(seed) == expected


def test_snapshot_diff_identical_snapshots_no_events():
    snap = [(1, 2), (3, 4)]
    assert snapshot_diffs([snap, snap]) == snapshot_diffs([snap])


def test_snapshot_diff_example_sequence():
    events = snapshot_diffs([[], [(1, 2)], [(2, 3)]])
    assert events == [EdgeEvent(1, 2, 1), EdgeEvent(1, 2, -1), EdgeEvent(2, 3, 1)]


def test_snapshot_diff_deletions_before_additions_sorted():
    snaps = [[(1, 2), (3, 4)], [(0, 5), (3, 4), (2, 6)]]
    first = len(snapshot_diffs(snaps[:1]))
    assert snapshot_diffs(snaps)[first:] == [EdgeEvent(1, 2, -1), EdgeEvent(0, 5, 1), EdgeEvent(2, 6, 1)]


def test_snapshot_chain_replay_reconstructs_every_snapshot():
    # each shorter chain's stream is a prefix of the whole chain's, and it
    # replays to the chain's last snapshot
    rng = random.Random(11)
    snapshots = []
    for _ in range(10):
        n = rng.randrange(3, 12)
        snap = sorted(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        )
        snapshots.append(snap)
    events = snapshot_diffs(snapshots)
    for k in range(1, len(snapshots) + 1):
        prefix = snapshot_diffs(snapshots[:k])
        assert events[: len(prefix)] == prefix
        assert set(replay(prefix).edges()) == set(snapshots[k - 1])


def test_stream_file_round_trip(tmp_path):
    rng = random.Random(12)
    events = []
    for _ in range(10_000):
        u, v = rng.randrange(1000), rng.randrange(1000)
        if u != v:
            events.append(EdgeEvent(u, v, rng.choice((1, -1))))
    path = tmp_path / "stream.txt"
    write_stream_file(events, path)
    assert read_stream_file(path) == events


node_pairs = st.tuples(st.integers(0, 10**12), st.integers(0, 10**12)).filter(lambda p: p[0] != p[1])


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(node_pairs, max_size=40),
    events=st.lists(st.builds(lambda p, beta: EdgeEvent(*p, beta), node_pairs, st.sampled_from([1, -1]))),
)
def test_edge_list_and_stream_file_round_trip_property(pairs, events):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        write_edge_list(pairs, path)
        assert read_edge_list(path) == pairs
        write_stream_file(events, path)
        assert read_stream_file(path) == events


def test_stream_file_parse(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# header\n1 2 +1\n1 2 -1\n")
    assert read_stream_file(path) == [EdgeEvent(1, 2, 1), EdgeEvent(1, 2, -1)]


@pytest.mark.parametrize(
    "content",
    ["1 2\n", "1 2 2\n", "1 2 1\n", "x y +1\n", "3 3 +1\n", "+1 2 +1\n", "1_0 3 -1\n", "3 \u0661 +1\n"],
)
def test_stream_file_errors_carry_line_number(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ValueError) as err:
        read_stream_file(path)
    assert ":1:" in str(err.value)


def test_a_file_that_is_not_utf8_names_itself(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2\n\xff\xfe 3\n")
    for read in (read_edge_list, read_stream_file):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
            read(path)


_BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark, as some Windows editors save it


def test_a_leading_bom_is_skipped_in_an_edge_list(tmp_path):
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(b"1 2\n2 3\n1 3\n")
    bom.write_bytes(_BOM + plain.read_bytes())
    assert read_edge_list(bom) == read_edge_list(plain) == [(1, 2), (2, 3), (1, 3)]
    # past the start of the file it is a character, and no node id holds one
    late = tmp_path / "late.txt"
    late.write_bytes(b"1 2\n" + _BOM + b"2 3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(late))}:2: node ids must be unsigned integers$"):
        read_edge_list(late)


def test_a_leading_bom_is_skipped_in_a_stream_file(tmp_path):
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(b"1 2 +1\n1 2 -1\n")
    bom.write_bytes(_BOM + plain.read_bytes())
    assert read_stream_file(bom) == read_stream_file(plain) == [EdgeEvent(1, 2, 1), EdgeEvent(1, 2, -1)]


def test_a_leading_bom_is_skipped_in_a_snapshot(tmp_path):
    (tmp_path / "0.txt").write_bytes(_BOM + b"1 2\n")
    (tmp_path / "1.txt").write_bytes(b"1 2\n2 3\n")
    assert read_snapshot_dir(tmp_path) == [[(1, 2)], [(1, 2), (2, 3)]]


def test_snapshot_dir_skips_hidden_files(tmp_path):
    (tmp_path / "0.txt").write_text("1 2\n")
    (tmp_path / "1.txt").write_text("1 2\n2 3\n")
    (tmp_path / ".DS_Store").write_bytes(b"\x00\x00\x00\x01Bud1\xff\xfe")
    assert read_snapshot_dir(tmp_path) == [[(1, 2)], [(1, 2), (2, 3)]]
    for name in ("0.txt", "1.txt"):
        (tmp_path / name).unlink()
    (tmp_path / ".hidden.txt").write_text("1 2\n")
    with pytest.raises(ValueError, match="no snapshot files"):
        read_snapshot_dir(tmp_path)


def test_generated_streams_byte_identical(tmp_path):
    edges = random_edges(40, 150, seed=13)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        spec = StreamSpec("edge-deletion", edges=edges, p_e=0.1, p_d=0.2)
        write_stream_file(spec.realize(14), out)
    assert a.read_bytes() == b.read_bytes()


def test_stream_spec_dispatch():
    edges = [(1, 2), (2, 3)]
    assert len(StreamSpec("permutation", edges=edges).realize(0)) == 2
    assert StreamSpec("edge-deletion", edges=edges, p_e=0.0, p_d=0.0).realize(0)
    events = [EdgeEvent(5, 6, 1), EdgeEvent(5, 6, -1)]
    assert StreamSpec("events", events=events).realize(123) == events
    with pytest.raises(ValueError):
        StreamSpec("bogus", edges=edges)
    with pytest.raises(ValueError):
        StreamSpec("permutation")
    with pytest.raises(ValueError):
        StreamSpec("events")
    with pytest.raises(ValueError):
        StreamSpec("edge-deletion", edges=edges, p_e=1.5)
    for name in ("p_e", "p_d"):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be in"):
                StreamSpec("edge-deletion", edges=edges, **{name: bad})


# each kind with the one input it reads
INPUTS = {"permutation": dict(edges=TRIANGLE), "events": dict(events=[EdgeEvent(1, 2, 1)])}


@pytest.mark.parametrize("kind", ["permutation", "events"])
@pytest.mark.parametrize(
    "rates", [dict(p_e=0.5), dict(p_d=0.2), dict(p_e=1.0, p_d=1.0)], ids=["p_e", "p_d", "both"]
)
def test_stream_spec_rejects_rates_for_kinds_without_deletions(kind, rates):
    StreamSpec(kind, **INPUTS[kind], p_e=0.0, p_d=0.0)
    with pytest.raises(ValueError, match=f"stream kind '{kind}' takes no p_e or p_d"):
        StreamSpec(kind, **INPUTS[kind], **rates)


@pytest.mark.parametrize(
    "kind,extra",
    [
        ("permutation", "events"),
        ("edge-deletion", "events"),
        ("node-deletion", "events"),
        ("events", "edges"),
    ],
)
def test_stream_spec_rejects_an_input_its_kind_does_not_read(kind, extra):
    inputs = dict(edges=TRIANGLE, events=[EdgeEvent(1, 2, 1)])
    with pytest.raises(ValueError, match=f"stream kind '{kind}' takes no {extra}"):
        StreamSpec(kind, **inputs)
    del inputs[extra]
    StreamSpec(kind, **inputs)


# ---------------------------------------------------------------------------
# StreamSpec builds its events once and reuses them across realizations


def _spec(kind, edges, p_e=0.1, p_d=0.2):
    if kind == "permutation":  # the rates shape only the deletion models
        p_e = p_d = 0.0
    return StreamSpec(kind, edges=edges, p_e=p_e, p_d=p_d)


@pytest.mark.parametrize("kind", ["permutation", "edge-deletion", "node-deletion"])
def test_stream_spec_realizations_are_independent_lists(kind):
    # reversed pairs check that the cached events are canonicalized too
    edges = [(v, u) if i % 3 else (u, v) for i, (u, v) in enumerate(random_edges(30, 80, seed=16))]
    spec = _spec(kind, edges)
    first = spec.realize(4)
    assert spec.realize(4) == first
    assert all(ev.u < ev.v for ev in first)
    first.reverse()
    first.append(EdgeEvent(98, 99, 1))
    assert spec.realize(4) == _spec(kind, edges).realize(4)
    spec.realize(5).clear()
    assert spec.realize(5) == _spec(kind, edges).realize(5)


def test_stream_spec_events_copies_its_input_once():
    events = StreamSpec("edge-deletion", edges=random_edges(20, 50, seed=17), p_e=0.2, p_d=0.3).realize(18)
    given = list(events)
    spec = StreamSpec("events", events=given)
    first = spec.realize(0)
    assert first == events and first is not given
    first.clear()
    given.reverse()  # later realizations reuse the first copy
    given.append(EdgeEvent(98, 99, 1))
    for seed in (0, 1, 2):
        out = spec.realize(seed)
        assert out == events
        out.pop()
    assert spec.realize(3) == events


@pytest.mark.parametrize("kind", ["permutation", "edge-deletion", "node-deletion"])
@pytest.mark.parametrize("edges", [[(1, 2), (3, 4), (2, 1)], [(1, 2), (3, 3)]])
def test_stream_spec_rejects_bad_edges_on_every_realize(kind, edges):
    spec = _spec(kind, edges, p_e=0.5, p_d=0.5)
    for seed in range(3):
        with pytest.raises(ValueError):
            spec.realize(seed)


# sha256 of repr([(u, v, beta), ...]) of a realization of an edge list given
# in both orientations, as tuples and as lists; recorded when every pair was
# copied into a new canonical tuple
MIXED_ORIENTATION_GOLDEN = [
    ("permutation", 0.0, 0.0, "6c3d6c141d5bd085477b9b4178cb750ac2f36bb3c0e4af31190551291ed979b8"),
    ("edge-deletion", 0.2, 0.3, "6721fd08fedadbe82ed1ff55831c133f86d532ff8a3ad5df146f0f2806ab0a04"),
    ("node-deletion", 0.1, 0.2, "e35573b2ed71291eb6cb4d25bfe232f8eb3e4a729edad5940e99fef3a735a6ff"),
]


def _mixed_orientation_edges():
    rng = random.Random(11)
    pairs = set()
    while len(pairs) < 120:
        u, v = rng.randrange(30), rng.randrange(30)
        if u != v and (v, u) not in pairs:
            pairs.add((u, v))
    return [list(e) if i % 3 == 0 else e for i, e in enumerate(sorted(pairs))]


@pytest.mark.parametrize("kind,p_e,p_d,digest", MIXED_ORIENTATION_GOLDEN)
def test_realized_events_of_mixed_orientation_edges_are_unchanged(kind, p_e, p_d, digest):
    events = StreamSpec(kind, edges=_mixed_orientation_edges(), p_e=p_e, p_d=p_d).realize(5)
    rows = [(ev.u, ev.v, ev.beta) for ev in events]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_check_simple_keeps_canonical_tuples_as_given():
    edges = _mixed_orientation_edges()
    out = _check_simple(edges)
    assert out == [(min(e), max(e)) for e in edges]
    for given, kept in zip(edges, out):
        canonical = type(given) is tuple and given[0] < given[1]
        assert (kept is given) == canonical
        assert type(kept) is tuple
