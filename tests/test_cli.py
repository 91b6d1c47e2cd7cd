import pytest

from trisample import cli, read_edge_list, read_stream_file, write_edge_list
from trisample.cli import main

from helpers import complete_graph_edges, replay


def write_k4(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in complete_graph_edges(4)))
    return path


def test_generate_er(tmp_path, capsys):
    out = tmp_path / "er.txt"
    rc = main(["generate", "er", "--nodes", "30", "--edge-prob", "0.2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    edges = read_edge_list(out)
    assert edges
    assert "edges=" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["er", "ba"])
def test_generate_and_exact_agree_on_the_written_graph(tmp_path, capsys, kind):
    # at p=0.01, 30 of ER(100)'s nodes have no edge, and this BA graph's
    # sparse seed leaves three nodes without an edge: the file holds neither
    out = tmp_path / f"{kind}.txt"
    shape = ["--edge-prob", "0.01"] if kind == "er" else ["--seed-nodes", "20", "--edges-per-node", "3"]
    assert main(["generate", kind, "--nodes", "100", *shape, "--seed", "1", "--out", str(out)]) == 0
    generated = capsys.readouterr().out.split(": ")[1].split()
    assert main(["exact", "--edges", str(out)]) == 0
    exact = capsys.readouterr().out.split()
    assert generated == exact[:2]
    if kind == "er":
        assert generated == ["nodes=70", "edges=60"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["er", "--nodes", "-3"], "n must be >= 1 and an integer, got -3"),
        (["ba", "--nodes", "200", "--edges-per-node", "0"], "edges_per_new_node must be >= 1 and an integer, got 0"),
    ],
    ids=["er-nodes", "ba-edges-per-node"],
)
def test_generate_rejects_a_bad_count(tmp_path, capsys, args, message):
    out = tmp_path / "g.txt"
    assert main(["generate", *args, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_generate_ba(tmp_path):
    out = tmp_path / "ba.txt"
    rc = main([
        "generate", "ba", "--nodes", "150", "--seed-nodes", "20", "--seed-edge-prob", "0.2",
        "--edges-per-node", "4", "--gamma", "1.5", "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    assert len(read_edge_list(out)) >= (150 - 20) * 4


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["generate", "er", "--nodes", "25", "--edge-prob", "0.3", "--seed", "9", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stream_permutation_and_deletion_models(tmp_path):
    k4 = write_k4(tmp_path)
    perm = tmp_path / "perm.txt"
    assert main(["stream", "--edges", str(k4), "--seed", "1", "--out", str(perm)]) == 0
    events = read_stream_file(perm)
    assert len(events) == 6
    assert all(ev.beta == 1 for ev in events)

    dele = tmp_path / "del.txt"
    assert main([
        "stream", "--edges", str(k4), "--pe", "1.0", "--pd", "1.0", "--seed", "1", "--out", str(dele),
    ]) == 0
    assert len(read_stream_file(dele)) == 12

    node = tmp_path / "node.txt"
    assert main([
        "stream", "--edges", str(k4), "--pe", "1.0", "--pd", "1.0", "--node-del", "--seed", "1",
        "--out", str(node),
    ]) == 0
    assert len(read_stream_file(node)) == 12


def test_stream_snapshots(tmp_path):
    snapdir = tmp_path / "snaps"
    snapdir.mkdir()
    (snapdir / "00.txt").write_text("1 2\n")
    (snapdir / "01.txt").write_text("2 3\n")
    out = tmp_path / "snap_stream.txt"
    assert main(["stream", "--snapshots", str(snapdir), "--out", str(out)]) == 0
    events = read_stream_file(out)
    assert [(ev.u, ev.v, ev.beta) for ev in events] == [(1, 2, 1), (1, 2, -1), (2, 3, 1)]


def test_exact_counts_k4(tmp_path, capsys):
    k4 = write_k4(tmp_path)
    assert main(["exact", "--edges", str(k4)]) == 0
    assert "triangles=4" in capsys.readouterr().out


def test_exact_on_stream(tmp_path, capsys):
    k4 = write_k4(tmp_path)
    stream = tmp_path / "s.txt"
    assert main(["stream", "--edges", str(k4), "--seed", "2", "--out", str(stream)]) == 0
    assert main(["exact", "--stream", str(stream)]) == 0
    assert "triangles=4" in capsys.readouterr().out


def test_exact_stream_counts_only_the_nodes_left(tmp_path, capsys):
    # node deletions empty some nodes; the replayed store forgets them, so
    # the stream's counts are the final edge list's
    ba = tmp_path / "ba.txt"
    args = ["--nodes", "200", "--seed-nodes", "20", "--edges-per-node", "3", "--seed", "6", "--out", str(ba)]
    assert main(["generate", "ba", *args]) == 0
    stream = tmp_path / "s.txt"
    assert main([
        "stream", "--edges", str(ba), "--pe", "0.02", "--pd", "0.05", "--node-del", "--seed", "6",
        "--out", str(stream),
    ]) == 0
    final = tmp_path / "final.txt"
    g = replay(read_stream_file(stream))
    assert g.node_count < 200
    write_edge_list(sorted(g.edges()), final)
    capsys.readouterr()
    assert main(["exact", "--stream", str(stream)]) == 0
    from_stream = capsys.readouterr().out
    assert main(["exact", "--edges", str(final)]) == 0
    assert from_stream == capsys.readouterr().out


def test_run_outputs_deterministic_csv(tmp_path):
    k4 = write_k4(tmp_path)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        rc = main([
            "run", "--edges", str(k4), "--alpha", "1.0", "--p", "0.5", "--reservoir", "6",
            "--reps", "4", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert text.startswith("estimator,")
    assert "esd," in text and "doulion," in text and "triest," in text


def test_run_requires_an_estimator(tmp_path, capsys):
    k4 = write_k4(tmp_path)
    rc = main(["run", "--edges", str(k4), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("stride", ["0", "-5"])
def test_run_and_compare_reject_non_positive_stride(tmp_path, capsys, command, stride):
    # compare writes no trace, so it has no --stride at all
    k4 = write_k4(tmp_path)
    args = [command, "--edges", str(k4), "--reps", "2", "--stride", stride, "--out", str(tmp_path / "x.csv")]
    if command == "compare":
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments: --stride" in capsys.readouterr().err
        return
    assert main(args + ["--alpha", "0.5"]) == 1
    assert "trace_stride must be >= 1" in capsys.readouterr().err


def test_stream_requires_an_input(tmp_path, capsys):
    assert main(["stream", "--out", str(tmp_path / "s.txt")]) == 1
    assert "either --edges or --snapshots is required" in capsys.readouterr().err
    assert main(["run", "--alpha", "0.5", "--out", str(tmp_path / "r.csv")]) == 1
    assert "either --edges or --stream is required" in capsys.readouterr().err
    assert main(["exact"]) == 1
    assert "either --edges or --stream is required" in capsys.readouterr().err
    empty = tmp_path / "snaps"
    empty.mkdir()
    assert main(["stream", "--snapshots", str(empty), "--out", str(tmp_path / "s.txt")]) == 1
    assert "no snapshot files" in capsys.readouterr().err


def test_a_second_source_or_unused_deletion_option_is_rejected(tmp_path, capsys):
    k4 = write_k4(tmp_path)
    stream = tmp_path / "s.txt"
    assert main(["stream", "--edges", str(k4), "--seed", "2", "--out", str(stream)]) == 0
    snapdir = tmp_path / "snaps"
    snapdir.mkdir()
    (snapdir / "00.txt").write_text("1 2\n")
    capsys.readouterr()
    out = ["--out", str(tmp_path / "x.csv")]
    for argv, message in [
        (["run", "--edges", str(k4), "--stream", str(stream), "--pe", "0.5", "--pd", "0.5", "--alpha", "1"],
         "exactly one of --edges or --stream is required"),
        (["stream", "--edges", str(k4), "--snapshots", str(snapdir)],
         "exactly one of --edges or --snapshots is required"),
        (["run", "--stream", str(stream), "--pe", "0.5", "--alpha", "1"], "apply only to --edges"),
        (["run", "--stream", str(stream), "--pd", "0.5", "--alpha", "1"], "apply only to --edges"),
        (["stream", "--snapshots", str(snapdir), "--node-del"], "apply only to --edges"),
        (["stream", "--edges", str(k4), "--pd", "0.9", "--node-del"], "need a positive --pe"),
        (["stream", "--edges", str(k4), "--pd", "0.9"], "need a positive --pe"),
        (["run", "--edges", str(k4), "--node-del", "--alpha", "1"], "need a positive --pe"),
    ]:
        assert main(argv + out) == 1, argv
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "run"])
def test_exact_and_run_reject_an_inconsistent_stream_alike(tmp_path, capsys, command):
    stream = tmp_path / "bad.txt"
    stream.write_text("1 2 +1\n1 3 -1\n")
    argv = [command, "--stream", str(stream)]
    if command == "run":
        argv += ["--alpha", "0.5", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    assert "inconsistent stream: absent deletion (1, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "run"])
def test_exact_and_run_reject_a_duplicate_edge_alike(tmp_path, capsys, command):
    edges = tmp_path / "dup.txt"
    edges.write_text("1 2\n2 3\n2 1\n")
    argv = [command, "--edges", str(edges)]
    if command == "run":
        argv += ["--alpha", "0.5", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    assert "duplicate edge (1, 2) in edge list" in capsys.readouterr().err


def test_run_missing_file_errors(tmp_path, capsys):
    rc = main(["run", "--edges", str(tmp_path / "nope.txt"), "--alpha", "0.5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def write_er(tmp_path, nodes, edge_prob, seed):
    path = tmp_path / "er.txt"
    args = ["--nodes", str(nodes), "--edge-prob", str(edge_prob), "--seed", str(seed)]
    assert main(["generate", "er", *args, "--out", str(path)]) == 0
    return path


def summary_rows(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()[1:]]


def test_compare_sweep(tmp_path, capsys, monkeypatch):
    # every size runs in one experiment, so all rows share one truth, and
    # its replication 0, whose trace is not written, stops once, at the end
    er = write_er(tmp_path, 24, 0.4, 11)
    m = len(read_edge_list(er))
    real, calls = cli.run_experiment, []

    def spy(cfg):
        calls.append(real(cfg))
        return calls[-1]

    monkeypatch.setattr(cli, "run_experiment", spy)
    out = tmp_path / "cmp.csv"
    capsys.readouterr()
    rc = main(["compare", "--edges", str(er), "--sizes", "0.2,0.5,0.1", "--reps", "5", "--seed", "2", "--out", str(out)])
    assert rc == 0
    ((_, trace),) = calls
    rows = summary_rows(out)
    assert [row[0] for row in trace] == [m] * len(rows)
    sizes = [0.2, 0.5, 0.1]
    assert [(row[0], float(row[1])) for row in rows] == [
        (kind, param) for f in sizes
        for kind, param in (("esd", f), ("doulion", f), ("triest", max(1, round(f * m))))
    ]
    assert len({row[3] for row in rows}) == 1
    assert not (tmp_path / "cmp_trace.csv").exists()
    # each "-- sample fraction" block prints that fraction's three rows
    blocks = capsys.readouterr().out.split("-- sample fraction ")[1:]
    assert [float(block.split()[0]) for block in blocks] == sizes
    for block, f in zip(blocks, sizes):
        lines = block.strip().splitlines()[1:]
        assert [line.split()[0] for line in lines[:3]] == ["esd", "doulion", "triest"]
        assert f"param={f:g} " in lines[0]


@pytest.mark.parametrize("frac", [0.05, 0.3])
def test_compare_one_size_writes_what_run_writes(tmp_path, frac):
    er = write_er(tmp_path, 40, 0.3, 1)
    capacity = max(1, round(frac * len(read_edge_list(er))))
    common = ["--edges", str(er), "--reps", "4", "--seed", "5"]
    cmp_out, run_out = tmp_path / "cmp.csv", tmp_path / "run.csv"
    assert main(["compare", *common, "--sizes", str(frac), "--out", str(cmp_out)]) == 0
    assert main([
        "run", *common, "--alpha", str(frac), "--p", str(frac), "--reservoir", str(capacity),
        "--out", str(run_out),
    ]) == 0
    assert cmp_out.read_bytes() == run_out.read_bytes()


def test_run_timing_fills_only_the_wall_time_column(tmp_path):
    er = write_er(tmp_path, 40, 0.3, 1)
    for name, flags in [("plain", []), ("timed", ["--timing"])]:
        assert main([
            "run", "--edges", str(er), "--alpha", "0.2", "--p", "0.2", "--reservoir", "20",
            "--reps", "3", "--seed", "8", *flags, "--out", str(tmp_path / f"{name}.csv"),
        ]) == 0
    assert [float(row[-1]) for row in summary_rows(tmp_path / "plain.csv")] == [0.0, 0.0, 0.0]
    assert all(float(row[-1]) > 0 for row in summary_rows(tmp_path / "timed.csv"))
    assert (tmp_path / "plain_trace.csv").read_bytes() == (tmp_path / "timed_trace.csv").read_bytes()


def test_compare_rejects_bad_fraction(tmp_path, capsys):
    # every fraction is checked before the first experiment runs
    er = write_k4(tmp_path)
    out = tmp_path / "c.csv"
    for sizes, message in [
        ("1.5", "sample fraction must be in (0, 1], got 1.5"),
        ("0.5,1.5", "sample fraction must be in (0, 1], got 1.5"),
        ("0", "sample fraction must be in (0, 1], got 0.0"),
        ("1.1", "sample fraction must be in (0, 1], got 1.1"),
        ("nan", "sample fraction must be in (0, 1], got nan"),
        (",", "--sizes must list at least one fraction"),
    ]:
        rc = main(["compare", "--edges", str(er), "--sizes", sizes, "--reps", "2", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "-- sample fraction" not in captured.out
        assert not out.exists() and not (tmp_path / "c_trace.csv").exists()


def test_module_entry_point():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
