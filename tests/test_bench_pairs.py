"""``tools/bench_pairs.py``'s summary of hand-made runs and its checkout rule,
with no subprocess."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(rep_s, replications, sha, failed=0, attempted=10):
    metrics = {"rep_s": rep_s, "setup_s": 1.0, "exact_s": 1.0, "peak_rss_mb": 50.0}
    return {
        "metrics": metrics,
        "replications": replications,
        "rep_s_all": [rep_s] * (replications + 1),
        "summary_csv_sha256": sha,
        "failed": failed,
        "attempted": attempted,
    }


def test_summarize_compares_digests_only_at_equal_replication_counts():
    runs = [
        {"parent": _run(0.30, 4, "a"), "change": _run(0.20, 4, "a")},  # equal, same CSV
        {"parent": _run(0.32, 4, "b"), "change": _run(0.21, 6, "c")},  # counts differ
        {"parent": _run(0.31, 5, "d"), "change": _run(0.33, 5, "e")},  # equal, CSVs differ
    ]
    out = _bench_pairs().summarize(runs)
    assert out["csv"] == {"equal_replications": 2, "same_sha256": 1}
    assert out["rep_s"]["change_won"] == 2
    assert out["rep_s"]["pairs"] == 3
    assert out["rep_s"]["parent"]["median"] == 0.31
    assert out["setup_s"]["change_won"] == 0
    assert out["replication_s"]["change"]["rep0"] == {"median": 0.21, "n": 6}
    assert out["replication_s"]["parent"]["later"]["n"] == 7


def test_summarize_sums_each_sides_failed_and_attempted_checks():
    runs = [
        {"parent": _run(0.30, 4, "a", 0, 12), "change": _run(0.20, 4, "a", 1, 12)},
        {"parent": _run(0.32, 4, "b", 0, 9), "change": _run(0.21, 4, "b", 2, 11)},
    ]
    out = _bench_pairs().summarize(runs)
    assert out["checks"] == {
        "parent": {"failed": 0, "attempted": 21},
        "change": {"failed": 3, "attempted": 23},
    }


def test_summarize_flags_each_metric_within_its_declared_bound():
    runs = [
        {"parent": _run(0.30, 4, "a"), "change": _run(0.35, 4, "a")},
        {"parent": _run(0.30, 4, "b"), "change": _run(0.36, 4, "b")},
    ]
    for run in runs:
        run["change"]["metrics"]["peak_rss_mb"] = 56.0  # 12% above the parent's 50.0
    out = _bench_pairs().summarize(runs)
    assert out["rep_s"]["bound"] == 0.24  # BENCHMARK.json's
    assert out["rep_s"]["within_bound"]  # 0.355 <= 0.30 * 1.24
    assert out["setup_s"]["within_bound"]  # unchanged
    assert out["peak_rss_mb"]["bound"] == 0.1
    assert not out["peak_rss_mb"]["within_bound"]  # 56.0 > 50.0 * 1.1


def test_summarize_resolves_a_gain_by_pairs_won_and_the_parents_spread():
    def runs(parent, change):
        return [{"parent": _run(p, 4, "a"), "change": _run(c, 4, "a")} for p, c in zip(parent, change)]

    parent = [0.30, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36, 0.37, 0.38, 0.39]
    # 9 of 10 won and the medians 0.1 apart, against a spread of 0.045
    out = _bench_pairs().summarize(runs(parent, [p - 0.1 for p in parent[:9]] + [0.40]))
    assert out["rep_s"]["change_won"] == 9
    assert out["rep_s"]["parent_spread"] == pytest.approx(0.045)
    assert out["rep_s"]["gain_resolved"]
    # a tie counts for neither side, so 8 won of 10 is not enough
    out = _bench_pairs().summarize(runs(parent, [p - 0.1 for p in parent[:8]] + parent[8:]))
    assert out["rep_s"]["change_won"] == 8
    assert not out["rep_s"]["gain_resolved"]
    # every pair won, but the medians only 0.02 apart
    out = _bench_pairs().summarize(runs(parent, [p - 0.02 for p in parent]))
    assert out["rep_s"]["change_won"] == 10
    assert not out["rep_s"]["gain_resolved"]
    assert not out["setup_s"]["gain_resolved"]  # all ties


def test_summarize_takes_its_metrics_from_the_benchmark_file(tmp_path):
    declared = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    declared["end_to_end"].append({"name": "extra_s", "unit": "s", "better": "lower", "bound": 0.5})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    bench_pairs = _bench_pairs()
    bench_pairs.HERE = tmp_path
    runs = [{"parent": _run(0.30, 4, "a"), "change": _run(0.30, 4, "a")}]
    runs[0]["parent"]["metrics"]["extra_s"] = 2.0
    runs[0]["change"]["metrics"]["extra_s"] = 2.9
    out = bench_pairs.summarize(runs)
    assert out["extra_s"]["bound"] == 0.5
    assert out["extra_s"]["within_bound"]  # 2.9 <= 2.0 * 1.5
    # change_won and within_bound read lower as better, so another is refused
    declared["end_to_end"][-1]["better"] = "higher"
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    with pytest.raises(ValueError, match="extra_s"):
        bench_pairs.summarize(runs)


@pytest.mark.parametrize(
    "sides, message",
    [
        (("here", "a"), "--parent .* is this tool's own checkout"),
        (("a", "here"), "--change .* is this tool's own checkout"),
        (("a", "a"), "--parent and --change are both"),
        (("a", "b/../a/"), "--parent and --change are both"),
        (("a", "b"), None),
    ],
)
def test_main_refuses_its_own_checkout_and_one_directory_for_both_sides(
    tmp_path, monkeypatch, capsys, sides, message
):
    # the docstring's rule: neither side is the working repository, and
    # the two sides are two checkouts; both are refused before any run
    bench_pairs = _bench_pairs()

    def run_once(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    parent, change = (str(bench_pairs.HERE if side == "here" else tmp_path / side) for side in sides)
    out = tmp_path / "out.json"
    argv = ["--parent", parent, "--change", change, "--workload", "perm-ba2k", "--out", str(out)]
    if message is None:  # two sibling checkouts go on to the first run
        with pytest.raises(AssertionError, match="a run started"):
            bench_pairs.main(argv)
        return
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()
