"""``tools/bench_pairs.py``'s summary of hand-made runs, with no subprocess."""

import importlib.util
from pathlib import Path

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
