"""Measurement for one benchmark run: the untraced end-to-end metrics and
the traced per-layer split.  ``perfbench/run.py`` is the entry point; it
puts the checkout's ``src`` on the import path before importing this.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from checks import Checks, recount, replication_truths
from speed import SpeedLog
from tracing import LAYERS, LayerTimes, timer_cost, traced_replication
from trisample import (
    ExperimentConfig,
    Graph,
    derive_seed,
    emit_csv,
    exact_triangles,
    run_experiment,
)
from workloads import WORKLOADS, smoke_scale

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
EXACT_REPEATS = 40


class _StampedStream:
    """Stream spec that records when each ``realize`` call starts:
    ``run_experiment`` realizes once at the start of every replication."""

    def __init__(self, spec):
        self.spec = spec
        self.starts: list[float] = []

    def realize(self, seed: int):
        self.starts.append(time.perf_counter())
        return self.spec.realize(seed)


def timed_experiment(setup, seed: int, replications: int):
    """One ``run_experiment`` call; returns (report, trace rows, (start,
    end) of each replication)."""
    stamped = _StampedStream(setup.stream)
    cfg = ExperimentConfig(stamped, setup.estimators, replications=replications, seed=seed)
    report, traces = run_experiment(cfg)
    bounds = stamped.starts + [time.perf_counter()]
    return report, traces, list(zip(bounds, bounds[1:]))


def timed_calls(fn, repeats: int):
    """Call ``fn()`` ``repeats`` times; returns (last result, (start, end) of
    each call).  A result is dropped before the next call starts, so peak
    memory holds one."""
    result, spans = None, []
    for _ in range(repeats):
        result = None
        t0 = time.perf_counter()
        result = fn()
        spans.append((t0, time.perf_counter()))
    return result, spans


def emit_summary(report, traces, name: str) -> tuple[str, float]:
    """Write the summary and trace CSVs; returns (summary sha256, seconds
    ``emit_csv`` took)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.csv"
    t0 = time.perf_counter()
    emit_csv(report, traces, path)
    elapsed = time.perf_counter() - t0
    return hashlib.sha256(path.read_bytes()).hexdigest(), elapsed


def git_sha() -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" when the
    checkout is not a git repository."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def exact_times(s, n_nodes: int, checks: Checks) -> list[tuple[float, float]]:
    """Time ``exact_triangles`` on the subgraph of the first ``n_nodes``
    grown nodes (all of a 2k graph) and check it against a recount."""
    edges = [(u, v) for u, v in s.edges if u < n_nodes and v < n_nodes]
    g = s.graph if len(edges) == len(s.edges) else Graph.from_edges(edges)
    count, spans = timed_calls(lambda: exact_triangles(g), EXACT_REPEATS)
    expected = recount(edges)
    checks.expect(count == expected, f"exact_triangles {count} != recount {expected}")
    return spans


def measure(w, seed: int, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Untraced run: set-up, exact count, then replications for ``seconds``,
    all under speed probes."""
    with SpeedLog() as speed:
        s, setup_spans = timed_calls(w.setup, w.setup_repeats)
        exact_spans = exact_times(s, w.exact_nodes, checks)

        # A first single replication sizes one call that fills the rest of
        # the run, so every later replication shares one run_experiment call.
        deadline = time.perf_counter() + seconds
        calls = [(derive_seed(seed, "call", 0), 1)]
        results = [timed_experiment(s, *calls[0])]
        t0, t1 = results[0][2][0]
        more = int((deadline - time.perf_counter()) / (t1 - t0))
        if more >= 1:
            calls.append((derive_seed(seed, "call", 1), more))
            results.append(timed_experiment(s, *calls[1]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for (call_seed, n), (report, traces, _) in zip(calls, results):
        checks.report(report, traces, replication_truths(s, call_seed, n))
    csv_sha, _ = emit_summary(*results[-1][:2], f"{w.name}-trace0")

    spans = {
        "rep_s": [span for result in results for span in result[2]],
        "setup_s": setup_spans,
        "exact_s": exact_spans,
    }
    scaled = {k: [speed.scaled(*span) for span in v] for k, v in spans.items()}
    raw = {k: [speed.raw(*span) for span in v] for k, v in spans.items()}
    metrics = {k: (statistics.median(v), "s") for k, v in scaled.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    origin = speed.probes[0][0]
    record = {
        "replications": len(spans["rep_s"]),
        "raw_s": {k: statistics.median(v) for k, v in raw.items()},
        "scaled_s_all": scaled,
        "raw_s_all": raw,
        "probes": [(a - origin, b - origin) for a, b in speed.probes],
        "spans": {k: [(a - origin, b - origin) for a, b in v] for k, v in spans.items()},
        "summary_csv_sha256": csv_sha,
    }
    return metrics, record


def measure_traced(w, seed: int, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Traced replications for half of ``seconds``, then the same
    replications untraced, for the per-layer split and its overhead."""
    s = w.setup()
    cost = timer_cost()
    call_seed = derive_seed(seed, "call", 0)

    acc = LayerTimes()
    traced, traced_wall, trace_rows = [], [], []
    deadline = time.perf_counter() + seconds / 2
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        traced.append(
            traced_replication(s.stream, s.estimators, call_seed, len(traced), acc, trace_rows)
        )
        traced_wall.append(time.perf_counter() - t0)
    n_reps = len(traced)
    report, traces, spans = timed_experiment(s, call_seed, n_reps)
    rep_times = [t1 - t0 for t0, t1 in spans]
    csv_sha, emit_s = emit_summary(report, traces, f"{w.name}-trace1")

    truths = replication_truths(s, call_seed, n_reps)
    checks.report(report, traces, truths)
    checks.expect([t.truth for t in traced] == truths, "traced truths differ from the recount")
    finals = np.array([t.finals for t in traced])
    for j, row in enumerate(report.rows):
        mean = float(finals[:, j].mean())
        checks.expect(mean == row.mean, f"{row.name}: traced mean {mean} != untraced {row.mean}")
    checks.expect(trace_rows == traces, "traced trace rows differ from run_experiment's")

    self_s = acc.self_seconds(cost)
    layer_total = sum(self_s.values())
    per_rep = {k: v / n_reps for k, v in acc.counts.items()}
    n_esd = sum(spec.kind == "esd" for spec in s.estimators)
    us = 1e6 / acc.counts["stream.events"]
    coins = per_rep["esd.coins_won"]
    metrics = {
        "stream.realize_us_per_event": (self_s["stream"] * us, "us"),
        "stream.events": (per_rep["stream.events"], "count"),
        "stream.deletions": (per_rep["stream.deletions"], "count"),
        "graph.mutate_us_per_event": (self_s["graph"] * us, "us"),
        "oracle.tracker_us_per_event": (self_s["oracle"] * us, "us"),
        "oracle.common_neighbors": (per_rep["oracle.common_neighbors"], "count"),
        "oracle.max_degree": (per_rep["oracle.max_degree"], "count"),
        "esd.us_per_event": (self_s["esd"] * us / n_esd, "us"),
        "esd.calls": (per_rep["stream.events"] * n_esd, "count"),
        "esd.coins_won": (per_rep["esd.coins_won"], "count"),
        "esd.closures": (per_rep["esd.closures"], "count"),
        "esd.closure_ratio": (per_rep["esd.closures"] / coins if coins else 0.0, "ratio"),
        "doulion.us_per_event": (self_s["doulion"] * us, "us"),
        "doulion.sample_edges": (per_rep["doulion.sample_edges"], "count"),
        "doulion.tri_in_sample": (per_rep["doulion.tri_in_sample"], "count"),
        "triest.us_per_event": (self_s["triest"] * us, "us"),
        "triest.live_edges": (per_rep["triest.live_edges"], "count"),
        "triest.c_bad": (per_rep["triest.c_bad"], "count"),
        "triest.c_good": (per_rep["triest.c_good"], "count"),
        "generators.ba_graph_s": (s.ba_graph_s, "s"),
        "harness.plumbing_us_per_event": ((sum(rep_times) - layer_total) * us, "us"),
        "harness.emit_csv_ms": (emit_s * 1e3, "ms"),
        "trace.overhead_frac": (sum(traced_wall) / sum(rep_times) - 1.0, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (self_s[layer] / layer_total, "ratio")
    record = {
        "replications": n_reps,
        "timer_cost_s": cost,
        "layer_self_s": self_s,
        "layer_spans": acc.spans,
        "traced_rep_s": traced_wall,
        "untraced_rep_s": rep_times,
        "summary_csv_sha256": csv_sha,
    }
    return metrics, record


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Run one workload, print its metrics and write the full record;
    returns the result object for the last output line."""
    if workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; one of {sorted(WORKLOADS)}")
    if seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    w = smoke_scale(WORKLOADS[workload]) if smoke else WORKLOADS[workload]
    checks = Checks()
    metrics, record = (measure_traced if trace else measure)(w, seed, seconds, checks)
    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "summary_csv_sha256": record.pop("summary_csv_sha256"),
        "replications": record.pop("replications"),
    }

    for key, value in meta.items():
        print(f"# {key} {value}")
    for key, value in record.get("raw_s", {}).items():
        print(f"# raw {key} {value:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"check_fail_frac {checks.fail_frac:.6g} ratio")
    for line in checks.failures:
        print(f"# check failed: {line}")

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {"workload": w.name, "trace": trace, "seconds": seconds, "smoke": smoke, **meta}
    full.update(record, check_fail_frac=checks.fail_frac, check_failures=checks.failures)
    full["metrics"] = result["metrics"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w.name}-trace{trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    return result
