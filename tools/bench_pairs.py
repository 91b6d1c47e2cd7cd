"""Alternating parent/change runs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --parent-rev 593e7af --workload perm-ba20k --seeds 1-10 --held-out 21 \
        --out BENCH_18.json

Both sides are fresh checkouts in sibling directories: the metrics depend
on where a checkout lies (identical code read ``perm-ba2k`` ``exact_s``
2.8% slower in the repository's own directory than in a sibling one), so
neither side may be the working repository.

For each workload and seed, ``perfbench/run.py --trace 0`` runs once in the
parent checkout and once in the change, one after the other, with the side
that goes first alternating from seed to seed, so that a drift in machine
speed hits both sides alike; ``--held-out`` seeds run last and stay out of
the summary.  Each run is a fresh process.  The file holds every run's
end-to-end metrics, replication count, summary CSV sha256 and check
failure fraction, its ``git_sha``, ``numpy`` and ``nproc`` lines, and the
scaled time of each replication; per workload and metric, each side's
median and quartiles, the number of pairs the change won, the parent's
``parent_spread`` between quartiles and whether a gain is
``gain_resolved`` (``summarize``), the metric's ``bound`` from the
repository's ``BENCHMARK.json`` (only read) and whether the change's
median is ``within_bound``; per side
the median time of replication 0, of replication 1 and of the later ones,
and under ``checks`` the output checks failed and attempted in all its runs;
and under ``csv`` the number of pairs whose sides ran equal replication
counts (``equal_replications``) and, of those, the number whose summary
CSV digests match (``same_sha256``).  Only those pairs can show byte
identity: ``perfbench`` sizes its second call by replication 0's time, so
a side that runs faster fits more replications and writes another CSV.
It is rewritten after every pair, so an interrupted run keeps the pairs it
finished.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
META = ("git_sha", "numpy", "nproc")  # run metadata kept with each run


def seed_list(text: str) -> list[int]:
    """"1-10" or "1,4,7" (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def end_to_end() -> dict:
    """The end-to-end metrics the repository's ``BENCHMARK.json`` declares,
    each name mapped to its ``bound``.  ``change_won`` and ``within_bound``
    read lower as better, so a metric declared otherwise is refused."""
    declared = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
    for m in declared:
        if m["better"] != "lower":
            raise ValueError(f"end-to-end metric {m['name']!r} is {m['better']}-is-better, not lower")
    return {m["name"]: m["bound"] for m in declared}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run; its metrics and ``#`` metadata lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    meta = dict(line[2:].split(" ", 1) for line in lines if line.startswith("# ") and " " in line[2:])
    result = json.loads(lines[-1])
    full = json.loads((checkout / ".perfbench_out" / f"{workload}-trace0.json").read_text())
    return {
        "metrics": {k: result["metrics"][k]["value"] for k in end_to_end()},
        "replications": int(meta["replications"]),
        "rep_s_all": full["scaled_s_all"]["rep_s"],
        "summary_csv_sha256": meta["summary_csv_sha256"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{k: meta[k] for k in META},
    }


def by_replication(rep_s_all: list[float]) -> dict:
    """A run's replication times by kind.  ``perfbench`` makes one call of
    one replication, then one call of the rest, so replication 0 runs twice."""
    return {"rep0": rep_s_all[:2], "rep1": rep_s_all[2:3], "later": rep_s_all[3:]}


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each ``end_to_end`` metric per side, pairs
    won, the parent's spread between its quartiles, whether a gain is
    resolved (the change won at least nine tenths of the pairs, a tie
    counting for neither side, and its median is below the parent's by
    more than that spread), the metric's bound and whether the change's
    median is within it (at most the parent's median times 1 + bound),
    each side's median
    replication times by kind (``by_replication``) and its output checks
    ``failed`` of those ``attempted``, summed over its runs, and the pairs
    that ran equal replication counts and, of those, wrote the same summary
    CSV."""
    bound = end_to_end()
    out = {}
    for metric in bound:
        row = {}
        for side in ("parent", "change"):
            values = [r[side]["metrics"][metric] for r in runs]
            q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
            row[side] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
        pairs = [(r["parent"]["metrics"][metric], r["change"]["metrics"][metric]) for r in runs]
        row["change_won"] = sum(c < p for p, c in pairs)
        row["pairs"] = len(pairs)
        parent_median = row["parent"]["median"]
        row["parent_spread"] = row["parent"]["q3"] - row["parent"]["q1"]
        row["gain_resolved"] = (
            10 * row["change_won"] >= 9 * len(pairs)
            and parent_median - row["change"]["median"] > row["parent_spread"]
        )
        row["median_change_frac"] = row["change"]["median"] / parent_median - 1.0 if parent_median else None
        row["bound"] = bound[metric]
        row["within_bound"] = row["change"]["median"] <= parent_median * (1.0 + bound[metric])
        out[metric] = row
    out["replication_s"] = {}
    for side in ("parent", "change"):
        pooled = {"rep0": [], "rep1": [], "later": []}
        for r in runs:
            for kind, times in by_replication(r[side]["rep_s_all"]).items():
                pooled[kind] += times
        out["replication_s"][side] = {
            kind: {"median": statistics.median(t), "n": len(t)} if t else None for kind, t in pooled.items()
        }
    out["checks"] = {
        side: {k: sum(r[side][k] for r in runs) for k in ("failed", "attempted")}
        for side in ("parent", "change")
    }
    equal = [r for r in runs if r["parent"]["replications"] == r["change"]["replications"]]
    out["csv"] = {
        "equal_replications": len(equal),
        "same_sha256": sum(r["parent"]["summary_csv_sha256"] == r["change"]["summary_csv_sha256"] for r in equal),
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--parent-rev", default="unknown", help="the parent commit, for the record")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--held-out", type=seed_list, default=[], help="seeds run after, kept out of the summary")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", type=Path, default=HERE / "BENCH.json")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if checkout == HERE:
            ap.error(f"--{side} {checkout} is this tool's own checkout, not a fresh sibling one")
    if sides["parent"] == sides["change"]:
        ap.error(f"--parent and --change are both {sides['parent']}")
    end_to_end()  # refuse a metric the summary cannot compare before any run

    record = {
        "python": platform.python_version(),
        "parent_rev": args.parent_rev,
        "seconds": args.seconds,
        "trace": 0,
        "workloads": {},
    }
    for workload in args.workload:
        runs, held_out = [], []
        for k, seed in enumerate(args.seeds + args.held_out):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, args.seconds)
            (runs if k < len(args.seeds) else held_out).append(pair)
            record["workloads"][workload] = {"runs": runs, "summary": summarize(runs), "held_out": held_out}
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            rep = {side: pair[side]["metrics"]["rep_s"] for side in ("parent", "change")}
            line = f"{workload} seed {seed}: rep_s parent {rep['parent']:.4g} change {rep['change']:.4g}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
