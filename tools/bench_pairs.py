"""Alternating parent/change runs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent ../parent-checkout --parent-rev 2792bb0 \
        --workload perm-ba2k --seeds 1-10 --out BENCH_16.json

For each workload and seed, ``perfbench/run.py --trace 0`` runs once in the
parent checkout and once in the change (by default the checkout holding
this script), one after the other, with the side that goes first
alternating from seed to seed, so that a drift in machine speed hits both
sides alike.  Each run is a fresh process.  The file holds every run's
end-to-end metrics, replication count, summary CSV sha256 and check
failure fraction, and per workload and metric each side's median and
quartiles and the number of pairs the change won.  It is rewritten after
every pair, so an interrupted session keeps the pairs it finished.
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
METRICS = ("rep_s", "setup_s", "exact_s", "peak_rss_mb")  # all lower-is-better


def seed_list(text: str) -> list[int]:
    """"1-10" or "1,4,7" (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run; its metrics and ``#`` metadata lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    meta = dict(line[2:].split(" ", 1) for line in lines if line.startswith("# ") and " " in line[2:])
    result = json.loads(lines[-1])
    return {
        "metrics": {k: result["metrics"][k]["value"] for k in METRICS},
        "replications": int(meta["replications"]),
        "summary_csv_sha256": meta["summary_csv_sha256"],
        "failed": result["failed"],
        "attempted": result["attempted"],
    }


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each metric per side, and pairs won."""
    out = {}
    for metric in METRICS:
        row = {}
        for side in ("parent", "change"):
            values = [r[side]["metrics"][metric] for r in runs]
            q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
            row[side] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
        pairs = [(r["parent"]["metrics"][metric], r["change"]["metrics"][metric]) for r in runs]
        row["change_won"] = sum(c < p for p, c in pairs)
        row["pairs"] = len(pairs)
        parent_median = row["parent"]["median"]
        row["median_change_frac"] = row["change"]["median"] / parent_median - 1.0 if parent_median else None
        out[metric] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--parent-rev", default="unknown", help="the parent commit, for the record")
    ap.add_argument("--change", type=Path, default=HERE, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", type=Path, default=HERE / "BENCH.json")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = {
        "python": platform.python_version(),
        "parent_rev": args.parent_rev,
        "seconds": args.seconds,
        "trace": 0,
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, args.seconds)
            runs.append(pair)
            record["workloads"][workload] = {"runs": runs, "summary": summarize(runs)}
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            rep = {side: pair[side]["metrics"]["rep_s"] for side in ("parent", "change")}
            line = f"{workload} seed {seed}: rep_s parent {rep['parent']:.4g} change {rep['change']:.4g}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
