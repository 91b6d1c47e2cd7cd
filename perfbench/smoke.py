"""Smoke test of the benchmark at tiny scale, in seconds:

    python3 perfbench/smoke.py

Runs every workload untraced and traced on small graphs through the real
command line, and requires a correct result whose metrics are exactly the
names and units ``BENCHMARK.json`` declares.  Then checks that the command
fails without printing a result when the package source is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = ("--workload", w["name"], "--seed", "7", "--seconds", "0.5")
            proc = run(ROOT, *args, "--trace", str(trace), "--smoke")
            if proc.returncode != 0:
                sys.exit(f"{w['name']} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared[trace], (w["name"], trace, got)
            printed = {
                line.split()[0]: line.split()[-1]
                for line in proc.stdout.splitlines()[:-1]
                if not line.startswith("#")
            }
            assert printed == {**got, "check_fail_frac": "ratio"}, printed
            print(f"ok {w['name']} trace {trace}: {len(got)} metrics, {result['attempted']} checks")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    name = spec["workloads"][0]["name"]
    proc = run(bare, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok bare directory: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
