"""The benchmark's smoke run must keep working against the package.

``perfbench`` drives the package through its public API and reads some
internals (``ExactTracker.h_trace``, ``EsdEstimator.process_event`` and
``t_est``, ``TriestEstimator.live_edges``); a package change that breaks
any of them fails here rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
