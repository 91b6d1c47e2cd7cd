"""The benchmark's smoke run must keep working against the package.

``perfbench`` drives the package through its public API and reads some
internals; a package change that breaks any of them fails here rather than
only when the benchmark runs.  Its traced driver, ``perfbench/tracing.py``,
feeds and reads:

- ``EsdEstimator.process_event`` and ``t_est``, now a read-only alias of
  ``estimate()`` over ESD's integer state, kept for this driver
- ``DoulionEstimator.process`` and ``TriestEstimator.process``
- ``ExactTracker.h_trace`` and ``ExactTracker.max_degree``
- ``edges_sampled``, ``sample.edge_count`` and ``tri_in_sample``
- ``TriestEstimator.live_edges``, ``c_bad`` and ``c_good``

Nothing under ``tests/`` calls the baselines' ``process``: that driver is
why it survives.
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
