"""trisample benchmark: replay fixed-seed streams through the public API and
report end-to-end metrics, or with ``--trace 1`` a per-layer split.

    python3 perfbench/run.py --workload perm-ba2k --seed 1 --seconds 10 --trace 0

One process, no threads, closed loop: each event is applied when the
previous one finishes.  Every metric is printed as ``name value unit``; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (run metadata,
every replication time, per-layer self time) is written to
``.perfbench_out/<workload>-trace<0|1>.json`` in the checkout, next to the
summary CSV the run emits.  Workloads, metrics and the layer map are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package() -> None:
    """Put the checkout's ``src`` first on the import path and make sure the
    package comes from there, not from an installed copy."""
    if not (SRC / "trisample" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'trisample'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import trisample

    if Path(trisample.__file__).resolve().parent != SRC / "trisample":
        sys.exit(f"perfbench: imported trisample from {trisample.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny graphs, for the smoke test")
    args = ap.parse_args(argv)
    import_package()
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
