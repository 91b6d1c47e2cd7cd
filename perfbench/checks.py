"""Output checks, run outside every timed region.

Ground truth is recomputed without the package's graph store or oracle:
each replication's stream is replayed into a Python set of edges and the
final graph is recounted by set intersection.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from trisample import derive_seed


def recount(edges) -> int:
    """Triangle count of an edge collection by set intersection."""
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return sum(len(adj[u] & adj[v]) for u, v in edges) // 3


def final_edges(events) -> set[tuple[int, int]]:
    """Edges present after replaying ``events`` from the empty graph."""
    present: set[tuple[int, int]] = set()
    for ev in events:
        e = (ev.u, ev.v) if ev.u < ev.v else (ev.v, ev.u)
        if ev.beta == 1:
            present.add(e)
        else:
            present.remove(e)
    return present


def replication_truths(setup, seed: int, replications: int) -> list[int]:
    """Final triangle count of every replication ``run_experiment`` makes
    with base seed ``seed``.  A permutation stream always ends on the base
    graph; a deletion stream is realized again from its replication seed."""
    if setup.stream.kind == "permutation":
        return [recount(setup.edges)] * replications
    return [
        recount(final_edges(setup.stream.realize(derive_seed(seed, "stream", r))))
        for r in range(replications)
    ]


class Checks:
    """Counts output checks attempted and keeps a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def report(self, report, traces, truths: list[int]) -> None:
        """Check one ``run_experiment`` result against recounted truths."""
        expected = float(np.asarray(truths, dtype=float).mean())
        self.expect(report.truth == expected, f"truth {report.truth} != recount mean {expected}")
        last = max(row[0] for row in traces)
        final = {row[1] for row in traces if row[0] == last}
        self.expect(final == {truths[0]}, f"replication 0 ends at truth {final} != {truths[0]}")
        for row in report.rows:
            values = (row.mean, row.rel_err, row.nrmse, row.var, row.ci_low, row.ci_high)
            self.expect(all(map(math.isfinite, values)), f"{row.name}: non-finite metric {values}")
        self.expect(
            all(math.isfinite(row[3]) for row in traces), "non-finite estimate in the trace rows"
        )

    @property
    def fail_frac(self) -> float:
        return len(self.failures) / self.attempted
