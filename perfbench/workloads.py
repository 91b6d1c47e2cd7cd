"""Benchmark workloads: which graph is grown, how it is streamed, and which
estimators ride along.

Every workload replays a fixed preferential-attachment graph; the
benchmark's ``--seed`` only picks the stream realizations and estimator
coins, so two seeds compare the same system on the same graph.  Why each
workload exists is recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from trisample import BA_PRESETS, BaConfig, EstimatorSpec, Graph, StreamSpec, ba_graph

BA2K = BaConfig(2000, 100, 0.1, 10, 1.5, seed=42)  # 19,520 edges, T = 9,601


@dataclass(frozen=True)
class Workload:
    name: str
    graph: BaConfig
    stream_kind: str  # "permutation" or "edge-deletion"
    fraction: float  # ESD alpha = Doulion p = Triest capacity / |E|
    esd_count: int = 1  # ESD instances fed from the same event log
    p_e: float = 0.0
    p_d: float = 0.0
    setup_repeats: int = 15  # setups timed per run; setup_s is their median
    exact_nodes: int = 2000  # exact_s counts the first this-many grown nodes

    def estimator_specs(self, n_edges: int) -> list[EstimatorSpec]:
        if self.esd_count == 1:
            specs = [EstimatorSpec("esd", self.fraction)]
        else:
            specs = [
                EstimatorSpec("esd", self.fraction, label=f"esd-{i:02d}")
                for i in range(self.esd_count)
            ]
        specs.append(EstimatorSpec("doulion", self.fraction))
        specs.append(EstimatorSpec("triest", int(self.fraction * n_edges)))
        return specs

    def setup(self) -> "Setup":
        """Grow the graph, list its edges and build the stream and
        estimator specs: the work ``setup_s`` times."""
        t0 = time.perf_counter()
        g = ba_graph(self.graph)
        ba_graph_s = time.perf_counter() - t0
        edges = sorted(g.edges())
        spec = StreamSpec(self.stream_kind, edges=edges, p_e=self.p_e, p_d=self.p_d)
        return Setup(g, edges, spec, self.estimator_specs(len(edges)), ba_graph_s)


@dataclass(frozen=True)
class Setup:
    graph: Graph
    edges: list
    stream: StreamSpec
    estimators: list
    ba_graph_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("perm-ba2k", BA2K, "permutation", 0.01),
        Workload(
            "dynfan-ba2k", BA2K, "edge-deletion", 0.05, esd_count=64, p_e=0.001, p_d=0.05
        ),
        Workload("perm-ba20k", BA_PRESETS["ba1"], "permutation", 0.01, setup_repeats=3),
    )
}


def smoke_scale(w: Workload) -> Workload:
    """The same workload shape on a graph small enough to run in seconds.
    The 20k workload keeps a graph larger than its exact-count prefix, so
    the prefix path still runs."""
    n_total = 400 if w.graph.n_total > BA2K.n_total else 200
    graph = replace(w.graph, n_total=n_total, seed_nodes=20, edges_per_new_node=5)
    return replace(
        w,
        graph=graph,
        esd_count=min(w.esd_count, 4),
        p_e=min(1.0, 20 * w.p_e),  # keep deletions frequent on the small graph
        setup_repeats=2,
        exact_nodes=200,
    )
