"""Streaming triangle estimation for fully dynamic graphs.

A mutable graph store with sorted adjacency, edge-event streams,
a per-event edge-sampling triangle estimator alongside sparsifier and
reservoir baselines, an exact oracle, and an experiment harness with a CLI
front end.
"""

from .baselines import DoulionEstimator, TriestEstimator
from .esd import EsdEstimator
from .generators import (
    BA_PRESETS,
    BaConfig,
    GraphStats,
    ba_graph,
    er_graph,
    graph_stats,
)
from .graph import Graph
from .harness import (
    EstimatorMetrics,
    EstimatorSpec,
    ExperimentConfig,
    MetricsReport,
    confidence_interval,
    emit_csv,
    nrmse,
    relative_error,
    replay,
    run_experiment,
)
from .oracle import ExactTracker, exact_triangles, triangles_of_edge, variance_bound
from .seeding import derive_seed
from .stream import (
    EdgeEvent,
    StreamSpec,
    read_edge_list,
    read_snapshot_dir,
    read_stream_file,
    snapshot_diffs,
    write_edge_list,
    write_stream_file,
)

__version__ = "0.1.0"

__all__ = [
    "BA_PRESETS",
    "BaConfig",
    "DoulionEstimator",
    "EdgeEvent",
    "EsdEstimator",
    "EstimatorMetrics",
    "EstimatorSpec",
    "ExactTracker",
    "ExperimentConfig",
    "Graph",
    "GraphStats",
    "MetricsReport",
    "StreamSpec",
    "TriestEstimator",
    "ba_graph",
    "confidence_interval",
    "derive_seed",
    "emit_csv",
    "er_graph",
    "exact_triangles",
    "graph_stats",
    "nrmse",
    "read_edge_list",
    "read_snapshot_dir",
    "read_stream_file",
    "relative_error",
    "replay",
    "run_experiment",
    "snapshot_diffs",
    "triangles_of_edge",
    "variance_bound",
    "write_edge_list",
    "write_stream_file",
]
