import ast
import inspect
from pathlib import Path

import trisample
from trisample.harness import _drive

# The public names, pinned so that a name only tests would use is not
# exported again without a decision to.
PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(trisample.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(trisample, name) is not None, name


def _package_imports(path):
    """The import statements of a package module that name the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("trisample")):
            yield node
        elif isinstance(node, ast.Import) and any(a.name.startswith("trisample") for a in node.names):
            yield node


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(Path(trisample.__file__).parent.glob("*.py")):
        for node in _package_imports(path):
            found += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_stream_module_imports_nothing_from_the_package():
    # streams are events and edge pairs; the graph store is not their layer
    path = Path(trisample.__file__).parent / "stream.py"
    assert [ast.unparse(node) for node in _package_imports(path)] == []


def test_only_the_harness_tells_the_two_views_apart():
    # the estimators read an ArrivalOrder through ``run`` alone, so neither
    # module names it; the baselines build their samples in a ``Graph``
    src = Path(trisample.__file__).parent
    graph_imports = {
        name: [alias.name for node in _package_imports(src / name) if node.module == "graph" for alias in node.names]
        for name in ("esd.py", "baselines.py")
    }
    assert graph_imports == {"esd.py": [], "baselines.py": ["Graph"]}


def test_only_esd_has_a_step():
    # a step applies an event whose update reads the store, and only ESD's
    # does; each baseline applies its stretch inside ``skip``
    assert callable(trisample.EsdEstimator.step)
    assert not hasattr(trisample.DoulionEstimator, "step")
    assert not hasattr(trisample.TriestEstimator, "step")


def test_drivers_take_no_timing():
    # timing wraps each estimator once, so neither driver is told about it
    assert list(inspect.signature(trisample.replay).parameters) == ["events", "g", "ests", "tracker", "stride"]
    assert list(inspect.signature(_drive).parameters) == ["ests", "events", "order", "bounds"]


def test_step_takes_the_endpoints_lists():
    # the store hands ESD's update the two lists it reads and no store
    params = inspect.signature(trisample.EsdEstimator.step).parameters
    assert list(params) == ["self", "events", "i", "stop", "nu", "nv"]
