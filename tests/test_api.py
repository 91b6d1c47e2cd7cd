import ast
import inspect
from pathlib import Path

import pytest

import trisample
from trisample.graph import TimeIndexedGraph
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
    assert str(inspect.signature(trisample.replay, eval_str=True)) == "(events, g, ests=(), tracker=None) -> None"
    assert list(inspect.signature(_drive).parameters) == ["ests", "events", "stops", "view", "tracker"]


def test_step_takes_the_endpoints_lists():
    # the store hands ESD's update the two lists it reads and no store
    params = inspect.signature(trisample.EsdEstimator.step).parameters
    assert list(params) == ["self", "events", "i", "nu", "nv"]


@pytest.mark.parametrize("kind, param", [("esd", 1.0), ("doulion", 1.0), ("triest", 3)])
def test_skip_takes_its_stretch_whole_and_run_returns_nothing(kind, param):
    # a store replay hands each call its stretch's own list, while ``run``
    # takes absolute positions over the arrival index; no driver reads
    # what ``run`` returns
    est = trisample.EstimatorSpec(kind, param).build(0)
    assert list(inspect.signature(type(est).skip).parameters) == ["self", "events"]
    assert list(inspect.signature(type(est).run).parameters) == ["self", "events", "i", "stop", "order"]
    events = trisample.StreamSpec("permutation", edges=[(0, 1), (1, 2), (0, 2)]).realize(1)
    assert est.run(events, 0, 3, TimeIndexedGraph.of(events)) is None


def test_tracker_apply_returns_nothing():
    # callers read the running total from ``count``
    tracker = trisample.ExactTracker()
    assert tracker.apply(trisample.EdgeEvent(0, 1, 1), trisample.Graph()) is None
    assert tracker.count == 0


def test_no_test_module_imports_another_or_scipy():
    # what two test modules share lives in helpers.py, and no test needs scipy
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            top = [name.split(".")[0] for name in modules]
            found += [f"{path.name}: {name}" for name in top if name.startswith("test_") or name == "scipy"]
    assert found == []
