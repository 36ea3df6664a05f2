import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import aoavi
from aoavi import landscape, loss
from aoavi.estimator import EstimationResult, _aoa_gradient_raw
from aoavi.landscape import StationaryPointSet
from aoavi.loss import LossBreakdown
from aoavi.preprocess import Sector
from aoavi.signal_model import ChannelRealization


def test_public_names_resolve_once_and_exclude_removed_helpers():
    names = aoavi.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(aoavi, name), name
    for removed in (
        "reparameterize_sample",
        "aoa_gradient_observed",
        "codebook_correlation",
        "array_response",
        "stationary_condition_lhs",
        "stationary_condition_finite_sum",
        "PseudoLabels",
    ):
        assert removed not in names
        assert not hasattr(aoavi, removed)
    # the stationary condition stays in its module for stationary_points
    assert callable(landscape.stationary_condition_lhs)
    assert callable(landscape.stationary_condition_finite_sum)


def test_removed_options_and_constructors_stay_removed():
    assert not hasattr(Sector, "full_range")
    assert not hasattr(aoavi.signal_model, "array_response")
    removed = {
        _aoa_gradient_raw: "normalized",
        landscape.evaluate_surface: "noise_variance",
        landscape.stationary_points: "tol",
    }
    for fn, param in removed.items():
        assert param not in inspect.signature(fn).parameters, fn.__name__
    # the loss term has one normalizer (total_loss), the population oracle
    # lives in tests/conftest.py, and the polar form is np.abs / np.angle
    for name in (
        "expected_reconstruction_observed",
        "population_reconstruction",
        "recover_path_parameters",
    ):
        assert not hasattr(loss, name), name
        assert not hasattr(aoavi, name), name
    fields = [f.name for f in dataclasses.fields(EstimationResult)]
    assert fields == ["state", "loss_trace", "stop_reason", "line_search_evaluations"]
    assert not hasattr(EstimationResult, "path_gains")
    assert not hasattr(EstimationResult, "path_angles")
    # the total is derived from the two terms, never stored
    assert [f.name for f in dataclasses.fields(LossBreakdown)] == ["kl_term", "reconstruction_term"]
    assert not hasattr(LossBreakdown, "from_parts")


def test_result_types_hold_only_what_is_read():
    assert not hasattr(aoavi.preprocess, "PseudoLabels")
    assert [f.name for f in dataclasses.fields(ChannelRealization)] == ["gains"]
    assert not hasattr(ChannelRealization, "from_gains")
    assert [f.name for f in dataclasses.fields(StationaryPointSet)] == ["angles", "residuals"]


def _code_references(path: Path) -> set:
    """The names a module's code refers to: every Name, Attribute and
    imported name. Docstrings, comments and definitions do not count."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs.update(alias.name.rpartition(".")[2] for alias in node.names)
    return refs


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    """Each name in aoavi.__all__ is referred to by the code of a module
    under src/aoavi other than __init__.py or of a non-test file under
    benchmarks/: nothing is public only for its tests."""
    package = Path(aoavi.__file__).resolve().parent
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += [
        p
        for p in (package.parents[1] / "benchmarks").glob("*.py")
        if not p.name.startswith("test_")
    ]
    used = set().union(*map(_code_references, files))
    # total_loss is the reference evaluator the tests compare every loss-trace
    # entry against; ROADMAP item 4 gives exact_population_gradient a caller
    # in the landscape
    exempt = {"total_loss", "exact_population_gradient"}
    assert sorted(set(aoavi.__all__) - exempt - used) == []


def test_runtime_imports_only_numpy_and_the_standard_library():
    # a fresh interpreter, so modules other tests imported do not count
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import aoavi, aoavi.cli\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = str(Path(aoavi.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    new = set(json.loads(out))
    assert {"aoavi", "numpy"} <= new
    assert new - {"aoavi", "numpy"} <= set(sys.stdlib_module_names)
