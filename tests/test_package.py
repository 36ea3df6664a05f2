import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import aoavi
from aoavi import harness, landscape, loss
from aoavi.estimator import EstimationResult, OptimizerConfig
from aoavi.harness import landscape_config_from_dict, scenario_from_dict
from aoavi.landscape import AxisSpec, StationaryPointSet
from aoavi.loss import LossBreakdown, VariationalState
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
    assert not hasattr(aoavi.estimator, "_aoa_gradient_raw")
    assert not hasattr(aoavi.signal_model, "array_response")
    removed = {
        loss._state_loss: "normalized",
        landscape.evaluate_surface: "noise_variance",
        landscape.stationary_points: "tol",
    }
    for fn, param in removed.items():
        assert param not in inspect.signature(fn).parameters, fn.__name__
    # the loss term has one normalizer (total_loss), the population oracle
    # lives in tests/conftest.py, the polar form is np.abs / np.angle, and
    # one state evaluator gives each trace entry and its AoA gradient
    for name in (
        "expected_reconstruction_observed",
        "population_reconstruction",
        "recover_path_parameters",
        "_breakdown",
    ):
        assert not hasattr(loss, name), name
        assert not hasattr(aoavi, name), name
    # the stop tolerances are module constants, not options
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["max_outer_iterations"]
    fields = [f.name for f in dataclasses.fields(EstimationResult)]
    assert fields == ["state", "loss_trace", "stop_reason", "line_search_evaluations"]
    assert not hasattr(EstimationResult, "path_gains")
    assert not hasattr(EstimationResult, "path_angles")
    # the total is derived from the two terms, never stored
    assert [f.name for f in dataclasses.fields(LossBreakdown)] == ["kl_term", "reconstruction_term"]
    assert not hasattr(LossBreakdown, "from_parts")


def test_one_half_space_bound():
    # every angle bound reads signal_model._ANGLE_BOUND; no module keeps
    # its own pi/2 with a tolerance of its own
    for module in (aoavi.preprocess, landscape):
        assert not hasattr(module, "_HALF_PI"), module.__name__
        assert module._ANGLE_BOUND is aoavi.signal_model._ANGLE_BOUND


def test_result_types_hold_only_what_is_read():
    assert not hasattr(aoavi.preprocess, "PseudoLabels")
    assert [f.name for f in dataclasses.fields(ChannelRealization)] == ["gains"]
    assert not hasattr(ChannelRealization, "from_gains")
    assert [f.name for f in dataclasses.fields(StationaryPointSet)] == ["angles", "residuals"]
    # a surface is the loss of the export's one unit-gain user
    assert [f.name for f in dataclasses.fields(AxisSpec)] == ["target", "start", "stop", "num"]
    assert list(inspect.signature(landscape.evaluate_surface).parameters) == [
        "axes",
        "array",
        "true_angle",
    ]
    assert not hasattr(landscape, "_SURFACE_BLOCK")
    # a grid's angles have one path, AngleGrid.angles, and the posterior
    # state's shape is read from its channel means
    assert not hasattr(aoavi.preprocess, "_grid_angles")
    assert not hasattr(VariationalState, "k_users")
    assert not hasattr(VariationalState, "n_snapshots")


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


def test_only_the_scan_kernel_module_reads_the_steering_cache():
    """_steering_products fetches the grid_steering rows itself, so which
    rows a scan reads is decided in preprocess.py alone."""
    package = Path(aoavi.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert [p.name for p in modules if "grid_steering" in _code_references(p)] == ["preprocess.py"]


def _json_dumps_calls(path: Path) -> int:
    """The json.dumps calls in a module's code, found by an AST walk."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dumps"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_one_path_from_a_trial_to_its_artifacts():
    # both methods are scored by one aligned_squared_errors call in
    # run_benchmark, the CSVs have one writer, every JSON artifact goes
    # through one json.dumps, and sigma^2 is read from the observation block
    for removed in ("_score_proposed", "_score_music_ls", "_csv_floats"):
        assert not hasattr(harness, removed), removed
    scenario = scenario_from_dict(
        {
            "array": {"n_antennas": 4, "spacing_ratio": 0.5},
            "prior": {"mean": [[1.0, 0.0]], "covariance": [[[0.1, 0.0]]]},
            "n_snapshots": 2,
            "snr_db_list": [10.0],
            "n_trials": 1,
            "master_seed": 1,
            "sector": {"center_deg": 0.0, "width_deg": 60.0},
            "grid_step_deg": 1.0,
        }
    )
    assert len(harness._trial_block(scenario, 0, 0)) == 3
    package = Path(aoavi.__file__).resolve().parent
    assert sum(map(_json_dumps_calls, package.glob("*.py"))) == 1


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


def test_readme_json_examples_parse():
    """README's scenario and landscape examples, in that order, are valid
    configs, so a documented example cannot keep a removed key."""
    readme = Path(aoavi.__file__).resolve().parents[2] / "README.md"
    blocks = readme.read_text().split("```json\n")[1:]
    examples = [json.loads(block.split("```")[0]) for block in blocks]
    assert len(examples) == 2
    scenario_from_dict(examples[0])
    landscape_config_from_dict(examples[1])
