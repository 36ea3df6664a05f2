import dataclasses
import inspect

import aoavi
from aoavi import landscape, loss
from aoavi.estimator import EstimationResult, _aoa_gradient_raw
from aoavi.preprocess import Sector


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
        loss.expected_reconstruction_observed: "normalized",
        loss.population_reconstruction: "normalized",
        landscape.evaluate_surface: "noise_variance",
        landscape.stationary_points: "tol",
    }
    for fn, param in removed.items():
        assert param not in inspect.signature(fn).parameters, fn.__name__
    fields = [f.name for f in dataclasses.fields(EstimationResult)]
    assert fields == ["state", "loss_trace", "stop_reason", "line_search_evaluations"]
