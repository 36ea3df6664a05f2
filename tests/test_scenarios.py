"""Seeded scenario-space property test.

A fixed-seed generator draws about 100 scenarios far from the benchmark's
four geometries: N in {2, 3, 4, 8, 16, 32, 64}, K from 1 to min(3, N - 1),
d/lambda in {0.1, 0.25, 0.5, 1, 2, 4}, M in {1, 2, 5, 40, 400}, SNR in
{-30, -10, 0, 20, 60, 120} dB, a sector 5-179.9 degrees wide, a grid step of
0.01-2 degrees, and a line-of-sight or a zero-mean prior. A config that
construction rejects raises ValueError and is counted. Each accepted
scenario runs 2 trials through the harness's trial draw, both method
runners and the error alignment, and every block must keep the
estimator's and the baseline's contracts. The budget-hit count is printed
(run with -s), not gated.
"""

import math
import warnings

import numpy as np

from aoavi.estimator import STOP_REASONS
from aoavi.harness import (
    _METHODS,
    _NUMERICAL_FAILURES,
    ConfigError,
    PROPOSED,
    _estimate,
    _trial_block,
    aligned_squared_errors,
    scenario_from_dict,
)
from aoavi.loss import total_loss

N_DRAWS = 100
N_TRIALS = 2
SEED = 20231016
# a tenth of the default 500, so that the test runs in under 5 s: a block
# that runs to the default costs about 0.2 s, twice (the rerun); 50 is above
# the 22-iteration median of a sweep_multiuser block
BUDGET = 50


def _draw_config(rng: np.random.Generator, index: int) -> dict:
    n = int(rng.choice([2, 3, 4, 8, 16, 32, 64]))
    k = int(rng.integers(1, min(3, n - 1) + 1))
    width = float(rng.uniform(5.0, 179.9))
    half_room = 90.0 - width / 2
    if rng.random() < 0.5:  # line of sight: unit mean, weak scatter
        mean = [[1.0, 0.0]] * k
        variance = 0.1
    else:  # zero mean, unit power
        mean = [[0.0, 0.0]] * k
        variance = 1.0
    covariance = [
        [[variance if i == j else 0.0, 0.0] for j in range(k)] for i in range(k)
    ]
    return {
        "array": {
            "n_antennas": n,
            "spacing_ratio": float(rng.choice([0.1, 0.25, 0.5, 1.0, 2.0, 4.0])),
        },
        "prior": {"mean": mean, "covariance": covariance},
        "n_snapshots": int(rng.choice([1, 2, 5, 40, 400])),
        "snr_db_list": [float(rng.choice([-30.0, -10.0, 0.0, 20.0, 60.0, 120.0]))],
        "n_trials": N_TRIALS,
        "master_seed": index,
        "sector": {"center_deg": float(rng.uniform(-half_room, half_room)), "width_deg": width},
        "grid_step_deg": float(math.exp(rng.uniform(math.log(0.01), math.log(2.0)))),
        "optimizer": {"max_outer_iterations": BUDGET},
    }


def _draws() -> list[dict]:
    rng = np.random.default_rng(SEED)
    return [_draw_config(rng, i) for i in range(N_DRAWS)]


def _check_proposed(scenario, obs, angles, gains, run) -> None:
    """The loss trace, final entry and stop reason of the estimate, read
    from a rerun that must reproduce the runner's output bit for bit."""
    result = _estimate(scenario, obs)
    assert np.array_equal(result.state.aoa_estimate.angles, angles)
    assert np.array_equal(result.state.channel_means, gains)
    assert (result.stop_reason, result.iterations_used, result.line_search_evaluations) == run
    totals = [b.total for b in result.loss_trace]
    assert all(later <= earlier for earlier, later in zip(totals, totals[1:]))
    assert total_loss(obs, result.state, scenario.prior) == result.loss_trace[-1]
    assert result.stop_reason in STOP_REASONS


def test_random_scenarios_keep_the_method_contracts():
    rejected, scenarios, budget_hits = [], 0, 0
    failures = {name: [] for name, _ in _METHODS}
    for index, config in enumerate(_draws()):
        try:
            scenario = scenario_from_dict(config)
        except ConfigError as exc:  # a ValueError; counted, not skipped
            assert isinstance(exc, ValueError)
            rejected.append(str(exc))
            continue
        scenarios += 1
        sector = scenario.sector
        for t in range(N_TRIALS):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                aoas, channel, obs = _trial_block(scenario, 0, t)
                assert np.array_equal(_trial_block(scenario, 0, t)[2].signal, obs.signal)
                for name, method in _METHODS:
                    where = f"draw {index} trial {t} {name}: {config}"
                    try:
                        angles, gains, run = method(scenario, obs)
                        errs = aligned_squared_errors(aoas, channel, angles, gains)
                    except _NUMERICAL_FAILURES as exc:
                        failures[name].append(f"{type(exc).__name__}: {exc}")
                        continue
                    assert np.all((sector.lo <= angles) & (angles <= sector.hi)), where
                    assert np.all(np.isfinite(gains)), where
                    assert all(math.isfinite(e) for e in errs), where
                    if name == PROPOSED:
                        _check_proposed(scenario, obs, angles, gains, run)
                        budget_hits += run[0] == "budget"
                    else:
                        rerun = method(scenario, obs)
                        assert np.array_equal(rerun[0], angles), where
                        assert np.array_equal(rerun[1], gains), where
    print(
        f"{N_DRAWS} draws: {len(rejected)} configs rejected {sorted(set(rejected))},"
        f" {scenarios} scenarios run;"
        f" budget hits {budget_hits} of {scenarios * N_TRIALS} estimates"
    )
    for name, messages in failures.items():
        print(f"{name}: {len(messages)} failed blocks", sorted(set(messages)))
    assert len(rejected) + scenarios == N_DRAWS
