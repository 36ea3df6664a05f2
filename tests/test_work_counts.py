"""Exact work counts of the estimator on fixed benchmark blocks.

Timings on a shared host are too noisy to show a change in the work a block
takes, but its outer iterations and line-search trial sums are exact for a
seed. This test sums both over 12 fixed seed-301 blocks of each gated
workload and fails if either total rises above its recorded value. A change
that lowers a total should lower its record with it. A second test checks, on
the same sweep_k1 blocks, that the interpolated single-user start saves work
without moving the estimate.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import aoavi.harness as H  # noqa: E402
import workloads as W  # noqa: E402
from aoavi.estimator import estimate  # noqa: E402
from aoavi.preprocess import _correlation_profile, _pick_peaks, pseudo_labels  # noqa: E402

# (outer iterations, trial sums) summed over the blocks below
RECORDED = {
    "sweep_k1": (186, 223),
    "alias_grid": (184, 192),
}
N_BLOCKS = 12


def _blocks(name):
    """The first N_BLOCKS (scenario, snr index, trial index) of the
    workload at seed 301, trials split evenly over its configs and SNRs."""
    scenarios = [H.scenario_from_dict(cfg) for cfg in W.WORKLOADS[name].scenario_configs(301)]
    cells = [(sc, i) for sc in scenarios for i in range(len(sc.snr_db_list))]
    per_cell = N_BLOCKS // len(cells)
    return [(sc, i, t) for sc, i in cells for t in range(per_cell)]


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_work_counts_do_not_rise(name):
    blocks = _blocks(name)
    assert len(blocks) == N_BLOCKS
    iterations = evaluations = 0
    for scenario, snr_index, trial in blocks:
        *_, obs = H._trial_block(scenario, snr_index, trial)
        result = H._estimate(scenario, obs)
        iterations += result.iterations_used
        evaluations += result.line_search_evaluations
    recorded_iterations, recorded_evaluations = RECORDED[name]
    assert iterations <= recorded_iterations, f"{name}: {iterations} outer iterations"
    assert evaluations <= recorded_evaluations, f"{name}: {evaluations} trial sums"


def test_interpolated_label_reaches_the_grid_peak_estimate():
    """The estimate from the interpolated K = 1 pseudo-label and the one
    from the grid peak it refines (passed as initial_aoas) agree to 1e-7 rad
    (3.0e-8 at most is seen)."""
    for scenario, snr_index, trial in _blocks("sweep_k1"):
        *_, obs = H._trial_block(scenario, snr_index, trial)
        refined = H._estimate(scenario, obs)
        angles = scenario.grid.angles()
        (peak,), _ = _pick_peaks(_correlation_profile(obs, scenario.grid), angles, 1)
        assert pseudo_labels(obs, scenario.grid, 1).angles[0] != angles[peak]
        on_grid = estimate(
            obs, scenario.prior, scenario.sector, scenario.grid, scenario.optimizer,
            initial_aoas=[angles[peak]],
        )
        gap = abs(refined.state.aoa_estimate.angles[0] - on_grid.state.aoa_estimate.angles[0])
        assert gap < 1e-7, f"block {(snr_index, trial)}: {gap:.3g} rad"
