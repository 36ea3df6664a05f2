"""Exact work counts of the estimator on fixed benchmark blocks.

Timings on a shared host are too noisy to show a change in the work a block
takes, but its outer iterations and line-search trial sums are exact for a
seed. This test sums both over 12 fixed seed-301 blocks of each gated
workload and fails if either total rises above its recorded value. A change
that lowers a total should lower its record with it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import aoavi.harness as H  # noqa: E402
import workloads as W  # noqa: E402

# (outer iterations, trial sums) summed over the blocks below
RECORDED = {
    "sweep_k1": (239, 268),
    "alias_grid": (192, 246),
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
