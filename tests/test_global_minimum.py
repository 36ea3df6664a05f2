"""The single-user estimate is the global minimum of the free energy.

At the closed-form channel optimum the loss is a function of the AoA alone,
F(theta). For K = 1, with s_p and mu the prior variance and mean, sigma^2
the noise variance, a = a(theta) and Z = Y - a mu 1^T,

    F = [||Z||_F^2 - ||a^H Z||^2 / B] / sigma^2 + M ln(1 + s_p N / sigma^2),
    B = sigma^2 / s_p + N.

The test scores F in closed form over a dense scan of the sector and checks
that the estimator's final loss is not above the scan's minimum, on seeded
blocks of the sweep_k1 workload (line-of-sight prior) from -10 to 20 dB.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import aoavi.harness as H  # noqa: E402
import workloads as W  # noqa: E402
from aoavi.preprocess import _steering_products, sector_grid  # noqa: E402
from aoavi.signal_model import AoAVector, array_matrix  # noqa: E402

SCAN_POINTS = 60001


def _free_energy(obs, prior, a_r_a, q):
    """F from the two statistics it reads Y through: a^H R a for R = Y Y^H,
    and q = conj(s) @ a = conj(a^H s) for s = Y 1."""
    y = obs.signal
    n, m = y.shape
    s2 = obs.noise_variance
    mu = complex(prior.mean[0])
    var = float(prior.covariance[0, 0].real)
    cross = 2 * (mu * q).real  # 2 Re(conj(mu) a^H s)
    z_sq = np.vdot(y, y).real - cross + m * n * abs(mu) ** 2
    az_sq = a_r_a - n * cross + m * n**2 * abs(mu) ** 2
    return (z_sq - az_sq / (s2 / var + n)) / s2 + m * math.log1p(var * n / s2)


def _free_energy_scan(obs, prior, grid):
    """F at every grid angle from one two-row kernel call: a^H R a is
    Re(c @ a) with c_0 = r_0 and c_l = 2 conj(r_l), where r_l are the
    diagonal sums sum_n R[n+l, n], and q has the coefficients conj(s)."""
    y = obs.signal
    r = y @ y.conj().T
    lags = np.array([np.trace(r, offset=-lag) for lag in range(y.shape[0])])
    rows = np.vstack((2 * lags.conj(), np.sum(y, axis=1).conj()))
    rows[0, 0] = lags[0]
    a_r_a = np.empty(grid.n_points)
    q = np.empty(grid.n_points, dtype=complex)
    for cols, proj in _steering_products(rows, obs.array, grid):
        a_r_a[cols] = proj[0].real
        q[cols] = proj[1]
    return _free_energy(obs, prior, a_r_a, q)


def _free_energy_at(obs, prior, theta):
    """F at one angle from its steering vector, with no polynomial form."""
    a = array_matrix(obs.array, AoAVector([theta]))[:, 0]
    y_h_a = obs.signal.conj().T @ a
    q = np.sum(obs.signal, axis=1).conj() @ a
    return _free_energy(obs, prior, np.vdot(y_h_a, y_h_a).real, q)


def test_single_user_estimate_is_the_global_minimum_of_f():
    """10 trials at each of -10, 0, 10 and 20 dB, seed 301: the closed form
    equals the final trace total to 1e-12 relative, and that total is not
    above F's minimum over 60001 sector angles by more than 1e-9 relative."""
    config = W.WORKLOADS["sweep_k1"].scenario_configs(301)[0]
    scenario = H.scenario_from_dict(
        dict(config, snr_db_list=[-10.0, 0.0, 10.0, 20.0], n_trials=10)
    )
    scan = sector_grid(scenario.sector, scenario.sector.width / (SCAN_POINTS - 1))
    assert scan.n_points == SCAN_POINTS
    for snr_index in range(len(scenario.snr_db_list)):
        for trial in range(scenario.n_trials):
            *_, obs = H._trial_block(scenario, snr_index, trial)
            result = H._estimate(scenario, obs)
            total = result.loss_trace[-1].total
            theta = result.state.aoa_estimate.angles[0]
            closed = _free_energy_at(obs, scenario.prior, theta)
            assert abs(closed - total) <= 1e-12 * total, (snr_index, trial)
            lowest = _free_energy_scan(obs, scenario.prior, scan).min()
            assert total <= lowest + 1e-9 * abs(lowest), (snr_index, trial, total, lowest)
