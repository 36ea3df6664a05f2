"""Per-observation variational estimator.

The channel path has an exact coordinate minimizer (a ridge-regularized
projection), so it is updated in closed form. The AoA path moves by projected
gradient descent with a backtracking line search. Starting from the
pseudo-labels, the two alternate, so the overall objective never increases.

Each observation is optimized independently; nothing is amortized across
observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .loss import (
    LossBreakdown,
    VariationalState,
    _reconstruction_sum_raw,
    kl_gaussian,
    recover_path_parameters,
)
from .preprocess import AngleGrid, Sector, pseudo_labels
from .signal_model import AoAVector, ChannelPrior, ObservationSet, array_matrix

# backtracking limits; not part of the public config
_MAX_HALVINGS = 40
_MAX_FIRST_STEP_RAD = math.radians(0.5)
_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the alternating optimizer.

    aoa_step_size is radians per unit gradient before backtracking;
    max_outer_iterations bounds the loss trace length, counting the
    initial entry at the starting AoAs. The optimizer stops once the AoA
    gradient max-norm falls below aoa_gradient_tolerance or one iteration
    lowers the loss by less than loss_tolerance.
    """

    aoa_step_size: float = 1e-2
    max_outer_iterations: int = 500
    aoa_gradient_tolerance: float = 1e-7
    loss_tolerance: float = 1e-10

    def __post_init__(self):
        if not (self.aoa_step_size > 0 and self.aoa_gradient_tolerance > 0):
            raise ValueError("step size and gradient tolerance must be positive")
        if not self.loss_tolerance > 0:
            raise ValueError("loss_tolerance must be positive")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


@dataclass(frozen=True)
class EstimationResult:
    """Final posterior state plus the optimization record.

    loss_trace holds one LossBreakdown per outer iteration and its totals
    are non-increasing within 1e-9 absolute slack (enforced here).
    """

    state: VariationalState
    loss_trace: tuple[LossBreakdown, ...]
    converged: bool
    iterations_used: int
    path_gains: np.ndarray
    path_angles: np.ndarray

    def __post_init__(self):
        totals = [b.total for b in self.loss_trace]
        for earlier, later in zip(totals, totals[1:]):
            if later > earlier + 1e-9:
                raise ValueError("loss trace must be non-increasing (1e-9 slack)")


def closed_form_channel_update(
    obs: ObservationSet, aoa_estimate: AoAVector, prior: ChannelPrior
) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimizer of the loss over the channel posterior at fixed AoAs.

    Per snapshot m:

        mean_m = (A^H A + s2 P)^-1 (A^H y_m + s2 P mu_h)
        cov    = (P + A^H A / s2)^-1 = s2 (A^H A + s2 P)^-1

    with P the prior precision and s2 the noise variance. The same inverse
    serves both, so every snapshot gets the same covariance. At s2 = 0 the
    limit is the pseudo-inverse projection mean_m = A^+ y_m with zero
    covariance.

    Returns (means K x M, covariances M x K x K).
    """
    a_hat = array_matrix(obs.array, aoa_estimate)
    k = aoa_estimate.k_users
    m = obs.n_snapshots
    s2 = obs.noise_variance
    y = obs.signal

    if s2 == 0.0:
        means = np.linalg.pinv(a_hat) @ y
        covs = np.zeros((m, k, k), dtype=complex)
        return means, covs

    gram = a_hat.conj().T @ a_hat
    aty = a_hat.conj().T @ y

    prec = np.linalg.inv(prior.covariance)
    prec = 0.5 * (prec + prec.conj().T)
    lhs = gram + s2 * prec
    rhs = aty + (s2 * (prec @ prior.mean))[:, None]
    means = np.linalg.solve(lhs, rhs)
    cov = s2 * np.linalg.inv(lhs)
    cov = 0.5 * (cov + cov.conj().T)
    covs = np.broadcast_to(cov, (m, k, k)).copy()
    return means, covs


def _aoa_gradient_raw(
    signal: np.ndarray,
    array,
    angles: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    noise_variance: float,
    normalized: bool,
) -> np.ndarray:
    a_hat = array_matrix(array, AoAVector(angles))
    n = array.n_antennas
    # phase-slope vector per user: 2*pi*(d/lambda)*cos(theta_k) * [0..N-1]
    slope = 2.0 * np.pi * array.spacing_ratio * np.cos(angles)
    d_mat = a_hat * (np.arange(n)[:, None] * slope[None, :])

    resid = a_hat @ means - signal
    cross = np.conj(resid).T @ d_mat
    term1 = np.imag(np.sum(means.T * cross, axis=0))

    cov_sum = covs.sum(axis=0)
    term2 = np.imag(np.sum(d_mat * np.conj(a_hat @ cov_sum), axis=0))

    grad = 2.0 * (term1 + term2)
    if normalized:
        grad = grad / noise_variance
    return grad


def aoa_gradient_observed(
    obs: ObservationSet, state: VariationalState, *, normalized: bool = True
) -> np.ndarray:
    """Exact gradient of the loss with respect to each AoA estimate.

    The divergence part of the loss does not involve the AoAs, so only the
    reconstruction term contributes. normalized=False differentiates the
    unnormalized reconstruction sum instead (the zero-noise objective);
    normalized=True requires a positive noise variance. Matches central
    finite differences to first order.
    """
    if normalized and obs.noise_variance == 0:
        raise ValueError("normalized gradient undefined at zero noise variance")
    return _aoa_gradient_raw(
        obs.signal,
        obs.array,
        state.aoa_estimate.angles,
        state.channel_means,
        state.channel_covariances,
        obs.noise_variance,
        normalized,
    )


def _sector_bounds(sector: Sector) -> tuple[float, float]:
    return max(sector.lo, -_HALF_PI), min(sector.hi, _HALF_PI)


def _backtrack(
    signal: np.ndarray,
    array,
    angles: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    gradient: np.ndarray,
    step0: float,
    lo: float,
    hi: float,
    base_recon: float,
) -> tuple[np.ndarray, float, bool]:
    """One projected descent step on the AoAs at fixed channel parameters.

    The candidate clip(angles - step * gradient, lo, hi) is accepted once
    the reconstruction sum stops increasing, halving the step up to 40
    times. Returns (angles, reconstruction sum, accepted); step underflow
    returns the input angles and base_recon with accepted=False.

    Comparison uses the unnormalized sum: the divergence term is fixed
    during an AoA move and the 1/sigma^2 factor is order-preserving.
    """
    gmax = float(np.max(np.abs(gradient)))
    if gmax == 0.0:
        return angles, base_recon, True
    # keep the first trial displacement physically small
    step = min(step0, _MAX_FIRST_STEP_RAD / gmax)
    for _ in range(_MAX_HALVINGS + 1):
        trial = np.clip(angles - step * gradient, lo, hi)
        recon = _reconstruction_sum_raw(signal, array, trial, means, covs)
        if recon <= base_recon:
            return trial, recon, True
        step *= 0.5
    return angles, base_recon, False


def estimate(
    obs: ObservationSet,
    prior: ChannelPrior,
    sector: Sector,
    grid: Optional[AngleGrid] = None,
    cfg: OptimizerConfig = OptimizerConfig(),
    *,
    initial_aoas: Optional[Sequence[float]] = None,
    suppression_radius: float = 0.0,
) -> EstimationResult:
    """Estimate the AoAs and channel posterior of one observation block.

    The AoAs start at the pseudo-labels computed on `grid` (or at
    `initial_aoas` when given, which disables pseudo-labeling), and the
    channel posterior is solved there in closed form; that state is the
    first loss-trace entry. Then gradient descent on the AoAs alternates
    with the closed-form channel update until the gradient max-norm falls
    below aoa_gradient_tolerance, one iteration lowers the loss by less
    than loss_tolerance, or the trace holds max_outer_iterations entries.

    At zero noise variance the objective is the plain reconstruction sum
    (the noise-scaled loss limit) and the divergence term is reported as 0.
    """
    k = prior.k_users
    s2 = obs.noise_variance
    lo, hi = _sector_bounds(sector)

    if initial_aoas is not None:
        start = np.sort(np.asarray(initial_aoas, dtype=float).reshape(-1))
        if start.size != k:
            raise ValueError("initial_aoas must supply one angle per user")
    else:
        if grid is None:
            raise ValueError("need a pseudo-label grid when initial_aoas is not given")
        labels = pseudo_labels(obs, grid, k, suppression_radius=suppression_radius)
        start = np.asarray(labels.angles, dtype=float)
    angles = np.clip(start, lo, hi)

    def breakdown(means, covs, recon_raw) -> LossBreakdown:
        if s2 == 0.0:
            return LossBreakdown.from_parts(0.0, recon_raw)
        return LossBreakdown.from_parts(kl_gaussian(means, covs[0], prior), recon_raw / s2)

    means, covs = closed_form_channel_update(obs, AoAVector(angles), prior)
    recon_raw = _reconstruction_sum_raw(obs.signal, obs.array, angles, means, covs)
    trace = [breakdown(means, covs, recon_raw)]

    converged = False
    for _ in range(cfg.max_outer_iterations - 1):
        grad = _aoa_gradient_raw(obs.signal, obs.array, angles, means, covs, s2, s2 > 0)
        if float(np.max(np.abs(grad))) < cfg.aoa_gradient_tolerance:
            converged = True
            break
        angles, recon_raw, _accepted = _backtrack(
            obs.signal, obs.array, angles, means, covs, grad, cfg.aoa_step_size, lo, hi, recon_raw
        )
        means, covs = closed_form_channel_update(obs, AoAVector(angles), prior)
        recon_raw = _reconstruction_sum_raw(obs.signal, obs.array, angles, means, covs)
        trace.append(breakdown(means, covs, recon_raw))
        if trace[-2].total - trace[-1].total < cfg.loss_tolerance:
            converged = True
            break

    state = VariationalState(
        aoa_estimate=AoAVector(angles), channel_means=means, channel_covariances=covs
    )
    path_gains, path_angles = recover_path_parameters(means)
    return EstimationResult(
        state=state,
        loss_trace=tuple(trace),
        converged=converged,
        iterations_used=len(trace),
        path_gains=path_gains,
        path_angles=path_angles,
    )
