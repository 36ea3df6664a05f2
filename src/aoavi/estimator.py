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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .loss import LossBreakdown, VariationalState, _breakdown, _reconstruction_sum_raw
from .preprocess import AngleGrid, Sector, pseudo_labels
from .signal_model import AoAVector, ChannelPrior, ObservationSet, _antenna_index, array_matrix

# backtracking limits; not part of the public config
_MAX_HALVINGS = 40
_MAX_FIRST_STEP_RAD = math.radians(0.5)

# why estimate() stopped; only the first two count as converged
STOP_REASONS = ("gradient", "loss_plateau", "line_search_stall", "budget")


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the alternating optimizer.

    max_outer_iterations bounds the loss trace length, counting the initial
    entry at the starting AoAs. The optimizer stops once the AoA gradient
    max-norm falls below aoa_gradient_tolerance or one iteration lowers the
    loss by less than loss_tolerance. The line search has no step knob: its
    first trial is set by the 0.5-degree cap (see estimate).
    """

    max_outer_iterations: int = 500
    aoa_gradient_tolerance: float = 1e-7
    loss_tolerance: float = 1e-10

    def __post_init__(self):
        for name in ("aoa_gradient_tolerance", "loss_tolerance"):
            if isinstance(getattr(self, name), bool) or not getattr(self, name) > 0:
                raise ValueError(f"{name} must be a positive number")
        n = self.max_outer_iterations
        if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValueError("max_outer_iterations must be an integer >= 1")


@dataclass(frozen=True)
class EstimationResult:
    """Final posterior state plus the optimization record.

    loss_trace holds one LossBreakdown per outer iteration and its totals
    are non-increasing within 1e-9 absolute slack (enforced here).
    stop_reason is one of STOP_REASONS: the gradient fell below its
    tolerance, one iteration lowered the loss by less than loss_tolerance,
    the line search stalled, or the trace reached max_outer_iterations.
    line_search_evaluations counts the trial reconstruction sums the line
    searches scored. converged and iterations_used (the trace length) are
    derived on access.
    """

    state: VariationalState
    loss_trace: tuple[LossBreakdown, ...]
    stop_reason: str
    line_search_evaluations: int

    @property
    def converged(self) -> bool:
        return self.stop_reason in STOP_REASONS[:2]

    @property
    def iterations_used(self) -> int:
        return len(self.loss_trace)

    def __post_init__(self):
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"stop_reason must be one of {STOP_REASONS}")
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

    with P the prior precision and s2 the noise variance. One solve of the
    K x K system A^H A + s2 P against the right-hand sides and the identity
    side by side factorizes it once and gives both, so every snapshot gets
    the same covariance. At s2 = 0 the limit is the pseudo-inverse
    projection mean_m = A^+ y_m with zero covariance.

    Returns (means K x M, the shared covariance K x K).
    """
    a_hat = array_matrix(obs.array, aoa_estimate)
    k = aoa_estimate.k_users
    s2 = obs.noise_variance
    y = obs.signal

    if s2 == 0.0:
        return np.linalg.pinv(a_hat) @ y, np.zeros((k, k), dtype=complex)

    a_h = a_hat.conj().T
    gram = a_h @ a_hat
    aty = a_h @ y

    lhs = gram + s2 * prior.precision
    rhs = aty + (s2 * prior.precision_mean)[:, None]
    sol = np.linalg.solve(lhs, np.hstack((rhs, np.eye(k))))
    means = sol[:, :-k]
    cov = s2 * sol[:, -k:]
    cov = 0.5 * (cov + cov.conj().T)
    return means, cov


def _aoa_gradient_raw(
    signal: np.ndarray,
    array,
    angles: np.ndarray,
    means: np.ndarray,
    cov: np.ndarray,
    noise_variance: float,
) -> np.ndarray:
    """Exact gradient of the reconstruction sum with respect to each AoA,
    divided by noise_variance when it is positive (the loss term's
    gradient; the divergence part does not involve the AoAs)."""
    a_hat = array_matrix(array, AoAVector(angles))
    # phase-slope vector per user: 2*pi*(d/lambda)*cos(theta_k) * [0..N-1]
    slope = 2.0 * np.pi * array.spacing_ratio * np.cos(angles)
    d_mat = a_hat * (_antenna_index(array.n_antennas) * slope[None, :])

    resid = a_hat @ means - signal
    cross = resid.conj().T @ d_mat
    term1 = (means.T * cross).sum(axis=0).imag

    # sum_m Cov_m = M Cov
    term2 = (d_mat * (a_hat @ (means.shape[1] * cov)).conj()).sum(axis=0).imag

    grad = 2.0 * (term1 + term2)
    if noise_variance > 0:
        grad = grad / noise_variance
    return grad


class _LineSearch(NamedTuple):
    """Outcome of one backtracking search. step is the accepted multiplier
    of the gradient, 0.0 on a stall (the angles did not move); trials
    counts the reconstruction sums scored."""

    angles: np.ndarray
    recon: float
    step: float
    trials: int


def _backtrack(
    signal: np.ndarray,
    array,
    angles: np.ndarray,
    means: np.ndarray,
    cov: np.ndarray,
    gradient: np.ndarray,
    step0: float,
    lo: float,
    hi: float,
    base_recon: float,
) -> _LineSearch:
    """One projected descent step on the AoAs at fixed channel parameters.

    The candidate clip(angles - step * gradient, lo, hi) is accepted once
    the reconstruction sum stops increasing, starting from step0 (capped so
    no AoA moves more than 0.5 deg) and halving up to 40 times. Step
    underflow returns the input angles and base_recon with step 0.0, and so
    does a gradient that is not finite, without scoring a trial. The
    gradient must not be all zeros: estimate() stops on its positive
    gradient tolerance before that.

    Comparison uses the unnormalized sum: the divergence term is fixed
    during an AoA move and the 1/sigma^2 factor is order-preserving.
    """
    gmax = float(np.abs(gradient).max())
    if not math.isfinite(gmax):
        return _LineSearch(angles, base_recon, 0.0, 0)
    step = min(_MAX_FIRST_STEP_RAD / gmax, step0)
    for trials in range(1, _MAX_HALVINGS + 2):
        trial = (angles - step * gradient).clip(lo, hi)
        recon = _reconstruction_sum_raw(signal, array, trial, means, cov)
        if recon <= base_recon:
            return _LineSearch(trial, recon, step, trials)
        step *= 0.5
    return _LineSearch(angles, base_recon, 0.0, _MAX_HALVINGS + 1)


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
    Only the first two count as converged. A line search that cannot lower
    the loss in 40 halvings stops the descent unconverged, before the
    channel update, so no repeated trace entry is appended.

    The first line search starts at the cap, which moves the AoA with the
    largest gradient entry by 0.5 deg; each later one starts from the step
    the previous one accepted, scaled by the ratio of squared gradient norms
    (Nocedal & Wright, Numerical Optimization, eq. 3.60), under the same cap.
    The norms are scaled by powers of two, so the ratio stays finite where
    a squared norm would overflow.

    Each trace entry equals total_loss at its state, also at zero noise
    variance, where the divergence term is reported as 0.
    """
    k = prior.k_users
    s2 = obs.noise_variance
    lo, hi = sector.lo, sector.hi

    if initial_aoas is not None:
        start = np.sort(np.asarray(initial_aoas, dtype=float).reshape(-1))
        if start.size != k:
            raise ValueError("initial_aoas must supply one angle per user")
    else:
        if grid is None:
            raise ValueError("need a pseudo-label grid when initial_aoas is not given")
        start = pseudo_labels(obs, grid, k, suppression_radius=suppression_radius).angles
    angles = np.clip(start, lo, hi)

    trace = []
    evaluations = 0
    # the last accepted step (inf: the cap) and its |g|^2 = s * 4**e
    last_step, last_s, last_e = math.inf, 1.0, 0
    while True:
        means, cov = closed_form_channel_update(obs, AoAVector(angles), prior)
        recon_raw = _reconstruction_sum_raw(obs.signal, obs.array, angles, means, cov)
        trace.append(_breakdown(prior, means, cov, recon_raw, s2))
        if len(trace) > 1 and trace[-2].total - trace[-1].total < cfg.loss_tolerance:
            stop_reason = "loss_plateau"
            break
        if len(trace) == cfg.max_outer_iterations:
            stop_reason = "budget"
            break
        grad = _aoa_gradient_raw(obs.signal, obs.array, angles, means, cov, s2)
        gmax = float(np.abs(grad).max())
        if gmax < cfg.aoa_gradient_tolerance:
            stop_reason = "gradient"
            break
        # |g|^2 = s * 4**e with max|g| * 2**-e in [0.5, 1): the power-of-two
        # scaling is exact, and s stays finite where |g|^2 would overflow
        e = math.frexp(gmax)[1]
        scaled = np.ldexp(grad, -e)
        s = float(scaled @ scaled)
        try:
            step0 = math.ldexp(last_step * last_s / s, 2 * (last_e - e))
        except OverflowError:  # beyond the float range: the cap applies
            step0 = math.inf
        search = _backtrack(
            obs.signal, obs.array, angles, means, cov, grad, step0, lo, hi, recon_raw
        )
        evaluations += search.trials
        if search.step == 0.0:
            # a stalled line search leaves the angles unchanged; the
            # repeated loss would otherwise pass the decrement test
            stop_reason = "line_search_stall"
            break
        angles, last_step, last_s, last_e = search.angles, search.step, s, e

    state = VariationalState(
        aoa_estimate=AoAVector(angles), channel_means=means, channel_covariance=cov
    )
    return EstimationResult(
        state=state,
        loss_trace=tuple(trace),
        stop_reason=stop_reason,
        line_search_evaluations=evaluations,
    )
