"""Per-observation variational estimator.

The channel path has an exact coordinate minimizer (a ridge-regularized
projection), so it is updated in closed form. The AoA path moves by projected
gradient descent with a backtracking line search that starts at the
Barzilai-Borwein step (half of it for a single user, whose trial sums are 2 to
4 times as curved as the objective). Starting from the pseudo-labels, the two
alternate, so the overall objective never increases; the run stops once one
iteration lowers it by less than a relative 1e-12.

Each observation is optimized independently; nothing is amortized across
observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .loss import LossBreakdown, VariationalState, _reconstruction_sum_raw, _state_loss
from .preprocess import AngleGrid, Sector, pseudo_labels
from .signal_model import AoAVector, ChannelPrior, ObservationSet, array_matrix

# backtracking limits and stop tolerances; not part of the public config
_MAX_HALVINGS = 40
_MAX_FIRST_STEP_RAD = math.radians(0.5)
_GRADIENT_TOLERANCE = 1e-7  # on the AoA gradient max-norm, divided by sigma^2
_LOSS_RTOL = 1e-12  # on one iteration's loss decrement, relative to |loss|

# why estimate() stopped; only the first two count as converged
STOP_REASONS = ("gradient", "loss_plateau", "line_search_stall", "budget")


@dataclass(frozen=True)
class OptimizerConfig:
    """The alternating optimizer's one knob.

    max_outer_iterations bounds the loss trace length, counting the initial
    entry at the starting AoAs. The stop tolerances and the line search's
    first step are fixed (see estimate).
    """

    max_outer_iterations: int = 500

    def __post_init__(self):
        n = self.max_outer_iterations
        if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValueError("max_outer_iterations must be an integer >= 1")


@dataclass(frozen=True)
class EstimationResult:
    """Final posterior state plus the optimization record.

    loss_trace holds one LossBreakdown per outer iteration and its totals
    are exactly non-increasing. A rising trace or an unknown stop reason is
    a defect, not a numerical failure, so it raises AssertionError.
    stop_reason is one of STOP_REASONS: the gradient fell below its
    tolerance, one iteration lowered the loss by less than its tolerance,
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
        # explicit raises, which python -O keeps
        if self.stop_reason not in STOP_REASONS:
            raise AssertionError(f"stop_reason must be one of {STOP_REASONS}")
        totals = [b.total for b in self.loss_trace]
        for earlier, later in zip(totals, totals[1:]):
            if later > earlier:
                raise AssertionError("loss trace must be non-increasing")


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
    below 1e-7, one iteration lowers the loss by less than 1e-12 times its
    magnitude, or the trace holds max_outer_iterations entries.
    Only the first two count as converged.

    Each AoA move is a projected backtracking search at the fixed channel:
    a trial clip(angles - step * gradient, lo, hi) is accepted once its
    reconstruction sum does not rise, else the step halves. Trials compare
    unnormalized sums, as the divergence term is fixed during an AoA move
    and 1/sigma^2 preserves order. The first search starts at the cap,
    which moves the AoA with the largest gradient entry by 0.5 deg; from
    pseudo-labels, the cap is 0.5 deg halved until it is no larger than the
    grid step (0.5 deg / 64 on a 0.01-deg grid), as a pseudo-label lies
    within about one grid step of the minimum. A single user's label is
    interpolated between grid angles and lies closer (0.07 of a step at
    p90 on the benchmark's K = 1 blocks), so there the cap is halved until
    it is no larger than a sixteenth of the step (0.5 deg / 16 on a 0.5-deg
    grid, 0.5 deg / 1024 on a 0.01-deg grid). Each later search starts at the
    shorter of the 0.5-deg cap and the Barzilai-Borwein step s.y / y.y
    (BB2; IMA J. Numer. Anal. 8, 1988): s is the last accepted move of the
    AoAs and y the change of the gradient over it. At the closed-form
    channel the gradient is that of the objective (envelope theorem), so the
    step reads its curvature along s. For a single user it starts at half
    the BB2 step: there the fixed-channel trial sum is 2(2N-1)/(N+1) times
    as curved as the objective, so the full step overshoots the no-rise
    bound and is rejected (in all but a few searches). A quotient that is
    not a positive float falls back to the cap. Both gradients are scaled by
    one power of two before y is formed, so y.y stays finite where the
    unscaled one would overflow. A gradient that is not finite (no trial is
    scored), 40 halvings without an acceptable step, or an accepted step of
    0.0 stop the descent as line_search_stall, before the channel update, so
    no repeated trace entry is appended.

    A state whose loss is above the last entry's (a rise in round-off) is
    not appended: the run stops as loss_plateau at the last entry's state,
    so the trace is exactly non-increasing. Each trace entry equals
    total_loss at its state, also at zero noise variance, where the
    divergence term is reported as 0.
    """
    k = prior.k_users
    lo, hi = sector.lo, sector.hi

    first_cap = _MAX_FIRST_STEP_RAD
    if initial_aoas is not None:
        start = np.sort(np.asarray(initial_aoas, dtype=float).reshape(-1))
        if start.size != k:
            raise ValueError("initial_aoas must supply one angle per user")
    else:
        if grid is None:
            raise ValueError("need a pseudo-label grid when initial_aoas is not given")
        start = pseudo_labels(obs, grid, k, suppression_radius=suppression_radius).angles
        limit = grid.step / 16 if k == 1 else grid.step
        while first_cap > limit:
            first_cap *= 0.5
    angles = np.clip(start, lo, hi)

    trace = []
    evaluations = 0
    prev = None  # (angles, gradient, max|gradient|) before the last move
    while True:
        channel = closed_form_channel_update(obs, AoAVector(angles), prior)
        entry, recon_raw, grad = _state_loss(obs, prior, angles, *channel)
        if trace and entry.total > trace[-1].total:
            # a rise in round-off (seen at large M): stop at the last entry's state
            angles = prev[0]
            stop_reason = "loss_plateau"
            break
        means, cov = channel
        trace.append(entry)
        if len(trace) > 1 and trace[-2].total - entry.total < _LOSS_RTOL * abs(entry.total):
            stop_reason = "loss_plateau"
            break
        if len(trace) == cfg.max_outer_iterations:
            stop_reason = "budget"
            break
        gmax = float(np.abs(grad).max())
        if gmax < _GRADIENT_TOLERANCE:
            stop_reason = "gradient"
            break
        if not math.isfinite(gmax):
            stop_reason = "line_search_stall"
            break
        if prev is None:
            step = first_cap / gmax
        else:
            step = _MAX_FIRST_STEP_RAD / gmax
            # y = g - g_prev from both gradients scaled by 2**-e, so that
            # neither y nor y @ y overflows; s @ y / y @ y is then the BB2
            # step times 2**e. e >= 0, so 2.0**-e cannot overflow.
            e = max(math.frexp(max(gmax, prev[2]))[1], 0)
            s = angles - prev[0]
            y = np.ldexp(grad, -e) - np.ldexp(prev[1], -e)
            yy = float(y @ y)
            bb = float(s @ y) / yy * 2.0**-e if yy > 0 else 0.0
            if bb > 0:  # else the cap
                step = min(step, 0.5 * bb if k == 1 else bb)
        for _ in range(_MAX_HALVINGS + 1):
            evaluations += 1
            trial = (angles - step * grad).clip(lo, hi)
            if _reconstruction_sum_raw(obs.signal, obs.array, trial, means, cov) <= recon_raw:
                break
            step *= 0.5
        else:
            step = 0.0
        if step == 0.0:
            # an accepted zero step (halved to underflow) would repeat the trace
            # entry, which the decrement test would read as a plateau
            stop_reason = "line_search_stall"
            break
        prev, angles = (angles, grad, gmax), trial

    state = VariationalState(
        aoa_estimate=AoAVector(angles), channel_means=means, channel_covariance=cov
    )
    return EstimationResult(
        state=state,
        loss_trace=tuple(trace),
        stop_reason=stop_reason,
        line_search_evaluations=evaluations,
    )
