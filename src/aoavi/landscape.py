"""Loss-landscape analysis for the noise-averaged (population) objective.

Three kinds of structure are exposed:

* the full set of global optima of the AoA slice, which form an arcsine
  lattice in sin(theta) with pitch lambda/d (aliases beyond the true angle
  exist whenever the element spacing exceeds half a wavelength);
* stationary points of the single-user accurate-channel slice, located by
  a sign-change scan plus bisection of the large-N stationary condition

      cos(th) * [ cos(z*(N-1))/z - cos(e*(N-1))/e ] = 0,
      z = 2*a*sin(th),  e = a*(sin(theta_true) + sin(th)),  a = 2*pi*d/lambda,

  whose 1/z and 1/e poles are genuine (the underlying finite sum stays
  bounded there, the asymptotic ratio does not), so a guard band around
  each pole falls back to the exact finite sum;
* dense grid evaluations of the population loss over one or two chosen
  coordinates with everything else held at the truth.

The exact finite-N derivative of the population slice is also provided,
both as a gradient oracle and as the reference the asymptotic condition is
judged against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .preprocess import _MAX_GRID_POINTS, AngleGrid
from .signal_model import AoAVector, ArrayConfig, ChannelRealization, array_matrix, _frozen, _steering

_HALF_PI = math.pi / 2.0
# |detector value| every returned root must satisfy
_RESIDUAL_TOL = 1e-8
# bracket width at which bisection may stop, radians
_ROOT_TOL = 1e-10
# half-width of the pole guard bands, radians
_GUARD_BAND = 1e-3
# roots this close to the true angle are the optimum, not traps
_TRUE_ANGLE_WINDOW = 1e-4
# complex elements in one surface block's largest temporary (128 KiB)
_SURFACE_BLOCK = 1 << 13


@dataclass(frozen=True)
class GlobalOptimaSet:
    """All AoA values indistinguishable from the true angle at the array.

    alias_angles is ascending and always contains the true angle
    (integer index 0); alias_integers holds the matching lattice index l
    with sin(alias) = sin(true) - l * lambda / d.
    """

    true_angle: float
    alias_angles: tuple[float, ...]
    alias_integers: tuple[int, ...]
    spacing_ratio: float

    def __post_init__(self):
        angles = np.asarray(self.alias_angles, dtype=float)
        ints = self.alias_integers
        if angles.size != len(ints):
            raise ValueError("one lattice integer per alias required")
        if np.any(np.diff(angles) <= 0):
            raise ValueError("alias_angles must be strictly ascending")
        if not np.any(np.abs(angles - self.true_angle) < 1e-12):
            raise ValueError("the true angle must be among the aliases")
        lam_over_d = 1.0 / self.spacing_ratio
        target = np.sin(self.true_angle) - np.asarray(ints, dtype=float) * lam_over_d
        if np.max(np.abs(np.sin(angles) - target)) > 1e-12:
            raise ValueError("alias must satisfy the sin-lattice condition to 1e-12")


@dataclass(frozen=True)
class StationaryPointSet:
    """Roots of the asymptotic stationary condition, ascending.

    residuals[i] is the absolute detector value at angles[i]: the
    asymptotic left-hand side away from its poles, the exact finite sum
    scaled by 1/(N-1) inside the pole guard bands. Every residual is
    below 1e-8 by construction.
    """

    angles: tuple[float, ...]
    residuals: tuple[float, ...]

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        if np.any(np.diff(angles) <= 0):
            raise ValueError("angles must be strictly ascending")
        if len(self.residuals) != angles.size:
            raise ValueError("one residual per angle required")
        if any(not (r < _RESIDUAL_TOL) for r in self.residuals):
            raise ValueError("all residuals must be below the solver tolerance")


@dataclass(frozen=True)
class AxisSpec:
    """One varied coordinate of a loss surface.

    target "aoa" varies the AoA estimate of user_index; "path_angle"
    varies that user's estimated path angle, applied to every snapshot
    while magnitudes stay at truth.
    """

    target: str
    user_index: int
    start: float
    stop: float
    num: int

    def __post_init__(self):
        if self.target not in ("aoa", "path_angle"):
            raise ValueError("target must be 'aoa' or 'path_angle'")
        if self.user_index < 0:
            raise ValueError("user_index must be non-negative")
        if not self.start < self.stop:
            raise ValueError("need start < stop")
        if self.num < 2:
            raise ValueError("need at least two grid points")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.num)


@dataclass(frozen=True)
class LossSurface:
    """Dense population-loss values over the axes' Cartesian grid,
    row-major: values[i, j] pairs axes[0].values()[i] with
    axes[1].values()[j]. A read-only float array is kept as given; any
    other input is copied and locked."""

    axes: tuple[AxisSpec, ...]
    values: np.ndarray

    def __post_init__(self):
        expect = tuple(ax.num for ax in self.axes)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != expect:
            raise ValueError("values shape must match the axis resolutions")
        if vals.flags.writeable:
            vals = _frozen(vals)
        object.__setattr__(self, "values", vals)


def enumerate_global_optima(array: ArrayConfig, true_angle: float) -> GlobalOptimaSet:
    """Every angle in [-pi/2, pi/2] whose steering vector matches the true
    one up to per-element phase wrapping.

    sin(alias) = sin(true) - l * lambda/d for every integer l keeping the
    right side in [-1, 1]. Half-wavelength spacing admits only l = 0.
    """
    if not abs(true_angle) <= _HALF_PI:  # NaN fails too
        raise ValueError("true_angle must lie in [-pi/2, pi/2]")
    r = array.spacing_ratio
    s = math.sin(true_angle)
    # tolerate float dust on exactly-integer bounds in both directions
    l_lo = math.ceil(r * (s - 1.0) - 1e-9)
    l_hi = math.floor(r * (s + 1.0) + 1e-9)
    angles = []
    integers = []
    for l in range(l_lo, l_hi + 1):
        sin_hat = s - l / r
        if abs(sin_hat) > 1.0 + 1e-12:
            continue
        if l == 0:
            angle = true_angle
        else:
            angle = math.asin(min(1.0, max(-1.0, sin_hat)))
        angles.append(angle)
        integers.append(l)
    order = np.argsort(angles)
    return GlobalOptimaSet(
        true_angle=true_angle,
        alias_angles=tuple(float(angles[i]) for i in order),
        alias_integers=tuple(int(integers[i]) for i in order),
        spacing_ratio=r,
    )


def _eta_zeta(array: ArrayConfig, true_angle: float, theta_hat: np.ndarray):
    alpha = 2.0 * np.pi * array.spacing_ratio
    eta = alpha * (np.sin(true_angle) + np.sin(theta_hat))
    zeta = 2.0 * alpha * np.sin(theta_hat)
    return eta, zeta


def stationary_condition_lhs(array: ArrayConfig, true_angle: float, theta_hat) -> np.ndarray:
    """Left-hand side of the large-N stationary condition. Diverges at the
    poles zeta = 0 (estimate at broadside) and eta = 0 (estimate at the
    mirrored true angle); values there come back as +-inf or nan."""
    th = np.asarray(theta_hat, dtype=float)
    eta, zeta = _eta_zeta(array, true_angle, th)
    n1 = array.n_antennas - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.cos(th) * (np.cos(zeta * n1) / zeta - np.cos(eta * n1) / eta)
    return float(out) if np.isscalar(theta_hat) else out


def stationary_condition_finite_sum(array: ArrayConfig, true_angle: float, theta_hat) -> np.ndarray:
    """The exact finite sum the asymptotic condition approximates (after
    division by N-1):

        cos(th) * sum_{n=0}^{N-1} n * [sin(e*n) - sin(z*n)].

    Bounded everywhere, including at the asymptotic form's poles. Each
    point's value is bit-identical whether it is evaluated alone or in a
    vector.
    """
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    eta, zeta = _eta_zeta(array, true_angle, th)
    n = np.arange(array.n_antennas, dtype=float)
    term = np.sin(np.outer(eta, n)) - np.sin(np.outer(zeta, n))
    # a row-wise sum, not a matrix-vector product, so each point's value
    # does not depend on how many points are evaluated with it
    out = np.cos(th) * np.add.reduce(term * n, axis=1)
    return float(out[0]) if np.isscalar(theta_hat) else out


def exact_population_gradient(
    array: ArrayConfig, true_angle: float, channel_power: float, estimate: float
) -> float:
    """Exact derivative of the single-user accurate-channel population loss
    with respect to the AoA estimate.

    d/dth sum_m |h_m|^2 * ||a(true) - a(th)||^2
        = -2 * P * sum_{n=0}^{N-1} (a*n*cos th) * sin(a*n*(sin(true) - sin(th)))

    with a = 2*pi*d/lambda and P the summed channel power. Matches central
    finite differences of the population loss; zero at the true angle and
    at +-pi/2.
    """
    alpha = 2.0 * np.pi * array.spacing_ratio
    n = np.arange(array.n_antennas, dtype=float)
    gap = math.sin(true_angle) - math.sin(estimate)
    series = float(np.dot(alpha * n * math.cos(estimate), np.sin(alpha * n * gap)))
    return -2.0 * channel_power * series


def _bracket_and_bisect(f, xs: np.ndarray, fx: np.ndarray, usable: np.ndarray):
    """Roots of the vectorized detector f on the scan intervals
    [xs[i], xs[i+1]] with usable[i] set, given its scan values fx.

    An exact zero at an interval's left end is a root as it stands; a strict
    sign change is a bracket. All brackets are bisected in lockstep, one
    call of f per step, each under the scalar rules: halve at the midpoint,
    keep the half where fa * fm <= 0, report the endpoint with the smaller
    |f|, and stop once the bracket is within 4 eps of machine width, or
    within _ROOT_TOL with a residual well under the reporting tolerance
    (at most 200 steps). Returns (interval index, root, residual) arrays.
    """
    fa, fb = fx[:-1], fx[1:]
    at_zero = np.flatnonzero(usable & (fa == 0.0))
    with np.errstate(invalid="ignore"):
        which = np.flatnonzero(usable & (fa != 0.0) & (fa * fb < 0.0))
    a, b, fa, fb = xs[which], xs[which + 1], fa[which], fb[which]
    floor_width = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    roots = np.empty(which.size)
    residuals = np.empty(which.size)
    live = np.arange(which.size)
    for step in range(200):
        if live.size == 0:
            break
        mid = 0.5 * (a + b)
        fm = f(mid)
        left = fa * fm <= 0.0
        b, fb = np.where(left, mid, b), np.where(left, fm, fb)
        a, fa = np.where(left, a, mid), np.where(left, fa, fm)
        at_a = np.abs(fa) < np.abs(fb)
        best = np.where(at_a, a, b)
        best_res = np.where(at_a, np.abs(fa), np.abs(fb))
        width = b - a
        done = (width <= floor_width) | ((width <= _ROOT_TOL) & (best_res < 0.1 * _RESIDUAL_TOL))
        if step == 199:
            done[:] = True
        roots[live[done]] = best[done]
        residuals[live[done]] = best_res[done]
        keep = ~done
        live, a, b, fa, fb, floor_width = (
            x[keep] for x in (live, a, b, fa, fb, floor_width)
        )
    return (
        np.concatenate([at_zero, which]),
        np.concatenate([xs[at_zero], roots]),
        np.concatenate([np.zeros(at_zero.size), residuals]),
    )


def _check_scan_step(array: ArrayConfig, step: float) -> None:
    """stationary_points' scan rule; landscape configs are checked by it too."""
    period = 1.0 / (2.0 * array.spacing_ratio * (array.n_antennas - 1))
    if not 0 < step < period / 5.0:
        raise ValueError(
            f"scan step {step:.3e} rad is not positive or too coarse for "
            f"oscillation period {period:.3e} rad; need 0 < step < period/5"
        )


def stationary_points(
    array: ArrayConfig, true_angle: float, search: AngleGrid
) -> StationaryPointSet:
    """Locate the asymptotic condition's roots over the search grid.

    Sign changes are scanned at the grid resolution, then all brackets are
    bisected in lockstep to 1e-10 rad. The scan step is asserted to be well
    under the condition's oscillation period, about
    1/(2 * (d/lambda) * (N-1)) radians near broadside.
    Intervals inside a pole guard band are screened with the exact finite
    sum instead of the divergent asymptotic ratio. The two ends +-pi/2
    (roots of the cos factor) are always included. A root within 1e-4 rad
    of the true angle is dropped: the condition vanishes identically at
    the truth (its two phase arguments coincide), and that point is the
    global optimum rather than a spurious attractor.
    """
    n_ant = array.n_antennas
    if n_ant < 16:
        warnings.warn("asymptotic stationary condition is unreliable below 16 antennas")
    _check_scan_step(array, search.step)

    def lhs(x: np.ndarray) -> np.ndarray:
        return stationary_condition_lhs(array, true_angle, x)

    def fsum_scaled(x: np.ndarray) -> np.ndarray:
        return stationary_condition_finite_sum(array, true_angle, x) / (n_ant - 1)

    xs = search.angles()
    f_lhs = lhs(xs)
    # an interval is guarded when either end is near a pole or non-finite
    bad = ~np.isfinite(f_lhs)
    for pole in (0.0, -true_angle):
        bad |= np.abs(xs - pole) < _GUARD_BAND
    guarded = bad[:-1] | bad[1:]
    ends = np.zeros(xs.size, dtype=bool)
    ends[:-1] |= guarded
    ends[1:] |= guarded
    f_sum = np.full(xs.size, np.nan)
    f_sum[ends] = fsum_scaled(xs[ends])

    found = [
        _bracket_and_bisect(lhs, xs, f_lhs, ~guarded),
        _bracket_and_bisect(fsum_scaled, xs, f_sum, guarded),
    ]
    lo, hi = float(xs[0]) - search.step, float(xs[-1]) + search.step
    edges = np.array([e for e in (-_HALF_PI, _HALF_PI) if lo <= e <= hi])
    found.append((np.full(edges.size, xs.size), edges, np.abs(lhs(edges))))
    order_key, angles, residuals = (np.concatenate(parts) for parts in zip(*found))

    outside = np.abs(angles - true_angle) > _TRUE_ANGLE_WINDOW
    # ascending angle; equal angles in interval order, the endpoints last
    order = np.lexsort((order_key[outside], angles[outside]))
    dedup: list[tuple[float, float]] = []
    for ang, res in zip(angles[outside][order].tolist(), residuals[outside][order].tolist()):
        if dedup and abs(ang - dedup[-1][0]) < 1e-9:
            if res < dedup[-1][1]:
                dedup[-1] = (ang, res)
            continue
        dedup.append((ang, res))

    return StationaryPointSet(
        angles=tuple(a for a, _ in dedup),
        residuals=tuple(r for _, r in dedup),
    )


def _check_axes(axes: tuple[AxisSpec, ...], k_users: int) -> None:
    """evaluate_surface's axis rules; landscape configs are checked by them too."""
    if not 1 <= len(axes) <= 2:
        raise ValueError("one or two axes supported")
    if any(ax.user_index >= k_users for ax in axes):
        raise ValueError("axis user_index out of range")
    if len({(ax.target, ax.user_index) for ax in axes}) < len(axes):
        raise ValueError("both axes vary the same coordinate")
    if math.prod(ax.num for ax in axes) > _MAX_GRID_POINTS:
        raise ValueError("surface grid exceeds the 1e7-point resource guard")


def evaluate_surface(
    axes: Sequence[AxisSpec],
    array: ArrayConfig,
    true_aoas: AoAVector,
    true_channel: ChannelRealization,
) -> LossSurface:
    """Noiseless population loss over a dense 1-D or 2-D grid, every
    non-varied parameter held at its true value (posterior means equal the
    true gains, posterior covariance zero, so the loss is
    ||A h - A_hat mu||_F^2).

    The grid may not exceed 1e7 points, and the two axes must vary
    different coordinates. Grid points are evaluated in blocks of
    max(1, 8192 // (N * max(K, M))), so the working memory beyond the
    returned values does not grow with the grid.
    """
    axes = tuple(axes)
    k_users = true_aoas.k_users
    _check_axes(axes, k_users)
    shape = tuple(ax.num for ax in axes)
    total = math.prod(shape)

    gains = true_channel.gains
    m = true_channel.n_snapshots
    n = array.n_antennas

    if len(axes) == 1 and axes[0].target == "aoa":
        # everything else exact: the loss reduces to the varied user's
        # power times the steering-vector gap;
        # Re a(v)^H a(true) = sum_n cos(alpha * n * (sin v - sin true)) is
        # accumulated one element at a time, so no N x T matrix is built
        ax = axes[0]
        k = ax.user_index
        power = float(np.sum(np.abs(gains[k]) ** 2))
        alpha = 2.0 * np.pi * array.spacing_ratio
        gap = alpha * (np.sin(ax.values()) - math.sin(true_aoas.angles[k]))
        overlap = np.zeros_like(gap)
        for i in range(n):
            overlap += np.cos(i * gap)
        values = power * (2.0 * n - 2.0 * overlap)
        values.setflags(write=False)
        return LossSurface(axes=axes, values=values)

    clean = array_matrix(array, true_aoas) @ gains
    axis_vals = [ax.values() for ax in axes]
    values = np.empty(total)
    per_block = max(1, _SURFACE_BLOCK // (n * max(k_users, m)))
    for lo in range(0, total, per_block):
        flat = np.arange(lo, min(lo + per_block, total))
        angles = np.repeat(true_aoas.angles[None, :], flat.size, axis=0)
        means = np.repeat(gains[None], flat.size, axis=0)
        for ax, vals, pos in zip(axes, axis_vals, np.unravel_index(flat, shape)):
            v = vals[pos]
            if ax.target == "aoa":
                angles[:, ax.user_index] = v
            else:
                means[:, ax.user_index] = np.abs(gains[ax.user_index]) * np.exp(1j * v)[:, None]
        a_hat = _steering(array, angles)
        resid = (clean - a_hat @ means).reshape(flat.size, -1).view(float)
        values[lo : lo + flat.size] = np.einsum("bi,bi->b", resid, resid)
    values.setflags(write=False)
    return LossSurface(axes=axes, values=values.reshape(shape))
