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

from .loss import _reconstruction_sum_raw
from .preprocess import AngleGrid
from .signal_model import AoAVector, ArrayConfig, ChannelRealization, array_response, _frozen

_HALF_PI = math.pi / 2.0
# |detector value| every returned root must satisfy
_RESIDUAL_TOL = 1e-8
# half-width of the pole guard bands, radians
_GUARD_BAND = 1e-3
# roots this close to the true angle are the optimum, not traps
_TRUE_ANGLE_WINDOW = 1e-4


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
    true_angle: float
    array: ArrayConfig

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
    axes[1].values()[j]."""

    axes: tuple[AxisSpec, ...]
    values: np.ndarray

    def __post_init__(self):
        expect = tuple(ax.num for ax in self.axes)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != expect:
            raise ValueError("values shape must match the axis resolutions")
        object.__setattr__(self, "values", _frozen(vals))


def enumerate_global_optima(array: ArrayConfig, true_angle: float) -> GlobalOptimaSet:
    """Every angle in [-pi/2, pi/2] whose steering vector matches the true
    one up to per-element phase wrapping.

    sin(alias) = sin(true) - l * lambda/d for every integer l keeping the
    right side in [-1, 1]. Half-wavelength spacing admits only l = 0.
    """
    if abs(true_angle) > _HALF_PI:
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

    Bounded everywhere, including at the asymptotic form's poles.
    """
    th = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    eta, zeta = _eta_zeta(array, true_angle, th)
    n = np.arange(array.n_antennas, dtype=float)
    term = np.sin(np.outer(eta, n)) - np.sin(np.outer(zeta, n))
    out = np.cos(th) * (term @ n)
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


def _bisect(f, a: float, b: float, fa: float, fb: float, tol: float) -> tuple[float, float]:
    """Bisection on a sign change, then extra halving until the residual is
    well under the reporting tolerance or the interval hits machine width."""
    floor_width = 4.0 * np.finfo(float).eps * max(1.0, abs(a), abs(b))
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
        width = b - a
        best = (a, abs(fa)) if abs(fa) < abs(fb) else (b, abs(fb))
        if width <= floor_width:
            return best
        if width <= tol and best[1] < 0.1 * _RESIDUAL_TOL:
            return best
    return best


def stationary_points(
    array: ArrayConfig, true_angle: float, search: AngleGrid, tol: float = 1e-10
) -> StationaryPointSet:
    """Locate the asymptotic condition's roots over the search grid.

    Sign changes are scanned at the grid resolution, then bisected. The
    scan step is asserted to be well under the condition's oscillation
    period, about 1/(2 * (d/lambda) * (N-1)) radians near broadside.
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
    period = 1.0 / (2.0 * array.spacing_ratio * (n_ant - 1))
    if not search.step < period / 5.0:
        raise ValueError(
            f"scan step {search.step:.3e} rad too coarse for oscillation period "
            f"{period:.3e} rad; need step < period/5"
        )
    if not tol > 0:
        raise ValueError("tol must be positive")

    poles = [0.0, -true_angle]

    def in_guard(x: float) -> bool:
        return any(abs(x - p) < _GUARD_BAND for p in poles)

    def lhs(x: float) -> float:
        return float(stationary_condition_lhs(array, true_angle, x))

    def fsum_scaled(x: float) -> float:
        return float(stationary_condition_finite_sum(array, true_angle, x)) / (n_ant - 1)

    xs = search.angles()
    f_lhs = stationary_condition_lhs(array, true_angle, xs)

    roots: list[tuple[float, float]] = []
    for i in range(xs.size - 1):
        a, b = float(xs[i]), float(xs[i + 1])
        guarded = (
            in_guard(a)
            or in_guard(b)
            or not np.isfinite(f_lhs[i])
            or not np.isfinite(f_lhs[i + 1])
        )
        if guarded:
            fa, fb = fsum_scaled(a), fsum_scaled(b)
            if fa == 0.0:
                roots.append((a, abs(fa)))
                continue
            if fa * fb < 0.0:
                roots.append(_bisect(fsum_scaled, a, b, fa, fb, tol))
            continue
        fa, fb = float(f_lhs[i]), float(f_lhs[i + 1])
        if fa == 0.0:
            roots.append((a, abs(fa)))
            continue
        if fa * fb < 0.0:
            roots.append(_bisect(lhs, a, b, fa, fb, tol))

    lo, hi = float(xs[0]), float(xs[-1])
    for edge in (-_HALF_PI, _HALF_PI):
        if lo - search.step <= edge <= hi + search.step:
            roots.append((edge, abs(lhs(edge))))

    roots = [rt for rt in roots if abs(rt[0] - true_angle) > _TRUE_ANGLE_WINDOW]
    roots.sort(key=lambda rt: rt[0])
    dedup: list[tuple[float, float]] = []
    for ang, res in roots:
        if dedup and abs(ang - dedup[-1][0]) < max(2.0 * tol, 1e-9):
            if res < dedup[-1][1]:
                dedup[-1] = (ang, res)
            continue
        dedup.append((ang, res))

    return StationaryPointSet(
        angles=tuple(a for a, _ in dedup),
        residuals=tuple(r for _, r in dedup),
        true_angle=true_angle,
        array=array,
    )


def evaluate_surface(
    axes: Sequence[AxisSpec],
    array: ArrayConfig,
    true_aoas: AoAVector,
    true_channel: ChannelRealization,
    noise_variance: float = 0.0,
) -> LossSurface:
    """Population loss over a dense 1-D or 2-D grid, every non-varied
    parameter held at its true value (posterior means equal the true gains,
    posterior covariance zero).

    The grid may not exceed 1e7 points.
    """
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise ValueError("one or two axes supported")
    k_users = true_aoas.k_users
    for ax in axes:
        if ax.user_index >= k_users:
            raise ValueError("axis user_index out of range")
    total = 1
    for ax in axes:
        total *= ax.num
    if total > 10**7:
        raise ValueError("surface grid exceeds the 1e7-point resource guard")
    if noise_variance < 0:
        raise ValueError("noise_variance must be non-negative")

    gains = true_channel.gains
    m = true_channel.n_snapshots
    n = array.n_antennas
    noise_floor = noise_variance * n * m

    if len(axes) == 1 and axes[0].target == "aoa":
        # everything else exact: the loss reduces to the varied user's
        # power times the steering-vector gap, plus the noise floor;
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
        values = power * (2.0 * n - 2.0 * overlap) + noise_floor
        return LossSurface(axes=axes, values=values)

    steer_true = np.column_stack([array_response(array, t) for t in true_aoas.angles])
    clean = steer_true @ gains
    cov = np.zeros((k_users, k_users), dtype=complex)
    shape = tuple(ax.num for ax in axes)
    values = np.empty(shape, dtype=float)
    axis_vals = [ax.values() for ax in axes]
    for idx in np.ndindex(shape):
        angles = np.array(true_aoas.angles, dtype=float)
        means = gains.copy()
        for ai, (ax, pos) in enumerate(zip(axes, idx)):
            v = float(axis_vals[ai][pos])
            if ax.target == "aoa":
                angles[ax.user_index] = v
            else:
                row = gains[ax.user_index]
                means[ax.user_index] = np.abs(row) * np.exp(1j * v)
        values[idx] = (
            _reconstruction_sum_raw(clean, array, angles, means, cov) + noise_floor
        )
    return LossSurface(axes=axes, values=values)
