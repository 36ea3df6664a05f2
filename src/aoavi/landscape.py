"""Loss-landscape analysis for the noise-averaged (population) objective.

Three kinds of structure are exposed:

* the full set of global optima of the AoA slice, which form an arcsine
  lattice in sin(theta) with pitch lambda/d (aliases beyond the true angle
  exist whenever the element spacing exceeds half a wavelength);
* stationary points of the single-user accurate-channel slice, located by
  a sign-change scan plus lockstep ITP refinement (regula falsi kept on
  bisection's schedule) of the large-N stationary condition

      cos(th) * [ cos(z*(N-1))/z - cos(e*(N-1))/e ] = 0,
      z = 2*a*sin(th),  e = a*(sin(theta_true) + sin(th)),  a = 2*pi*d/lambda,

  whose 1/z and 1/e poles are genuine (the underlying finite sum stays
  bounded there, the asymptotic ratio does not), so a guard band around
  each pole falls back to the exact finite sum;
* dense grid evaluations of the noiseless loss of one unit-gain user over
  its AoA estimate, its path angle or both, everything else held at the
  truth, in closed form:

      ||a(theta) - a(v) e^{j phi}||^2 = 2N - 2 [C(v) cos phi + S(v) sin phi],
      C + jS = sum_n exp(j n g),  g = a*(sin(v) - sin(theta)).

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
from .signal_model import _ANGLE_BOUND, ArrayConfig, _frozen

# |detector value| every returned root must satisfy
_RESIDUAL_TOL = 1e-8
# bracket width at which root refinement may stop, radians
_ROOT_TOL = 1e-10
# ITP truncation kappa_1, per unit of a bracket's initial width
_ITP_KAPPA1 = 0.2
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

    target "aoa" varies the AoA estimate, its bounds within [-pi/2, pi/2];
    "path_angle" varies the estimated path angle while the magnitude stays
    at truth. Both bounds and their difference must be finite.
    """

    target: str
    start: float
    stop: float
    num: int

    def __post_init__(self):
        if self.target not in ("aoa", "path_angle"):
            raise ValueError("target must be 'aoa' or 'path_angle'")
        if not math.isfinite(self.stop - self.start):  # NaN and inf bounds too
            raise ValueError("axis bounds and their difference must be finite")
        if self.target == "aoa" and not max(abs(self.start), abs(self.stop)) <= _ANGLE_BOUND:
            raise ValueError("aoa axis bounds must lie in [-pi/2, pi/2]")
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


def _check_true_angle(true_angle: float) -> None:
    """The half-space rule of AoAVector for every true_angle argument."""
    if not abs(true_angle) <= _ANGLE_BOUND:  # NaN fails too
        raise ValueError("true_angle must lie in [-pi/2, pi/2]")


def enumerate_global_optima(array: ArrayConfig, true_angle: float) -> GlobalOptimaSet:
    """Every angle in [-pi/2, pi/2] whose steering vector matches the true
    one up to per-element phase wrapping.

    sin(alias) = sin(true) - l * lambda/d for every integer l keeping the
    right side in [-1, 1]. Half-wavelength spacing admits only l = 0.
    """
    _check_true_angle(true_angle)
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
    sin_hat = np.sin(theta_hat)
    eta = alpha * (np.sin(true_angle) + sin_hat)
    zeta = 2.0 * alpha * sin_hat
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


def _bracket_and_refine(f, xs: np.ndarray, fx: np.ndarray, usable: np.ndarray):
    """Roots of the vectorized detector f on the scan intervals
    [xs[i], xs[i+1]] with usable[i] set, given its scan values fx.

    An exact zero at an interval's left end is a root as it stands; a strict
    sign change is a bracket. All brackets are refined in lockstep, one call
    of f per step, each by the ITP step (Oliveira & Takahashi, ACM TOMS
    47(1), 2021) with kappa_2 = 2 and n_0 = 0. The regula falsi point is
    moved toward the midpoint by kappa_1 w^2 (w the bracket width), but by
    no less than half the floor width, so that a point regula falsi has
    already put on the root to round-off still crosses it. The result is
    then projected into a window around the midpoint that keeps the bracket
    on bisection's schedule: no bracket takes more steps than halving down
    to the floor width would. Each step keeps the part where fa * fp <= 0,
    reports the endpoint with the smaller |f|, and stops once the bracket is
    within 4 eps of machine width, or within _ROOT_TOL with a residual well
    under the reporting tolerance (at most 200 steps). Returns (interval
    index, root, residual) arrays.
    """
    fa, fb = fx[:-1], fx[1:]
    at_zero = np.flatnonzero(usable & (fa == 0.0))
    with np.errstate(invalid="ignore"):
        which = np.flatnonzero(usable & (fa != 0.0) & (fa * fb < 0.0))
    a, b, fa, fb = xs[which], xs[which + 1], fa[which], fb[which]
    floor_width = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    # kappa_1 of each bracket, and the halvings from its width to the floor
    kappa1 = _ITP_KAPPA1 / (b - a)
    mantissa, exponent = np.frexp((b - a) / floor_width)
    halvings = exponent - (mantissa == 0.5)
    roots = np.empty(which.size)
    residuals = np.empty(which.size)
    live = np.arange(which.size)
    for step in range(200):
        if live.size == 0:
            break
        mid = 0.5 * (a + b)
        width = b - a
        # the regula falsi point's offset from the midpoint, truncated by the
        # shift and clipped to ITP's projection radius (ITP's epsilon is half
        # the floor width)
        offset = (b * fa - a * fb) / (fa - fb) - mid
        shift = np.maximum(kappa1 * width * width, 0.5 * floor_width)
        radius = np.ldexp(floor_width, halvings - (step + 1)) - 0.5 * width
        probe = mid + np.sign(offset) * np.minimum(np.maximum(np.abs(offset) - shift, 0.0), radius)
        fp = f(probe)
        left = fa * fp <= 0.0
        b, fb = np.where(left, probe, b), np.where(left, fp, fb)
        a, fa = np.where(left, a, probe), np.where(left, fa, fp)
        res_a, res_b = np.abs(fa), np.abs(fb)
        best_res = np.minimum(res_a, res_b)
        width = b - a
        done = (width <= floor_width) | ((width <= _ROOT_TOL) & (best_res < 0.1 * _RESIDUAL_TOL))
        if step == 199:
            done[:] = True
        if not done.any():
            continue
        roots[live[done]] = np.where(res_a < res_b, a, b)[done]
        residuals[live[done]] = best_res[done]
        keep = ~done
        live, a, b, fa, fb, floor_width, kappa1, halvings = (
            x[keep] for x in (live, a, b, fa, fb, floor_width, kappa1, halvings)
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
    refined in lockstep to 1e-10 rad by ITP steps, never more steps than
    bisection would take. The scan step is asserted to be well under the
    condition's oscillation period, about 1/(2 * (d/lambda) * (N-1))
    radians near broadside.
    Intervals inside a pole guard band are screened with the exact finite
    sum instead of the divergent asymptotic ratio. The two ends +-pi/2
    (roots of the cos factor) are always included, scored the same way.
    A root within 1e-4 rad of the true angle is dropped: the condition
    vanishes identically at the truth (its two phase arguments coincide),
    and that point is the global optimum rather than a spurious attractor.
    """
    _check_true_angle(true_angle)
    n_ant = array.n_antennas
    if n_ant < 16:
        warnings.warn("asymptotic stationary condition is unreliable below 16 antennas")
    _check_scan_step(array, search.step)

    def lhs(x: np.ndarray) -> np.ndarray:
        return stationary_condition_lhs(array, true_angle, x)

    def fsum_scaled(x: np.ndarray) -> np.ndarray:
        return stationary_condition_finite_sum(array, true_angle, x) / (n_ant - 1)

    def near_pole(x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        bad = ~np.isfinite(fx)
        for pole in (0.0, -true_angle):
            bad |= np.abs(x - pole) < _GUARD_BAND
        return bad

    xs = search.angles()
    f_lhs = lhs(xs)
    # an interval is guarded when either end is near a pole or non-finite
    bad = near_pole(xs, f_lhs)
    guarded = bad[:-1] | bad[1:]
    ends = np.zeros(xs.size, dtype=bool)
    ends[:-1] |= guarded
    ends[1:] |= guarded
    f_sum = np.full(xs.size, np.nan)
    f_sum[ends] = fsum_scaled(xs[ends])

    found = [
        _bracket_and_refine(lhs, xs, f_lhs, ~guarded),
        _bracket_and_refine(fsum_scaled, xs, f_sum, guarded),
    ]
    lo, hi = float(xs[0]) - search.step, float(xs[-1]) + search.step
    edges = np.array([e for e in (-math.pi / 2, math.pi / 2) if lo <= e <= hi])
    # an end at the pole -true_angle (a true angle at +-pi/2) is scored by
    # the finite sum, as a guarded interval is
    f_edges = lhs(edges)
    f_edges = np.where(near_pole(edges, f_edges), fsum_scaled(edges), f_edges)
    found.append((np.full(edges.size, xs.size), edges, np.abs(f_edges)))
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


def _check_axes(axes: tuple[AxisSpec, ...]) -> None:
    """evaluate_surface's axis rules; landscape configs are checked by them too."""
    if not 1 <= len(axes) <= 2:
        raise ValueError("one or two axes supported")
    if len({ax.target for ax in axes}) < len(axes):
        raise ValueError("both axes vary the same coordinate")
    if math.prod(ax.num for ax in axes) > _MAX_GRID_POINTS:
        raise ValueError("surface grid exceeds the 1e7-point resource guard")


def evaluate_surface(
    axes: Sequence[AxisSpec], array: ArrayConfig, true_angle: float
) -> LossSurface:
    """Noiseless population loss of one unit-gain user at true_angle over a
    dense 1-D or 2-D grid of its AoA estimate v and path angle phi, the
    coordinate without an axis held at its true value:

        ||a(true) - a(v) e^{j phi}||^2 = 2N - 2 [C(v) cos phi + S(v) sin phi]

    with C + jS = sum_n exp(j n alpha (sin v - sin true)), alpha =
    2 pi d/lambda. C is accumulated one antenna at a time, so no N x T
    matrix is built; its ratio form would lose all precision at g near
    2 pi k. S takes its closed form sin((N-1)g/2) sin(Ng/2) / sin(g/2),
    g = alpha (sin v - sin true), and is 0 where sin(g/2) is exactly 0.
    The values are formed in place: the returned array is the only
    grid-sized one. The grid may not exceed 1e7 points, and the two axes
    must vary different coordinates.
    """
    axes = tuple(axes)
    _check_axes(axes)
    _check_true_angle(true_angle)
    by_target = {ax.target: ax.values() for ax in axes}
    v = by_target.get("aoa", np.array([true_angle]))
    phi = by_target.get("path_angle", np.zeros(1))
    n = array.n_antennas

    gap = 2.0 * np.pi * array.spacing_ratio * (np.sin(v) - math.sin(true_angle))
    c = np.zeros_like(gap)
    for i in range(n):
        c += np.cos(i * gap)
    half = np.sin(0.5 * gap)
    s = np.sin(0.5 * (n - 1) * gap) * np.sin(0.5 * n * gap)
    s = np.divide(s, half, out=np.zeros_like(gap), where=half != 0.0)

    values = np.empty(tuple(ax.num for ax in axes))
    # the same memory seen as an (AoA, path angle) grid, whatever the axis order
    grid = (values.T if axes[0].target == "path_angle" else values).reshape(v.size, phi.size)
    np.multiply.outer(c, np.cos(phi), out=grid)
    # S sin(phi) goes in one line of the shorter axis at a time
    x, y, lines = (s, np.sin(phi), grid.T) if v.size >= phi.size else (np.sin(phi), s, grid)
    for line, scale in zip(lines, y):
        line += x * scale
    # 2N - 2 * overlap, formed so that phi = 0 leaves C's bits as they are
    values *= -2.0
    values += 2.0 * n
    values.setflags(write=False)
    return LossSurface(axes=axes, values=values)
