import math
import tracemalloc

import numpy as np
import pytest

import aoavi.landscape
from aoavi.harness import LandscapeConfig
from aoavi.landscape import (
    AxisSpec,
    GlobalOptimaSet,
    LossSurface,
    StationaryPointSet,
    enumerate_global_optima,
    evaluate_surface,
    exact_population_gradient,
    stationary_condition_finite_sum,
    stationary_condition_lhs,
    stationary_points,
)
from aoavi.loss import VariationalState
from aoavi.preprocess import AngleGrid
from aoavi.signal_model import AoAVector, ArrayConfig, ChannelRealization

from conftest import make_rng, population_reconstruction

THETA_11 = math.radians(11.0)
SCAN_STEP = math.radians(0.01)
# (N, d/lambda, true angle) of the benchmark's three landscape exports
BENCHMARK_LANDSCAPES = ((32, 2.0, THETA_11), (256, 0.5, THETA_11), (32, 0.5, THETA_11))


def _population_slice(array, theta, estimates, path_angle=0.0):
    """Population loss over scalar estimates, exact unit channel, the
    estimated gain at unit magnitude and the given path angle."""
    ch = ChannelRealization(np.ones((1, 1), dtype=complex))
    aoas = AoAVector(np.array([theta]))
    out = []
    for est in np.atleast_1d(estimates):
        state = VariationalState(
            aoa_estimate=AoAVector(np.array([est])),
            channel_means=ch.gains * np.exp(1j * path_angle),
            channel_covariance=np.zeros((1, 1), complex),
        )
        out.append(population_reconstruction(aoas, ch, state, array, 0.0))
    return np.asarray(out)


def _reference_refine(f, a, b, fa, fb, tol):
    """Scalar ITP refinement in the paper's interpolate, truncate and
    project form, one bracket at a time: the rules stationary_points
    applies to all brackets in lockstep."""
    floor_width = 4.0 * np.finfo(float).eps * max(1.0, abs(a), abs(b))
    eps_itp = 0.5 * floor_width
    kappa1 = 0.2 / (b - a)
    mantissa, exponent = math.frexp((b - a) / (2.0 * eps_itp))
    n_max = exponent - (mantissa == 0.5)
    for step in range(200):
        mid = 0.5 * (a + b)
        width = b - a
        falsi = (b * fa - a * fb) / (fa - fb)
        sigma = 0.0 if mid == falsi else math.copysign(1.0, mid - falsi)
        delta = max(kappa1 * width * width, eps_itp)
        trial = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        radius = eps_itp * 2.0 ** (n_max - step) - 0.5 * width
        x = trial if abs(trial - mid) <= radius else mid - sigma * radius
        fx = f(x)
        if fa * fx <= 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        width = b - a
        best = (a, abs(fa)) if abs(fa) < abs(fb) else (b, abs(fb))
        if width <= floor_width:
            return best
        if width <= tol and best[1] < 0.1 * 1e-8:
            return best
    return best


def _reference_stationary_points(array, true_angle, search, tol=1e-10):
    """Per-interval scalar oracle for stationary_points: (angles, residuals)."""
    n_ant = array.n_antennas
    poles = [0.0, -true_angle]

    def in_guard(x):
        return any(abs(x - p) < 1e-3 for p in poles)

    def lhs(x):
        return float(stationary_condition_lhs(array, true_angle, x))

    def fsum_scaled(x):
        return float(stationary_condition_finite_sum(array, true_angle, x)) / (n_ant - 1)

    xs = search.angles()
    f_lhs = stationary_condition_lhs(array, true_angle, xs)
    roots = []
    for i in range(xs.size - 1):
        a, b = float(xs[i]), float(xs[i + 1])
        finite = np.isfinite(f_lhs[i]) and np.isfinite(f_lhs[i + 1])
        if in_guard(a) or in_guard(b) or not finite:
            f, fa, fb = fsum_scaled, fsum_scaled(a), fsum_scaled(b)
        else:
            f, fa, fb = lhs, float(f_lhs[i]), float(f_lhs[i + 1])
        if fa == 0.0:
            roots.append((a, abs(fa)))
        elif fa * fb < 0.0:
            roots.append(_reference_refine(f, a, b, fa, fb, tol))
    lo, hi = float(xs[0]), float(xs[-1])
    for edge in (-math.pi / 2, math.pi / 2):
        if lo - search.step <= edge <= hi + search.step:
            roots.append((edge, abs(lhs(edge))))
    roots = sorted((rt for rt in roots if abs(rt[0] - true_angle) > 1e-4), key=lambda rt: rt[0])
    dedup = []
    for ang, res in roots:
        if dedup and abs(ang - dedup[-1][0]) < max(2.0 * tol, 1e-9):
            if res < dedup[-1][1]:
                dedup[-1] = (ang, res)
            continue
        dedup.append((ang, res))
    return [a for a, _ in dedup], [r for _, r in dedup]


class TestEnumerateGlobalOptima:
    def test_half_wavelength_is_alias_free(self):
        optima = enumerate_global_optima(ArrayConfig(32, 0.5), THETA_11)
        assert optima.alias_angles == (THETA_11,)
        assert optima.alias_integers == (0,)

    @pytest.mark.parametrize(
        "theta", [THETA_11, math.asin(2.5e-10)], ids=["eleven_degrees", "past_endfire_skipped"]
    )
    def test_wide_spacing_four_aliases(self, theta):
        """Just above broadside the integer range also holds l = -2, whose
        sine 1 + 2.5e-10 lies past endfire; it is skipped."""
        optima = enumerate_global_optima(ArrayConfig(32, 2.0), theta)
        assert len(optima.alias_angles) == 4
        sines = np.sin(optima.alias_angles)
        s0 = math.sin(theta)
        expected = np.sort([s0 - l / 2.0 for l in (2, 1, 0, -1)])
        assert np.max(np.abs(sines - expected)) < 1e-12
        assert optima.alias_integers == (2, 1, 0, -1)

    def test_wide_spacing_published_constants(self):
        # display-precision cross-check of the published constants
        sines = np.sin(enumerate_global_optima(ArrayConfig(32, 2.0), THETA_11).alias_angles)
        assert np.max(np.abs(np.round(sines, 4) - np.array([-0.8092, -0.3092, 0.1908, 0.6908]))) < 1e-12

    def test_broadside_half_wavelength(self):
        optima = enumerate_global_optima(ArrayConfig(16, 0.5), 0.0)
        assert optima.alias_angles == (0.0,)

    def test_true_angle_exactly_preserved(self):
        theta = math.radians(-37.25)
        optima = enumerate_global_optima(ArrayConfig(8, 3.0), theta)
        assert theta in optima.alias_angles

    def test_grid_scan_oracle(self):
        # the deep fine-grid minima (below the sidelobe floor) coincide with
        # the enumerated aliases; exact loss equality at the enumerated
        # angles themselves is covered by the alias-equality test
        arr = ArrayConfig(32, 2.0)
        optima = enumerate_global_optima(arr, THETA_11)
        grid = np.clip(np.radians(np.linspace(-90.0, 90.0, 18001)), -math.pi / 2, math.pi / 2)
        vals = _population_slice(arr, THETA_11, grid)
        scale = 2.0 * arr.n_antennas  # loss range for unit power
        # grid quantization leaves ~1e-4 * scale at off-grid aliases while
        # sidelobe local minima stay above ~0.5 * scale
        deep = vals <= 1e-3 * scale
        minima = [
            g
            for i, g in enumerate(grid[1:-1], start=1)
            if vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and deep[i]
        ]
        assert len(minima) == len(optima.alias_angles)
        for m in minima:
            assert min(abs(m - a) for a in optima.alias_angles) < math.radians(0.011)

    @pytest.mark.parametrize("bad", [math.nan, math.pi / 2 + 1e-9])
    def test_true_angle_outside_the_half_space_rejected(self, bad):
        with pytest.raises(ValueError, match="true_angle"):
            enumerate_global_optima(ArrayConfig(8, 2.0), bad)

    def test_type_invariants_enforced(self):
        with pytest.raises(ValueError):
            GlobalOptimaSet(
                true_angle=0.1,
                alias_angles=(0.2,),  # true angle missing
                alias_integers=(0,),
                spacing_ratio=0.5,
            )


class TestStationaryConditionLhs:
    def test_vanishes_at_truth(self):
        arr = ArrayConfig(32, 0.5)
        assert abs(stationary_condition_lhs(arr, THETA_11, THETA_11)) < 1e-12

    def test_vanishes_at_endfire(self):
        arr = ArrayConfig(32, 0.5)
        assert abs(stationary_condition_lhs(arr, THETA_11, math.pi / 2)) < 1e-12
        assert abs(stationary_condition_lhs(arr, THETA_11, -math.pi / 2)) < 1e-12

    def test_vectorized_evaluation(self):
        arr = ArrayConfig(32, 0.5)
        thetas = np.radians([-45.0, -20.0, 25.0, 60.0])
        vals = stationary_condition_lhs(arr, THETA_11, thetas)
        assert vals.shape == (4,)
        assert np.all(np.isfinite(vals))


class TestStationaryConditionFiniteSum:
    def test_matches_brute_force_double_loop(self):
        arr = ArrayConfig(16, 0.5)
        alpha = 2 * math.pi * arr.spacing_ratio
        rng = make_rng(100)
        for theta_hat in rng.uniform(-1.4, 1.4, size=5):
            eta = alpha * (math.sin(THETA_11) + math.sin(theta_hat))
            zeta = 2 * alpha * math.sin(theta_hat)
            brute = math.cos(theta_hat) * sum(
                n * (math.sin(eta * n) - math.sin(zeta * n))
                for n in range(arr.n_antennas)
            )
            got = float(stationary_condition_finite_sum(arr, THETA_11, theta_hat))
            assert abs(got - brute) < 1e-10 * max(1.0, abs(brute))

    @pytest.mark.parametrize("n, spacing, theta", BENCHMARK_LANDSCAPES)
    def test_vector_evaluation_is_bit_equal_to_point_by_point(self, n, spacing, theta):
        arr = ArrayConfig(n, spacing)
        xs = np.linspace(-math.pi / 2, math.pi / 2, 2001)
        together = stationary_condition_finite_sum(arr, theta, xs)
        alone = [stationary_condition_finite_sum(arr, theta, x) for x in xs]
        assert np.array_equal(together, alone)


class TestExactPopulationGradient:
    def test_zero_at_truth(self):
        assert exact_population_gradient(ArrayConfig(32, 0.5), THETA_11, 5.0, THETA_11) == 0.0

    def test_zero_at_endfire(self):
        val = exact_population_gradient(ArrayConfig(32, 0.5), THETA_11, 5.0, math.pi / 2)
        assert abs(val) < 1e-12

    def test_finite_difference_at_twenty_degrees(self):
        arr = ArrayConfig(32, 0.5)
        est = math.radians(20.0)
        h = 1e-6
        fd = (
            _population_slice(arr, THETA_11, est + h)[0]
            - _population_slice(arr, THETA_11, est - h)[0]
        ) / (2 * h)
        got = exact_population_gradient(arr, THETA_11, 1.0, est)
        assert abs(got - fd) < 1e-6 * max(1.0, abs(fd))

    def test_finite_difference_random_sample(self):
        arr = ArrayConfig(24, 0.5)
        rng = make_rng(101)
        h = 1e-6
        for est in rng.uniform(-1.5, 1.5, size=20):
            fd = (
                _population_slice(arr, THETA_11, est + h)[0]
                - _population_slice(arr, THETA_11, est - h)[0]
            ) / (2 * h)
            got = exact_population_gradient(arr, THETA_11, 1.0, est)
            assert abs(got - fd) < 1e-5 * max(1.0, abs(fd))

    def test_scales_linearly_in_channel_power(self):
        arr = ArrayConfig(16, 0.5)
        one = exact_population_gradient(arr, THETA_11, 1.0, 0.4)
        seven = exact_population_gradient(arr, THETA_11, 7.0, 0.4)
        assert abs(seven - 7 * one) < 1e-12 * max(1.0, abs(seven))


class TestStationaryPoints:
    def _default_points(self, n=32):
        arr = ArrayConfig(n, 0.5)
        search = AngleGrid(-math.pi / 2, math.pi / 2, math.radians(0.01))
        return stationary_points(arr, THETA_11, search)

    def test_endfire_always_included(self):
        pts = self._default_points()
        assert math.isclose(pts.angles[0], -math.pi / 2, abs_tol=1e-12)
        assert math.isclose(pts.angles[-1], math.pi / 2, abs_tol=1e-12)

    def test_residuals_below_tolerance(self):
        pts = self._default_points()
        assert len(pts.angles) > 10  # oscillatory condition has many roots
        assert max(pts.residuals) < 1e-8

    def test_angles_sorted_unique(self):
        pts = self._default_points()
        diffs = np.diff(pts.angles)
        assert np.all(diffs > 0)

    def test_truth_not_reported_as_interior_root(self):
        pts = self._default_points()
        interior = [a for a in pts.angles if abs(abs(a) - math.pi / 2) > 1e-9]
        assert min(abs(a - THETA_11) for a in interior) > math.radians(0.05)

    def test_small_array_warns(self):
        arr = ArrayConfig(8, 0.5)
        search = AngleGrid(-math.pi / 2, math.pi / 2, math.radians(0.05))
        with pytest.warns(UserWarning):
            stationary_points(arr, THETA_11, search)

    def test_coarse_scan_rejected(self):
        arr = ArrayConfig(32, 0.5)
        # oscillation period is about 1.85 degrees here
        search = AngleGrid(-math.pi / 2, math.pi / 2, math.radians(1.0))
        with pytest.raises(ValueError):
            stationary_points(arr, THETA_11, search)

    def test_density_higher_near_truth(self):
        """Sign changes of the exact gradient cluster around the true angle."""
        arr = ArrayConfig(32, 0.5)
        step = math.radians(0.01)

        def count_sign_changes(lo, hi):
            grid = np.arange(lo, hi, step)
            vals = np.array(
                [exact_population_gradient(arr, THETA_11, 1.0, g) for g in grid]
            )
            s = np.sign(vals)
            return int(np.sum(s[:-1] * s[1:] < 0))

        near = count_sign_changes(THETA_11 - math.radians(5.0), THETA_11 + math.radians(5.0))
        far = count_sign_changes(THETA_11 + math.radians(10.0), THETA_11 + math.radians(20.0))
        assert near >= far

    @pytest.mark.parametrize(
        "n, spacing, theta",
        BENCHMARK_LANDSCAPES + ((48, 1.0, math.radians(-27.0)),),
    )
    def test_matches_per_interval_scalar_oracle(self, n, spacing, theta):
        arr = ArrayConfig(n, spacing)
        search = AngleGrid(-math.pi / 2, math.pi / 2, SCAN_STEP)
        ref_angles, _ = _reference_stationary_points(arr, theta, search)
        pts = stationary_points(arr, theta, search)
        assert len(pts.angles) == len(ref_angles)
        assert np.max(np.abs(np.subtract(pts.angles, ref_angles))) <= 1e-12
        assert max(pts.residuals) < 1e-8
        # every config has a root refined on the finite sum inside the
        # guard band of each pole
        for pole in (0.0, -theta):
            assert min(abs(a - pole) for a in ref_angles) < 1e-3

    @staticmethod
    def _count_lhs_calls(monkeypatch, array, theta):
        """stationary_points' result and how often it called the lhs."""
        counted = aoavi.landscape.stationary_condition_lhs
        calls = []

        def counting(*args):
            calls.append(None)
            return counted(*args)

        monkeypatch.setattr(aoavi.landscape, "stationary_condition_lhs", counting)
        pts = stationary_points(array, theta, AngleGrid(-math.pi / 2, math.pi / 2, SCAN_STEP))
        return pts, len(calls)

    def test_detector_calls_bounded_by_bisection_depth(self, monkeypatch):
        pts, calls = self._count_lhs_calls(monkeypatch, ArrayConfig(32, 2.0), THETA_11)
        assert len(pts.angles) == 295
        # halvings from one scan step down to the 4-eps floor width
        depth = math.ceil(math.log2(SCAN_STEP / (4.0 * np.finfo(float).eps)))
        # plus the scan and the +-pi/2 endpoints
        assert calls <= depth + 2

    @pytest.mark.parametrize("n, spacing, theta", BENCHMARK_LANDSCAPES)
    def test_interpolation_cuts_detector_calls_on_benchmark_arrays(self, n, spacing, theta, monkeypatch):
        _, calls = self._count_lhs_calls(monkeypatch, ArrayConfig(n, spacing), theta)
        # halving alone needs 30-36 calls here: 21 steps to reach 1e-10 rad
        # and more where the residual is not yet below 1e-9
        assert calls <= 16

    @pytest.mark.parametrize("frac", [0.3, 0.5, 0.9999])
    def test_steep_step_refined_within_bisection_depth(self, frac):
        """A tanh step is saturated at +-1 outside 1e-5 rad of its root, so
        while the bracket is wider, regula falsi points land near the
        midpoint and gain nothing over halving; the refinement must still
        end within bisection's depth."""
        xs = np.array([0.0, SCAN_STEP])
        center = frac * SCAN_STEP
        calls = []

        def step(x):
            calls.append(None)
            return np.tanh(1e5 * (x - center))

        index, roots, residuals = aoavi.landscape._bracket_and_refine(
            step, xs, step(xs), np.array([True])
        )
        calls.pop(0)  # the scan
        depth = math.ceil(math.log2(SCAN_STEP / (4.0 * np.finfo(float).eps)))
        assert index.tolist() == [0]
        assert len(calls) <= depth
        assert residuals[0] < 1e-9
        assert abs(roots[0] - center) < 1e-14

    @pytest.mark.parametrize("bad", [math.nan, 2.0])
    def test_true_angle_outside_the_half_space_rejected(self, bad):
        search = AngleGrid(-math.pi / 2, math.pi / 2, SCAN_STEP)
        with pytest.raises(ValueError, match=r"true_angle must lie in \[-pi/2, pi/2\]"):
            stationary_points(ArrayConfig(32, 0.5), bad, search)

    def test_type_rejects_large_residuals(self):
        with pytest.raises(ValueError):
            StationaryPointSet(angles=(0.1,), residuals=(1.0,))


def _aoa_axis(num, lo=-math.pi / 2, hi=math.pi / 2):
    return AxisSpec(target="aoa", start=lo, stop=hi, num=num)


def _phase_axis(num, lo=-math.pi, hi=math.pi):
    return AxisSpec(target="path_angle", start=lo, stop=hi, num=num)


class TestEvaluateSurface:
    def test_one_dimensional_minimum_at_truth(self):
        axis = _aoa_axis(18001)
        surface = evaluate_surface([axis], ArrayConfig(32, 0.5), THETA_11)
        argmin = axis.values()[int(np.argmin(surface.values))]
        assert abs(argmin - THETA_11) < math.radians(0.02)

    @pytest.mark.parametrize(
        "targets",
        [("aoa",), ("path_angle",), ("aoa", "path_angle"), ("path_angle", "aoa")],
        ids="-".join,
    )
    def test_every_axis_set_matches_per_point_oracle(self, targets):
        arr = ArrayConfig(16, 2.0)
        made = {"aoa": _aoa_axis(13, -1.2, 1.2), "path_angle": _phase_axis(11, -3.0, 3.0)}
        axes = [made[t] for t in targets]
        surface = evaluate_surface(axes, arr, THETA_11)
        assert surface.values.shape == tuple(ax.num for ax in axes)
        oracle = np.empty(surface.values.shape)
        for index in np.ndindex(oracle.shape):
            point = {ax.target: ax.values()[i] for ax, i in zip(axes, index)}
            oracle[index] = _population_slice(
                arr, THETA_11, point.get("aoa", THETA_11), point.get("path_angle", 0.0)
            )[0]
        assert np.max(np.abs(surface.values - oracle)) <= 1e-12 * 4 * arr.n_antennas

    def test_one_dimensional_scan_builds_no_steering_matrix(self):
        axis = _aoa_axis(3601)
        tracemalloc.start()
        try:
            evaluate_surface([axis], ArrayConfig(32, 0.5), THETA_11)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * axis.num * 16

    def test_two_dimensional_surface_builds_no_full_steering_array(self):
        arr = ArrayConfig(16, 0.5)
        axes = [_aoa_axis(200), _phase_axis(200)]
        tracemalloc.start()
        try:
            evaluate_surface(axes, arr, THETA_11)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < arr.n_antennas * 200 * 200 * 16 / 4

    @pytest.mark.parametrize("phase_first", [False, True])
    def test_two_dimensional_surface_is_not_copied(self, phase_first):
        """The returned values are the only grid-sized array, in either axis
        order: the surface keeps evaluate_surface's locked array instead of
        copying it."""
        axes = [_aoa_axis(1000), _phase_axis(1000)]
        if phase_first:
            axes.reverse()
        tracemalloc.start()
        try:
            surface = evaluate_surface(axes, ArrayConfig(8, 0.5), THETA_11)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not surface.values.flags.writeable
        assert peak < 1.25 * surface.values.nbytes
        # writable input is still copied, so the caller cannot change it
        values = np.zeros((1000, 1000))
        copied = LossSurface(axes=tuple(axes), values=values)
        values[0, 0] = 1.0
        assert copied.values[0, 0] == 0.0 and not copied.values.flags.writeable
        assert LossSurface(axes=tuple(axes), values=surface.values).values is surface.values

    def test_duplicate_axes_rejected(self):
        arr = ArrayConfig(8, 0.5)
        for make in (_aoa_axis, _phase_axis):
            with pytest.raises(ValueError, match="same coordinate"):
                evaluate_surface([make(5), make(4)], arr, 0.0)
        assert evaluate_surface([_aoa_axis(5), _phase_axis(4)], arr, 0.0).values.shape == (5, 4)

    def _count_global_minima(self, n, spacing, num=36001):
        vals = evaluate_surface([_aoa_axis(num)], ArrayConfig(n, spacing), THETA_11).values
        scale = 2.0 * n
        lows = vals <= vals.min() + 1e-7 * scale
        interior = (
            (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:]) & lows[1:-1]
        )
        return int(np.sum(interior))

    def test_antenna_count_does_not_change_optima_count(self):
        assert self._count_global_minima(32, 0.5) == self._count_global_minima(64, 0.5) == 1

    def test_wide_spacing_adds_basins_in_two_dims(self):
        axes = [_aoa_axis(241), _phase_axis(49)]

        def count_basins(spacing):
            v = evaluate_surface(axes, ArrayConfig(16, spacing), THETA_11).values
            inner = v[1:-1, 1:-1]
            neighbors = np.stack(
                [
                    v[:-2, 1:-1], v[2:, 1:-1], v[1:-1, :-2], v[1:-1, 2:],
                    v[:-2, :-2], v[:-2, 2:], v[2:, :-2], v[2:, 2:],
                ]
            )
            strict = np.all(inner < neighbors, axis=0)
            near_global = inner <= v.min() + 1e-6 * 2 * 16
            return int(np.sum(strict & near_global))

        assert count_basins(2.0) > count_basins(0.5)

    def test_path_angle_axis_minimum_at_true_phase(self):
        axis = _phase_axis(721)
        surface = evaluate_surface([axis], ArrayConfig(16, 0.5), THETA_11)
        argmin = axis.values()[int(np.argmin(surface.values))]
        assert abs(argmin) < 0.01
        assert surface.values.min() < 1e-12

    def test_resource_guard(self):
        axes = [_aoa_axis(4000, -1.0, 1.0), _phase_axis(4000, -3.0, 3.0)]
        with pytest.raises(ValueError, match="resource guard"):
            evaluate_surface(axes, ArrayConfig(8, 0.5), 0.0)

    @pytest.mark.parametrize(
        "target, start, stop, message",
        [
            ("gain", 0.0, 1.0, "target"),
            ("aoa", 1.0, 0.0, "start < stop"),
            ("aoa", -math.inf, math.inf, "finite"),
            ("aoa", math.nan, 1.0, "finite"),
            ("path_angle", -1e308, 1e308, "finite"),
            ("aoa", -1.5 * math.pi, 1.5 * math.pi, r"\[-pi/2, pi/2\]"),
            ("aoa", 0.0, math.pi / 2 + 1e-9, r"\[-pi/2, pi/2\]"),
        ],
    )
    def test_axis_validation(self, target, start, stop, message):
        with pytest.raises(ValueError, match=message):
            AxisSpec(target=target, start=start, stop=stop, num=10)

    def test_axis_bounds_reach_the_ends_of_the_half_space(self):
        # the AoAVector bound: +-pi/2 and float dust past it are valid
        AxisSpec(target="aoa", start=-math.pi / 2 - 1e-13, stop=math.pi / 2, num=3)
        AxisSpec(target="path_angle", start=-10.0, stop=10.0, num=3)

    def test_true_angle_outside_the_half_space_rejected(self):
        for bad in (2.0, math.nan):
            with pytest.raises(ValueError, match="true_angle"):
                evaluate_surface([_aoa_axis(5)], ArrayConfig(8, 0.5), bad)

    def test_closed_form_s_is_zero_where_its_denominator_is(self):
        # the AoA axis meets the true angle exactly, where sin(g/2) = 0;
        # there C = N and S = 0, with no RuntimeWarning from the division
        arr = ArrayConfig(8, 0.5)
        phase = _phase_axis(7, -3.0, 3.0)
        surface = evaluate_surface([_aoa_axis(3, -0.4, 0.4), phase], arr, 0.4)
        at_truth = 2.0 * arr.n_antennas * (1.0 - np.cos(phase.values()))
        assert np.max(np.abs(surface.values[2] - at_truth)) <= 1e-12 * 4 * arr.n_antennas


@pytest.mark.parametrize("edge", [math.pi / 2 + 5e-13, -math.pi / 2 - 5e-13, math.pi / 2])
def test_true_angle_within_the_angle_bound_accepted_by_every_entry_point(edge):
    """+-pi/2 and AoAVector's 1e-12 of rounding past it are a valid true
    angle for each landscape entry point and for the export's config. The
    pole -true_angle then sits at the other end of the scan."""
    AoAVector(np.array([edge]))
    arr = ArrayConfig(32, 0.5)
    step = math.radians(0.05)
    assert edge in enumerate_global_optima(arr, edge).alias_angles
    evaluate_surface([_aoa_axis(5)], arr, edge)
    stationary_points(arr, edge, AngleGrid(-math.pi / 2, math.pi / 2, step))
    LandscapeConfig(array=arr, true_angle=edge, scan_step=step, surface_axes=None)


_AXIS = AxisSpec("aoa", -0.1, 0.1, 3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GlobalOptimaSet(0.1, (0.1,), (0, 1), 2.0), "one lattice integer per alias"),
        (lambda: GlobalOptimaSet(0.1, (0.2, 0.1), (0, 1), 2.0), "alias_angles must be strictly"),
        (lambda: GlobalOptimaSet(0.1, (0.2,), (0,), 2.0), "the true angle must be among"),
        (lambda: GlobalOptimaSet(0.1, (0.1, 0.5), (0, 1), 2.0), "sin-lattice condition"),
        (lambda: StationaryPointSet((0.2, 0.1), (0.0, 0.0)), "angles must be strictly ascending"),
        (lambda: StationaryPointSet((0.1,), ()), "one residual per angle required"),
        (lambda: AxisSpec("aoa", -0.1, 0.1, 1), "need at least two grid points"),
        (lambda: LossSurface((_AXIS,), np.zeros(4)), "values shape must match"),
        (lambda: aoavi.landscape._check_axes((_AXIS,) * 3), "one or two axes supported"),
    ],
    ids=[
        "optima_integers", "optima_order", "optima_truth", "optima_lattice", "roots_order",
        "roots_residuals", "axis_num", "surface_shape", "three_axes",
    ],
)
def test_input_checks_name_the_rule(build, message):
    with pytest.raises(ValueError, match=message):
        build()
