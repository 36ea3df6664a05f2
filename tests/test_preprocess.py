import math

import numpy as np
import pytest

from aoavi.preprocess import (
    _BABY_STEPS,
    _SCAN_CHUNK,
    AngleGrid,
    Sector,
    _correlation_profile,
    _pick_peaks,
    _steering_products,
    empirical_covariance,
    grid_steering,
    pseudo_labels,
    sector_grid,
)
from aoavi.signal_model import (
    AoAVector,
    ArrayConfig,
    ChannelPrior,
    ChannelRealization,
    ObservationSet,
    _steering,
    array_matrix,
    sample_channel,
    synthesize_observation,
)

from conftest import make_rng, steering_vector


def _noiseless_obs(arr, angles_deg, gains, rng, noise_variance=0.0):
    aoas = AoAVector(np.radians(angles_deg))
    ch = ChannelRealization(np.asarray(gains, dtype=complex))
    return synthesize_observation(arr, aoas, ch, noise_variance, rng)


class TestAngleGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AngleGrid(min_angle=0.5, max_angle=0.5, step=0.01)
        with pytest.raises(ValueError):
            AngleGrid(min_angle=-2.0, max_angle=0.0, step=0.01)
        with pytest.raises(ValueError):
            AngleGrid(min_angle=0.0, max_angle=1.0, step=0.0)

    def test_more_than_1e7_points_rejected(self):
        """Only constructed: a grid at the guard is never evaluated here."""
        assert AngleGrid(-1.0, 1.0, 2.0 / (10**7 - 1)).n_points == 10**7
        for step in (2.0 / 10**7, math.radians(1e-6), 5e-324):
            with pytest.raises(ValueError, match="1e7-point resource guard"):
                AngleGrid(-1.0, 1.0, step)
        # the finest grid in use: acceptance 04's 0.001 deg scan
        assert AngleGrid(-math.pi / 2, math.pi / 2, math.radians(0.001)).n_points == 180_001

    @pytest.mark.parametrize("spill", [1e-9, 1.1e-12])
    def test_ends_past_the_angle_bound_rejected(self, spill):
        # the AoAVector rule: 1e-12 of rounding past +-pi/2, no more
        for lo, hi in ((-math.pi / 2 - spill, 0.0), (0.0, math.pi / 2 + spill)):
            with pytest.raises(ValueError, match=r"\[-pi/2, pi/2\]"):
                AngleGrid(lo, hi, 0.01)
        g = AngleGrid(-math.pi / 2 - 5e-13, math.pi / 2 + 5e-13, math.radians(1.0))
        assert g.angles()[0] == -math.pi / 2 - 5e-13

    def test_last_angle_past_the_angle_bound_rejected(self):
        # span / step is 1e-9 short of 100, which n_points rounds up to a
        # 101st angle 7.9e-12 past pi/2
        step = (math.pi / 2) / (100 - 5e-10)
        with pytest.raises(ValueError, match=r"\[-pi/2, pi/2\]"):
            AngleGrid(0.0, math.pi / 2, step)
        assert AngleGrid(0.0, math.pi / 2 - 1e-9, step).angles()[-1] < math.pi / 2

    def test_cached_angles_read_only_and_equal(self):
        g = AngleGrid(min_angle=-math.pi / 2, max_angle=math.pi / 2, step=math.radians(0.01))
        a = g.angles()
        assert g.angles() is a
        assert not a.flags.writeable
        assert a.tobytes() == (g.min_angle + g.step * np.arange(g.n_points)).tobytes()
        # an equal but distinct grid shares the array: the scans' working
        # memory bounds leave no room for a second 18001-point copy
        twin = AngleGrid(min_angle=-math.pi / 2, max_angle=math.pi / 2, step=math.radians(0.01))
        assert twin is not g and twin.angles() is a

    def test_endpoints_inclusive(self):
        g = AngleGrid(min_angle=-0.5, max_angle=0.5, step=0.25)
        a = g.angles()
        assert a[0] == -0.5 and abs(a[-1] - 0.5) < 1e-12
        assert g.n_points == 5


class TestSector:
    def test_containment_invariant(self):
        with pytest.raises(ValueError):
            Sector(center=math.radians(80.0), width=math.radians(40.0))

    @pytest.mark.parametrize("center, width", [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0)])
    def test_rejects_non_finite(self, center, width):
        with pytest.raises(ValueError):
            Sector(center=center, width=width)

    def test_bounds_pass_a_spill_within_the_angle_bound_unclipped(self):
        s = Sector(center=0.0, width=math.pi)
        assert (s.lo, s.hi) == (-math.pi / 2, math.pi / 2)
        # the AoAVector rule: 1e-12 of rounding past +-pi/2 is kept as it is
        spill = Sector(center=0.0, width=math.pi + 1e-12)
        assert (spill.lo, spill.hi) == (-math.pi / 2 - 5e-13, math.pi / 2 + 5e-13)
        AoAVector(np.array([spill.lo, spill.hi]))

    @pytest.mark.parametrize("center", [1e-9, -1e-9])
    def test_spill_past_the_angle_bound_rejected(self, center):
        with pytest.raises(ValueError, match=r"\[-pi/2, pi/2\]"):
            Sector(center=center, width=math.pi)


class TestEmpiricalCovariance:
    def test_single_snapshot_outer_product(self):
        rng = make_rng(21)
        arr = ArrayConfig(6, 0.5)
        y = rng.normal(size=6) + 1j * rng.normal(size=6)
        obs = ObservationSet(signal=y[:, None], noise_variance=1.0, array=arr)
        r = empirical_covariance(obs)
        assert np.max(np.abs(r - np.outer(y, y.conj()))) < 1e-12

    def test_zero_signal(self):
        obs = ObservationSet(
            signal=np.zeros((4, 3), dtype=complex), noise_variance=1.0, array=ArrayConfig(4, 0.5)
        )
        assert np.all(empirical_covariance(obs) == 0)

    def test_noiseless_unit_gain_is_rank_one(self):
        rng = make_rng(22)
        arr = ArrayConfig(12, 0.5)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=9))
        obs = _noiseless_obs(arr, [17.0], phases[None, :], rng)
        r = empirical_covariance(obs)
        a = steering_vector(arr, math.radians(17.0))
        assert np.max(np.abs(r - np.outer(a, a.conj()))) < 1e-10  # sum|h|^2/M = 1
        ev = np.linalg.eigvalsh((r + r.conj().T) / 2)
        assert ev[-1] > 1e-6 and np.all(ev[:-1] < 1e-10)

    def test_hermitian_psd(self):
        rng = make_rng(23)
        arr = ArrayConfig(8, 0.5)
        prior = ChannelPrior(mean=np.zeros(2, complex), covariance=np.eye(2, dtype=complex))
        ch = sample_channel(prior, 5, rng)
        obs = synthesize_observation(arr, AoAVector(np.radians([-5.0, 30.0])), ch, 0.4, rng)
        r = empirical_covariance(obs)
        assert np.max(np.abs(r - r.conj().T)) < 1e-12
        assert np.linalg.eigvalsh((r + r.conj().T) / 2).min() >= -1e-10


def _correlation_at(obs, theta):
    """The correlation profile at theta, the first point of its grid."""
    return float(_correlation_profile(obs, AngleGrid(theta, theta + 0.01, 0.01))[0])


class TestCodebookCorrelation:
    def test_zero_signal(self):
        obs = ObservationSet(
            signal=np.zeros((4, 2), dtype=complex), noise_variance=1.0, array=ArrayConfig(4, 0.5)
        )
        assert _correlation_at(obs, 0.3) == 0.0

    def test_matched_angle_peaks_at_n(self):
        rng = make_rng(24)
        arr = ArrayConfig(16, 0.5)
        theta0 = math.radians(-8.0)
        obs = _noiseless_obs(arr, [-8.0], [[1.0]], rng)
        a0 = steering_vector(arr, theta0)
        assert abs(_correlation_at(obs, theta0) - arr.n_antennas) < 1e-10
        for theta in np.radians([-30.0, 3.0, 60.0]):
            expected = abs(np.vdot(steering_vector(arr, theta), a0))
            got = _correlation_at(obs, theta)
            assert abs(got - expected) < 1e-10
            assert got <= arr.n_antennas + 1e-10

    def test_global_phase_invariance(self):
        rng = make_rng(25)
        arr = ArrayConfig(8, 0.5)
        obs = _noiseless_obs(arr, [12.0], [[0.4 + 0.2j, -1.1j, 0.9]], rng)
        rotated = ObservationSet(
            signal=obs.signal * np.exp(1j * 1.234),
            noise_variance=obs.noise_variance,
            array=arr,
        )
        for theta in (-0.3, 0.0, 0.9):
            assert abs(
                _correlation_at(obs, theta) - _correlation_at(rotated, theta)
            ) < 1e-10


def _vertex(angle, step, left, mid, right):
    """The vertex of the parabola through (angle - step, left), (angle,
    mid) and (angle + step, right)."""
    return angle + step * 0.5 * (left - right) / (left - 2 * mid + right)


def _profile_at(obs, thetas):
    """(1/M) |sum_m y_m^H a(theta)| at each theta, point by point from
    steering vectors."""
    return [
        abs(np.sum(obs.signal.conj().T @ steering_vector(obs.array, t))) / obs.n_snapshots
        for t in thetas
    ]


class TestPseudoLabels:
    def test_on_grid_source_label_is_the_profile_vertex(self):
        """A K = 1 source on a grid angle is the profile's strict peak, so
        its label moves to the vertex through that angle and its
        neighbours: 5.6e-6 rad from the source, as the profile is
        symmetric in sin(theta), not in theta."""
        rng = make_rng(26)
        arr = ArrayConfig(32, 0.5)
        grid = AngleGrid(math.radians(-60.0), math.radians(60.0), math.radians(0.5))
        theta0 = grid.angles()[137]
        obs = _noiseless_obs(arr, [math.degrees(theta0)], [[1.0, 1.0j]], rng)
        labels = pseudo_labels(obs, grid, 1)
        expected = _vertex(theta0, grid.step, *_profile_at(obs, grid.angles()[136:139]))
        assert abs(labels.angles[0] - expected) < 1e-12
        assert 1e-6 < abs(labels.angles[0] - theta0) < 1e-5

    def test_matches_exhaustive_scan(self):
        # oracle: the K largest strict local maxima (endpoints eligible,
        # ties toward the smaller angle) of (1/M) |sum_m y_m^H a(theta)|,
        # built point by point from steering vectors; at K = 1 an interior
        # pick moves to the vertex of the parabola through it and its
        # neighbours
        rng = make_rng(27)
        arr = ArrayConfig(8, 0.5)
        grid = AngleGrid(-1.0, 1.0, 0.02)
        angles = grid.angles()
        prior = ChannelPrior(mean=np.zeros(2, complex), covariance=np.eye(2, dtype=complex))
        for trial in range(5):
            ch = sample_channel(prior, 6, rng)
            aoas = AoAVector(np.sort(rng.uniform(-0.9, 0.9, size=2)))
            obs = synthesize_observation(arr, aoas, ch, 0.3, rng)
            profile = _profile_at(obs, angles)
            maxima = [
                g
                for g in range(len(profile))
                if (g == 0 or profile[g] > profile[g - 1])
                and (g == len(profile) - 1 or profile[g] > profile[g + 1])
            ]
            assert len(maxima) >= 2
            top = sorted(maxima, key=lambda g: (-profile[g], angles[g]))[:2]
            expected = np.sort(angles[top])
            got = pseudo_labels(obs, grid, 2)
            assert np.max(np.abs(got.angles - expected)) < 1e-12
            g = top[0]
            assert 0 < g < len(profile) - 1
            expected = _vertex(angles[g], grid.step, *profile[g - 1 : g + 2])
            got = pseudo_labels(obs, grid, 1)
            assert abs(got.angles[0] - expected) < 1e-12
            assert abs(got.angles[0] - angles[g]) < grid.step / 2

    @pytest.mark.parametrize(
        "profile, index, refined",
        [
            ([0.0, 1.0, 3.0, 2.0, 0.0], 2, True),
            ([0.0, 2.0, 2.0, 1.0, 0.0], 1, False),
            ([3.0, 2.0, 1.0, 2.0, 2.5], 0, False),
        ],
        ids=["strict_interior_peak", "plateau", "grid_end"],
    )
    def test_single_user_vertex_rule(self, monkeypatch, profile, index, refined):
        """At K = 1 only a strict interior pick leaves the grid; a plateau
        (no strict maximum, so the fill picks the smaller angle) and a pick
        at a grid end stay on it."""
        rng = make_rng(36)
        obs = _noiseless_obs(ArrayConfig(4, 0.5), [0.0], [[1.0]], rng)
        grid = AngleGrid(-0.2, 0.2, 0.1)
        monkeypatch.setattr(
            "aoavi.preprocess._correlation_profile", lambda *_: np.array(profile)
        )
        angle = grid.angles()[index]
        expected = _vertex(angle, grid.step, *profile[index - 1 : index + 2]) if refined else angle
        assert pseudo_labels(obs, grid, 1).angles[0] == expected

    def test_well_separated_sources_located(self):
        # The snapshot-coherent correlation statistic needs gains that do
        # not cancel across snapshots; each source is then its own peak.
        arr = ArrayConfig(32, 0.5)
        grid = AngleGrid(math.radians(-60.0), math.radians(60.0), math.radians(0.1))
        prior = ChannelPrior(
            mean=np.ones(2, dtype=complex), covariance=0.01 * np.eye(2, dtype=complex)
        )
        truth = np.radians([-25.0, 33.0])
        tol = math.radians(0.1) + 2.0 / arr.n_antennas
        for seed in range(10):
            rng = make_rng(seed)
            ch = sample_channel(prior, 40, rng)
            obs = synthesize_observation(arr, AoAVector(truth), ch, 0.01, rng)
            for radius in (0.0, math.radians(4.0)):
                labels = pseudo_labels(obs, grid, 2, suppression_radius=radius)
                assert np.max(np.abs(labels.angles - truth)) < tol

    def test_sorted_and_on_grid(self):
        rng = make_rng(29)
        arr = ArrayConfig(8, 0.5)
        grid = AngleGrid(-1.2, 1.2, 0.03)
        obs = _noiseless_obs(arr, [10.0], [[1.0 + 0.5j]], rng, noise_variance=0.5)
        labels = pseudo_labels(obs, grid, 3)
        assert np.all(np.diff(labels.angles) > 0)
        on_grid = np.abs(labels.angles[:, None] - grid.angles()[None, :]).min(axis=1)
        assert np.max(on_grid) < 1e-12

    def test_labels_are_grid_angles_past_the_half_space_end_unclipped(self):
        # AngleGrid and AoAVector share the 1e-12 bound, so a grid end
        # 5e-13 past -pi/2 is a valid label as it stands
        rng = make_rng(35)
        arr = ArrayConfig(8, 0.5)
        grid = AngleGrid(-math.pi / 2 - 5e-13, 0.0, 0.01)
        obs = _noiseless_obs(arr, [-90.0], [[1.0]], rng)
        labels = pseudo_labels(obs, grid, 1)
        assert isinstance(labels, AoAVector)
        assert labels.angles.tolist() == [-math.pi / 2 - 5e-13]

    def test_grid_too_small_rejected(self):
        rng = make_rng(30)
        arr = ArrayConfig(4, 0.5)
        obs = _noiseless_obs(arr, [0.0], [[1.0]], rng)
        grid = AngleGrid(-0.1, 0.1, 0.2)  # 2 points
        with pytest.raises(ValueError):
            pseudo_labels(obs, grid, 3)

    def test_suppression_radius_separates_picks(self):
        rng = make_rng(31)
        arr = ArrayConfig(32, 0.5)
        grid = AngleGrid(math.radians(-60.0), math.radians(60.0), math.radians(0.1))
        # one strong source: the second pick must come from another lobe,
        # past the first null at |delta sin(theta)| = 1 / (N d/lambda)
        obs = _noiseless_obs(arr, [10.0], [[1.0] * 30], rng, noise_variance=0.01)
        plain = pseudo_labels(obs, grid, 2)
        first_null = 1.0 / (arr.n_antennas * arr.spacing_ratio)
        assert abs(np.diff(np.sin(plain.angles))[0]) > first_null
        spread = pseudo_labels(obs, grid, 2, suppression_radius=math.radians(5.0))
        assert abs(spread.angles[1] - spread.angles[0]) >= math.radians(5.0) - 1e-12

    def test_zero_radius_identical_to_plain(self):
        rng = make_rng(32)
        arr = ArrayConfig(16, 0.5)
        grid = AngleGrid(-1.0, 1.0, 0.01)
        obs = _noiseless_obs(arr, [5.0], [[0.7, -0.2j]], rng, noise_variance=0.2)
        a = pseudo_labels(obs, grid, 3)
        b = pseudo_labels(obs, grid, 3, suppression_radius=0.0)
        assert np.array_equal(a.angles, b.angles)

    def test_oversized_radius_falls_back_deterministically(self):
        rng = make_rng(33)
        arr = ArrayConfig(8, 0.5)
        grid = AngleGrid(-1.0, 1.0, 0.05)
        obs = _noiseless_obs(arr, [0.0], [[1.0]], rng)
        labels = pseudo_labels(obs, grid, 2, suppression_radius=100.0)
        assert labels.angles.shape == (2,)
        repeat = pseudo_labels(obs, grid, 2, suppression_radius=100.0)
        assert np.array_equal(labels.angles, repeat.angles)

    def test_negative_radius_rejected(self):
        rng = make_rng(34)
        arr = ArrayConfig(4, 0.5)
        obs = _noiseless_obs(arr, [0.0], [[1.0]], rng)
        with pytest.raises(ValueError):
            pseudo_labels(obs, AngleGrid(-1.0, 1.0, 0.1), 1, suppression_radius=-0.1)

    def test_nan_radius_rejected(self):
        rng = make_rng(34)
        arr = ArrayConfig(4, 0.5)
        obs = _noiseless_obs(arr, [0.0], [[1.0]], rng)
        with pytest.raises(ValueError, match="suppression_radius"):
            pseudo_labels(obs, AngleGrid(-1.0, 1.0, 0.1), 1, suppression_radius=math.nan)


class TestPickPeaks:
    @pytest.mark.parametrize(
        "values, k, min_separation, expected, degraded",
        [
            # both endpoints are strict maxima
            ([3.0, 1.0, 0.0, 1.0, 2.0], 2, 0.0, [0, 4], False),
            # a two-point plateau has no strict maximum: filled, ties to the smaller angle
            ([1.0, 2.0, 2.0, 1.0], 1, 0.0, [1], True),
            # equal maxima: the smaller angle ranks first
            ([1.0, 3.0, 1.0, 3.0, 1.0], 1, 0.0, [1], False),
            # the maximum at 3 is closer than 2.5 to the pick at 1 and is skipped
            ([0.0, 5.0, 0.0, 4.0, 0.0, 3.0, 0.0], 2, 2.5, [1, 5], False),
            ([0.0, 5.0, 0.0, 4.0, 0.0, 3.0, 0.0], 2, 0.0, [1, 3], False),
            # fill by value, ties toward the smaller angle, skipping the pick
            ([4.0, 1.0, 3.0, 3.0, 2.0, 0.0], 3, 0.0, [0, 2, 3], True),
            # a separation that leaves one pick fills from the skipped maximum
            ([0.0, 5.0, 0.0, 4.0, 0.0], 2, 10.0, [1, 3], True),
        ],
    )
    def test_rule_on_hand_built_vectors(self, values, k, min_separation, expected, degraded):
        values = np.asarray(values)
        angles = np.arange(values.size, dtype=float)
        got, got_degraded = _pick_peaks(values, angles, k, min_separation)
        assert got.tolist() == expected
        assert got_degraded is degraded


class TestSectorGrid:
    def test_paper_scale_sector(self):
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        grid = sector_grid(sector, math.radians(0.01))
        assert grid.n_points == 12001
        assert abs(grid.min_angle + math.pi / 3) < 1e-12
        assert abs(grid.max_angle - math.pi / 3) < 1e-12

    def test_two_point_grid(self):
        sector = Sector(center=0.3, width=0.05)
        grid = sector_grid(sector, 0.05)
        assert grid.n_points == 2

    def test_full_half_space(self):
        grid = sector_grid(Sector(center=0.0, width=math.pi), math.radians(1.0))
        assert abs(grid.min_angle + math.pi / 2) < 1e-12
        assert abs(grid.max_angle - math.pi / 2) < 1e-12
        assert grid.n_points == 181

    def test_step_that_does_not_divide_the_width_stops_short_of_the_edge(self):
        # 30 degrees at 0.7: 43 points, the last at 14.4 against the 15 degree edge
        sector = Sector(center=0.0, width=math.radians(30.0))
        grid = sector_grid(sector, math.radians(0.7))
        assert grid.n_points == 43
        assert abs(grid.min_angle - sector.lo) < 1e-12
        last = grid.angles()[-1]
        assert abs(math.degrees(last) - 14.4) < 1e-9
        assert 0 < sector.hi - last < grid.step


class TestGridSteering:
    def test_columns_are_responses(self):
        # with N <= B the cache holds every row
        arr = ArrayConfig(8, 0.5)
        grid = AngleGrid(-0.4, 0.4, 0.1)
        mat = grid_steering(arr, grid)
        assert mat.shape == (8, grid.n_points)
        for i, theta in enumerate(grid.angles()):
            assert np.max(np.abs(mat[:, i] - steering_vector(arr, theta))) < 1e-12

    @pytest.mark.parametrize(
        "spacing, center_deg, width_deg, step_deg",
        [(2.0, 15.0, 30.0, 0.01), (0.5, 0.0, 180.0, 0.05), (0.75, -20.0, 50.0, 0.1)],
    )
    def test_bit_identical_to_array_matrix_and_read_only(
        self, spacing, center_deg, width_deg, step_deg
    ):
        """The cache is rows 0..B of the steering matrix, bit for bit."""
        arr = ArrayConfig(32, spacing)
        sector = Sector(center=math.radians(center_deg), width=math.radians(width_deg))
        grid = sector_grid(sector, math.radians(step_deg))
        mat = grid_steering(arr, grid)
        rows = _BABY_STEPS + 1
        assert mat.shape == (rows, grid.n_points)
        assert mat.nbytes <= rows * grid.n_points * 16
        for g, theta in enumerate(grid.angles()):
            column = array_matrix(arr, AoAVector([theta]))[:rows, 0]
            # byte equality: stricter than np.array_equal, it also pins signed zeros
            assert mat[:, g].tobytes() == column.tobytes()
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0

    def test_holds_9_of_32_rows(self):
        arr = ArrayConfig(32, 2.0)
        grid = sector_grid(Sector(center=0.0, width=math.pi), math.radians(0.01))
        full = _steering(arr, grid.angles())
        assert grid_steering(arr, grid).nbytes * 32 == full.nbytes * 9

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 13, 32, 40])
    @pytest.mark.parametrize("k", [1, 3])
    def test_products_match_direct_product(self, n, k):
        """Any N, whole blocks or a zero-padded last one, over a grid of
        several chunks with a partial last one."""
        arr = ArrayConfig(n, 1.5)
        grid = AngleGrid(-1.5, 1.5, 3.0 / (2 * _SCAN_CHUNK + 99))
        assert grid.n_points == 2 * _SCAN_CHUNK + 100
        rng = make_rng(160 + n)
        coef = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        want = coef @ _steering(arr, grid.angles())
        got = np.full(want.shape, np.nan, dtype=complex)
        for cols, proj in _steering_products(coef, arr, grid):
            got[:, cols] = proj
        scale = np.sum(np.abs(coef), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 32 * n * np.finfo(float).eps * scale)
