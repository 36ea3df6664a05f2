import math
import tracemalloc

import numpy as np
import pytest

from aoavi.baselines import MusicSpectrum, ls_channel, music_estimate
from aoavi.estimator import closed_form_channel_update
from aoavi.preprocess import (
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
    snr_to_noise_variance,
    synthesize_observation,
)

from conftest import make_rng


class TestMusicEstimate:
    def test_noiseless_on_grid_peak(self):
        rng = make_rng(110)
        arr = ArrayConfig(16, 0.5)
        grid = AngleGrid(math.radians(-60.0), math.radians(60.0), math.radians(0.5))
        theta0 = grid.angles()[97]
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        ch = sample_channel(prior, 20, rng)
        obs = synthesize_observation(arr, AoAVector(np.array([theta0])), ch, 0.0, rng)
        spectrum = music_estimate(obs, grid, 1)
        assert spectrum.peaks[0] == theta0
        peak_value = spectrum.values[np.argmin(np.abs(grid.angles() - theta0))]
        assert peak_value > 1e6  # orthogonality up to the eigen floor

    def test_white_noise_robustness(self):
        rng = make_rng(111)
        arr = ArrayConfig(8, 0.5)
        noise = (rng.normal(size=(8, 30)) + 1j * rng.normal(size=(8, 30))) * math.sqrt(0.5)
        obs = ObservationSet(signal=noise, noise_variance=1.0, array=arr)
        grid = AngleGrid(-1.0, 1.0, 0.02)
        spectrum = music_estimate(obs, grid, 1)
        assert np.all(np.isfinite(spectrum.values))
        assert len(spectrum.peaks) == 1

    def test_two_sources_monte_carlo(self):
        arr = ArrayConfig(32, 0.5)
        truth = np.radians([-20.0, 30.0])
        aoas = AoAVector(truth)
        prior = ChannelPrior(mean=np.zeros(2, complex), covariance=np.eye(2, dtype=complex))
        grid = sector_grid(Sector(center=0.0, width=math.pi), math.radians(0.05))
        s2 = snr_to_noise_variance(20.0, arr, prior, aoas)
        worst_by_trial = []
        for seed in range(40):
            rng = make_rng(5000 + seed)
            ch = sample_channel(prior, 40, rng)
            obs = synthesize_observation(arr, aoas, ch, s2, rng)
            spectrum = music_estimate(obs, grid, 2)
            got = np.sort(spectrum.peaks)
            worst_by_trial.append(np.max(np.abs(got - truth)))
        assert np.median(worst_by_trial) < math.radians(0.5)

    @staticmethod
    def _noise_subspace_oracle(obs, grid, k):
        """The textbook spectrum 1 / max(||E_n^H a||^2, 1e-8) over the N-K
        noise eigenvectors, with the same peak rule."""
        n = obs.array.n_antennas
        _w, vecs = np.linalg.eigh(empirical_covariance(obs))
        noise = vecs[:, : n - k]
        steer = _steering(obs.array, grid.angles())
        denom = np.sum(np.abs(noise.conj().T @ steer) ** 2, axis=0)
        values = 1.0 / np.maximum(denom, 1e-8)
        angles = grid.angles()
        padded = np.concatenate(([-np.inf], values, [-np.inf]))
        maxima = np.nonzero((values > padded[:-2]) & (values > padded[2:]))[0]

        def rank(i):
            return -values[i], angles[i]

        chosen = sorted(maxima, key=rank)[:k]
        degraded = len(chosen) < k
        rest = sorted(set(range(values.size)) - set(chosen), key=rank)
        chosen += rest[: k - len(chosen)]
        return denom, values, tuple(sorted(float(angles[i]) for i in chosen)), degraded

    @pytest.mark.parametrize("spacing", [0.5, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_signal_subspace_matches_noise_subspace_oracle(self, k, spacing):
        arr = ArrayConfig(32, spacing)
        if spacing == 0.5:
            grid = sector_grid(Sector(center=0.0, width=math.pi), math.radians(0.05))
        else:
            grid = sector_grid(Sector(center=0.0, width=math.radians(28.0)), math.radians(0.01))
        prior = ChannelPrior(mean=np.zeros(k, complex), covariance=np.eye(k, dtype=complex))
        rng = make_rng(130 + k)
        # noiseless block with on-grid sources first: there the floor binds
        for snr_db in (None, 0.0, 10.0, 20.0):
            picks = np.sort(rng.choice(np.arange(100, grid.n_points - 100, 300), k, replace=False))
            aoas = AoAVector(grid.angles()[picks])
            s2 = 0.0 if snr_db is None else snr_to_noise_variance(snr_db, arr, prior, aoas)
            obs = synthesize_observation(arr, aoas, sample_channel(prior, 40, rng), s2, rng)
            denom, ref, peaks, degraded = self._noise_subspace_oracle(obs, grid, k)
            spectrum = music_estimate(obs, grid, k)
            if snr_db is None:
                assert np.all(ref[picks] == 1e8) and np.all(spectrum.values[picks] == 1e8)
            resolved = denom > 1e-6
            rel = np.abs(spectrum.values - ref)[resolved] / ref[resolved]
            assert np.max(rel) <= 1e-9
            assert spectrum.peaks == peaks
            assert spectrum.degraded == degraded

    def test_spectrum_working_memory_is_o_k_g(self):
        """With the grid steering cached, the scan allocates far less than
        the N x G steering matrix; an (N-K) x G complex product would not
        fit. Beyond the G-point spectrum, formed in place, the scan holds
        one grid chunk of block products at a time, so no other grid-sized
        array is allocated."""
        rng = make_rng(133)
        arr = ArrayConfig(32, 2.0)
        grid = sector_grid(Sector(center=0.0, width=math.pi), math.radians(0.01))
        assert grid.n_points == 18001
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        aoas = AoAVector(np.radians([11.0]))
        s2 = snr_to_noise_variance(10.0, arr, prior, aoas)
        obs = synthesize_observation(arr, aoas, sample_channel(prior, 40, rng), s2, rng)
        grid_steering(arr, grid)
        tracemalloc.start()
        try:
            music_estimate(obs, grid, 1)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * grid.n_points * 16 / 4
        assert peak < 1.25 * grid.n_points * (16 + 8)

    @staticmethod
    def _allocating_scans(obs, grid, k):
        """MUSIC and the pseudo-label profile as plain allocating
        expressions of the blocked steering products, joined over the whole
        grid, each temporary its own array, and the angles rebuilt from the
        grid on every call; a K = 1 label at a strict interior peak moves to
        the vertex of the parabola through it and its neighbours."""
        n = obs.array.n_antennas

        def products(coef):
            chunks = [p.copy() for _, p in _steering_products(coef, obs.array, grid)]
            return np.concatenate(chunks, axis=1)

        _w, vecs = np.linalg.eigh(empirical_covariance(obs))
        denom = n - np.sum(np.abs(products(vecs[:, n - k :].conj().T)) ** 2, axis=0)
        values = 1.0 / np.maximum(denom, 1e-8)
        angles = grid.min_angle + grid.step * np.arange(grid.n_points)
        chosen, degraded = _pick_peaks(values, angles, k)
        peaks = tuple(float(angles[i]) for i in chosen)
        colsum = np.sum(obs.signal, axis=1)
        corr = np.abs(products(colsum.conj()[None, :])[0]) / obs.n_snapshots
        order, _ = _pick_peaks(corr, angles, k)
        labels = angles[order]
        i = order[0]
        if k == 1 and 0 < i < grid.n_points - 1 and corr[i - 1] < corr[i] > corr[i + 1]:
            left, mid, right = corr[i - 1 : i + 2]
            labels = labels + grid.step * 0.5 * (left - right) / (left - 2 * mid + right)
        return values, peaks, degraded, labels

    @pytest.mark.parametrize("spacing", [0.5, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_in_place_scans_match_allocating_expressions(self, k, spacing):
        """Byte for byte, on a 3601-point grid and on an 18001-point one,
        whose G-sized float temporaries (144 KB) pass glibc's default
        128 KiB mmap threshold."""
        arr = ArrayConfig(32, spacing)
        step = math.radians(0.05 if spacing == 0.5 else 0.01)
        grid = sector_grid(Sector(center=0.0, width=math.pi), step)
        assert grid.n_points == (3601 if spacing == 0.5 else 18001)
        prior = ChannelPrior(mean=np.zeros(k, complex), covariance=np.eye(k, dtype=complex))
        rng = make_rng(140 + k)
        for snr_db in (None, 0.0, 10.0, 20.0):
            picks = np.sort(rng.choice(np.arange(100, grid.n_points - 100, 300), k, replace=False))
            # noiseless on-grid sources make the floor bind; the rest sit off the grid
            offset = 0.0 if snr_db is None else 0.3 * step
            aoas = AoAVector(grid.angles()[picks] + offset)
            s2 = 0.0 if snr_db is None else snr_to_noise_variance(snr_db, arr, prior, aoas)
            obs = synthesize_observation(arr, aoas, sample_channel(prior, 40, rng), s2, rng)
            values, peaks, degraded, labels = self._allocating_scans(obs, grid, k)
            spectrum = music_estimate(obs, grid, k)
            assert spectrum.values.tobytes() == values.tobytes()
            assert not spectrum.values.flags.writeable
            assert spectrum.peaks == peaks
            assert spectrum.degraded == degraded
            assert pseudo_labels(obs, grid, k).angles.tobytes() == labels.tobytes()

    @pytest.mark.parametrize(
        "spacing, center_deg, width_deg, step_deg",
        [(0.5, 0.0, 120.0, 0.5), (2.0, 15.0, 30.0, 0.01), (2.0, 0.0, 180.0, 0.01)],
        ids=["241", "3001", "18001"],
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_scans_match_direct_product_on_benchmark_grids(
        self, k, spacing, center_deg, width_deg, step_deg
    ):
        """The blocked scans against the direct N x G product, on the
        grids of the sweep_k1 and alias_grid workloads, within round-off:
        the profile to 32 N eps of its maximum, the MUSIC denominator
        N - ||U^H a||^2 (up to the 1e-8 floor) to 32 N^2 eps absolute."""
        arr = ArrayConfig(32, spacing)
        n = arr.n_antennas
        eps = np.finfo(float).eps
        grid = sector_grid(
            Sector(center=math.radians(center_deg), width=math.radians(width_deg)),
            math.radians(step_deg),
        )
        steer = _steering(arr, grid.angles())
        prior = ChannelPrior(mean=np.zeros(k, complex), covariance=np.eye(k, dtype=complex))
        rng = make_rng(150 + k)
        for snr_db in (None, 0.0, 10.0, 20.0):
            picks = np.sort(rng.choice(grid.n_points, k, replace=False))
            aoas = AoAVector(grid.angles()[picks])
            s2 = 0.0 if snr_db is None else snr_to_noise_variance(snr_db, arr, prior, aoas)
            obs = synthesize_observation(arr, aoas, sample_channel(prior, 40, rng), s2, rng)
            ref = np.abs(np.sum(obs.signal, axis=1).conj() @ steer) / obs.n_snapshots
            got = _correlation_profile(obs, grid)
            assert np.max(np.abs(got - ref)) <= 32 * n * eps * np.max(ref)
            _w, vecs = np.linalg.eigh(empirical_covariance(obs))
            power = np.sum(np.abs(vecs[:, n - k :].conj().T @ steer) ** 2, axis=0)
            denom = np.maximum(n - power, 1e-8)
            values = music_estimate(obs, grid, k).values
            assert np.max(np.abs(1.0 / values - denom)) <= 32 * n**2 * eps

    def test_nan_eigenvectors_raise(self, monkeypatch):
        """A LAPACK that returns NaN eigenvectors instead of raising
        LinAlgError yields a NaN spectrum, which is rejected."""
        rng = make_rng(135)
        arr = ArrayConfig(8, 0.5)
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        obs = synthesize_observation(
            arr, AoAVector(np.array([0.2])), sample_channel(prior, 10, rng), 0.1, rng
        )

        def nan_eigh(a):
            return np.full(a.shape[0], np.nan), np.full(a.shape, np.nan, dtype=complex)

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        with pytest.raises(ValueError):
            music_estimate(obs, AngleGrid(-1.0, 1.0, 0.01), 1)

    def test_scaling_invariance(self):
        rng = make_rng(112)
        arr = ArrayConfig(12, 0.5)
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        ch = sample_channel(prior, 10, rng)
        obs = synthesize_observation(arr, AoAVector(np.array([0.3])), ch, 0.05, rng)
        grid = AngleGrid(-1.0, 1.0, 0.01)
        base = music_estimate(obs, grid, 1)
        scaled_obs = ObservationSet(
            signal=obs.signal * (2.0 - 1.5j), noise_variance=obs.noise_variance, array=arr
        )
        scaled = music_estimate(scaled_obs, grid, 1)
        assert scaled.peaks == base.peaks
        assert np.max(np.abs(scaled.values - base.values)) < 1e-6 * np.max(base.values)

    def test_degraded_flag_when_peaks_missing(self):
        # grid confined to the rising edge of the main lobe: the spectrum is
        # strictly increasing, so the only local maximum is the right
        # endpoint and the second requested peak must be padded
        rng = make_rng(120)
        arr = ArrayConfig(16, 0.5)
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        ch = sample_channel(prior, 12, rng)
        obs = synthesize_observation(arr, AoAVector(np.array([0.5])), ch, 0.0, rng)
        grid = AngleGrid(0.38, 0.46, 0.02)
        spectrum = music_estimate(obs, grid, 2)
        assert spectrum.degraded
        assert len(spectrum.peaks) == 2

    def test_preconditions(self):
        rng = make_rng(113)
        arr = ArrayConfig(4, 0.5)
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        ch = sample_channel(prior, 2, rng)
        obs = synthesize_observation(arr, AoAVector(np.zeros(1)), ch, 0.1, rng)
        grid = AngleGrid(-1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            music_estimate(obs, grid, 3)  # M < K
        with pytest.raises(ValueError):
            music_estimate(obs, grid, 4)  # N = K leaves no noise subspace

    def test_peak_past_the_half_space_end_is_a_valid_aoa(self):
        """A grid end within AngleGrid's 1e-12 of -pi/2 is within AoAVector's
        too: the peak there feeds ls_channel, and is the pseudo-label."""
        rng = make_rng(136)
        arr = ArrayConfig(8, 0.5)
        grid = AngleGrid(-math.pi / 2 - 5e-13, 0.0, math.radians(0.5))
        prior = ChannelPrior(mean=np.ones(1, complex), covariance=np.eye(1, dtype=complex))
        aoas = AoAVector(np.radians([-89.9]))
        obs = synthesize_observation(arr, aoas, sample_channel(prior, 10, rng), 0.0, rng)
        spectrum = music_estimate(obs, grid, 1)
        assert spectrum.peaks == (-math.pi / 2 - 5e-13,)
        gains = ls_channel(obs, AoAVector(np.array(spectrum.peaks)))
        assert gains.shape == (1, 10)
        assert pseudo_labels(obs, grid, 1).angles.tolist() == list(spectrum.peaks)

    def test_spectrum_type_invariants(self):
        grid = AngleGrid(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            MusicSpectrum(grid=grid, values=-np.ones(5), peaks=(0.0,))
        with pytest.raises(ValueError):
            MusicSpectrum(grid=grid, values=np.ones(5), peaks=(0.123,))  # off grid
        with pytest.raises(ValueError):
            MusicSpectrum(grid=grid, values=np.ones(5), peaks=(math.nan,))
        with pytest.raises(ValueError):
            MusicSpectrum(grid=grid, values=np.array([1.0, 1.0, math.nan, 1.0, 1.0]), peaks=(0.0,))


class TestMusicSpectrum:
    @staticmethod
    def _on_grid_by_full_scan(grid, peak):
        """The O(G) reference: distance to every grid angle."""
        return np.min(np.abs(grid.angles() - peak)) <= 1e-12

    @staticmethod
    def _accepts(grid, peaks):
        try:
            MusicSpectrum(grid=grid, values=np.ones(grid.n_points), peaks=tuple(peaks))
        except ValueError:
            return False
        return True

    @pytest.mark.parametrize(
        "grid",
        [
            AngleGrid(-1.0, 1.0, 0.5),
            AngleGrid(-0.3, 0.4, 0.013),
            # ends 5e-13 past +-pi/2, within the 1e-12 AngleGrid admits
            AngleGrid(-math.pi / 2 - 5e-13, math.pi / 2 + 5e-13, math.radians(1.0)),
            # a step of 2e-12 puts the midpoints at the 1e-12 tolerance
            AngleGrid(0.1, 0.1 + 8e-12, 2e-12),
        ],
    )
    def test_on_grid_check_matches_full_scan(self, grid):
        angles = grid.angles()
        first, last = angles[0], angles[-1]
        candidates = [
            first - 1e-3,
            last + 1e-3,
            math.pi / 2,
            -math.pi / 2,
            *(first + d for d in (-1.1e-12, -1e-12, -0.9e-12, 0.0, 0.9e-12, 1e-12, 1.1e-12)),
            *(last + d for d in (-1.1e-12, -1e-12, -0.9e-12, 0.0, 0.9e-12, 1e-12, 1.1e-12)),
            *((angles[:-1] + angles[1:]) / 2),
            *(a + 0.5 * (b - a) for a, b in zip(angles[:-1], angles[1:])),
            *(np.nextafter(a, np.inf) for a in angles),
            *(np.nextafter(a, -np.inf) for a in angles),
        ]
        verdicts = set()
        for p in candidates:
            expected = self._on_grid_by_full_scan(grid, p)
            assert self._accepts(grid, [p]) == expected, p
            verdicts.add(bool(expected))
        assert verdicts == {True, False}
        assert self._accepts(grid, [first, last])
        assert not self._accepts(grid, [first, last + 1e-3])

    def test_values_kept_if_read_only_else_copied_and_locked(self):
        grid = AngleGrid(-1.0, 1.0, 0.5)
        locked = np.arange(5.0)
        locked.setflags(write=False)
        assert MusicSpectrum(grid=grid, values=locked, peaks=(1.0,)).values is locked
        values = np.arange(5.0)
        spectrum = MusicSpectrum(grid=grid, values=values, peaks=(1.0,))
        assert spectrum.values is not values and not spectrum.values.flags.writeable
        values[0] = 7.0
        assert spectrum.values[0] == 0.0


class TestLsChannel:
    def test_noiseless_exact_recovery(self):
        rng = make_rng(114)
        arr = ArrayConfig(16, 0.5)
        aoas = AoAVector(np.radians([-15.0, 22.0]))
        prior = ChannelPrior(mean=np.zeros(2, complex), covariance=np.eye(2, dtype=complex))
        ch = sample_channel(prior, 6, rng)
        obs = synthesize_observation(arr, aoas, ch, 0.0, rng)
        gains = ls_channel(obs, aoas)
        assert np.max(np.abs(gains - ch.gains)) < 1e-10

    def test_residual_orthogonality(self):
        rng = make_rng(115)
        arr = ArrayConfig(12, 0.5)
        aoas = AoAVector(np.radians([5.0, 40.0]))
        prior = ChannelPrior(mean=np.zeros(2, complex), covariance=np.eye(2, dtype=complex))
        ch = sample_channel(prior, 4, rng)
        obs = synthesize_observation(arr, aoas, ch, 0.5, rng)
        gains = ls_channel(obs, aoas)
        a = array_matrix(arr, aoas)
        resid = obs.signal - a @ gains
        assert np.max(np.abs(a.conj().T @ resid)) < 1e-10 * np.linalg.norm(obs.signal)

    def test_error_variance_grows_linearly(self):
        arr = ArrayConfig(8, 0.5)
        aoas = AoAVector(np.radians([10.0]))
        truth = np.ones((1, 2000), dtype=complex)
        ch = ChannelRealization(truth)

        def mean_sq_err(s2, seed):
            rng = make_rng(seed)
            obs = synthesize_observation(arr, aoas, ch, s2, rng)
            est = ls_channel(obs, aoas)
            return np.mean(np.abs(est - truth) ** 2)

        low = mean_sq_err(0.5, 116)
        high = mean_sq_err(2.0, 117)
        assert abs(high / low - 4.0) < 0.3 * 4.0

    def test_flat_prior_bridge(self):
        """The posterior mean update approaches plain least squares as the
        prior covariance flattens."""
        rng = make_rng(118)
        arr = ArrayConfig(16, 0.5)
        aoas = AoAVector(np.radians([-8.0, 26.0]))
        informative = ChannelPrior(
            mean=np.zeros(2, complex), covariance=np.eye(2, dtype=complex)
        )
        ch = sample_channel(informative, 5, rng)
        obs = synthesize_observation(arr, aoas, ch, 0.4, rng)
        flat = ChannelPrior(
            mean=np.zeros(2, complex), covariance=1e8 * np.eye(2, dtype=complex)
        )
        means, _ = closed_form_channel_update(obs, aoas, flat)
        direct = ls_channel(obs, aoas)
        assert np.max(np.abs(means - direct)) < 1e-4

    @pytest.mark.parametrize(
        "n_antennas, aoas_rad",
        [
            (8, [0.2, 0.2]),  # identical steering columns
            # more users than antennas: lstsq returns a minimum-norm solution
            # and two singular values, but (A^H A)^-1 A^H y does not exist
            (2, np.radians([-30.0, 0.0, 40.0])),
        ],
        ids=["duplicate_columns", "more_users_than_antennas"],
    )
    def test_rank_deficient_rejected(self, n_antennas, aoas_rad):
        rng = make_rng(119)
        arr = ArrayConfig(n_antennas, 0.5)
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        ch = sample_channel(prior, 3, rng)
        obs = synthesize_observation(arr, AoAVector(np.array([0.2])), ch, 0.1, rng)
        with pytest.raises(ValueError, match="rank-deficient"):
            ls_channel(obs, AoAVector(np.array(aoas_rad)))


_GRID = AngleGrid(-0.5, 0.5, 0.25)


def _music_obs(n_antennas: int, n_snapshots: int = 5) -> ObservationSet:
    signal = make_rng(0).standard_normal((n_antennas, n_snapshots)) + 0j
    return ObservationSet(signal=signal, noise_variance=1.0, array=ArrayConfig(n_antennas, 0.5))


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: MusicSpectrum(_GRID, np.ones(_GRID.n_points + 1), ()),
            "one spectrum value per grid point required",
        ),
        (lambda: MusicSpectrum(_GRID, np.ones(_GRID.n_points), (0.25, 0.0)), "sorted ascending"),
        (lambda: music_estimate(_music_obs(4), _GRID, 0), "k_sources must be at least 1"),
        (lambda: music_estimate(_music_obs(2), _GRID, 2), "need more antennas than sources"),
        (
            lambda: music_estimate(_music_obs(8), AngleGrid(-0.5, 0.5, 1.0), 3),
            "grid too small for the requested number of peaks",
        ),
    ],
    ids=["spectrum_shape", "unsorted_peaks", "k_below_1", "n_not_above_k", "grid_below_k"],
)
def test_input_checks_name_the_rule(build, message):
    with pytest.raises(ValueError, match=message):
        build()
