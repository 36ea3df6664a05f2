import math

import numpy as np
import pytest

from aoavi.signal_model import (
    AoAVector,
    ArrayConfig,
    ChannelPrior,
    ChannelRealization,
    ObservationSet,
    _phase_column,
    _steering,
    array_matrix,
    sample_channel,
    snr_to_noise_variance,
    synthesize_observation,
)

from aoavi.estimator import estimate
from aoavi.preprocess import Sector, sector_grid

from conftest import make_rng, random_pd, random_prior, steering_vector


class TestArrayConfig:
    def test_rejects_single_antenna(self):
        with pytest.raises(ValueError):
            ArrayConfig(n_antennas=1, spacing_ratio=0.5)

    def test_rejects_subhalf_spacing(self):
        with pytest.raises(ValueError):
            ArrayConfig(n_antennas=8, spacing_ratio=0.49)

    def test_accepts_wide_spacing(self):
        cfg = ArrayConfig(n_antennas=8, spacing_ratio=2.0)
        assert cfg.spacing_ratio == 2.0

    def test_rejects_bool_spacing(self):
        with pytest.raises(ValueError):
            ArrayConfig(n_antennas=4, spacing_ratio=True)


class TestAoAVector:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AoAVector(np.array([math.pi / 2 + 0.01]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            AoAVector(np.array([0.1, bad]))

    def test_k_users(self):
        assert AoAVector(np.array([0.0, 0.1, 0.2])).k_users == 3

    def test_copies_once_and_leaves_the_caller_array_alone(self):
        given = np.array([0.1, -0.2])
        v = AoAVector(given)
        assert not np.shares_memory(v.angles, given)
        assert given.flags.writeable and not v.angles.flags.writeable
        given[0] = 0.5
        assert v.angles.tolist() == [0.1, -0.2]


class TestChannelPrior:
    def test_rejects_non_hermitian(self):
        cov = np.array([[1.0, 0.5j], [0.5j, 1.0]])  # (0,1) vs (1,0) mismatch
        with pytest.raises(ValueError):
            ChannelPrior(mean=np.zeros(2, complex), covariance=cov)

    def test_rejects_non_positive_definite(self):
        cov = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            ChannelPrior(mean=np.zeros(2, complex), covariance=cov)

    def test_accepts_random_pd(self):
        rng = make_rng(1)
        p = ChannelPrior(mean=np.zeros(3, complex), covariance=random_pd(3, rng))
        assert p.k_users == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_mean(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            ChannelPrior(mean=np.array([0.5, bad]), covariance=np.eye(2, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_covariance(self, bad, where):
        cov = np.eye(2, dtype=complex)
        cov[where] = bad
        with pytest.raises(ValueError, match="must be finite"):
            ChannelPrior(mean=np.zeros(2, complex), covariance=cov)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_factors_equal_fresh_numpy_results_and_are_read_only(self, k):
        p = random_prior(k, make_rng(40 + k))
        chol = np.linalg.cholesky(p.covariance)
        prec = np.linalg.inv(p.covariance)
        assert p.cholesky.tobytes() == chol.tobytes()
        assert p.log_det == 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
        assert p.log_det == pytest.approx(np.linalg.slogdet(p.covariance)[1], rel=1e-12)
        assert p.precision.tobytes() == (0.5 * (prec + prec.conj().T)).tobytes()
        assert np.array_equal(p.precision, p.precision.conj().T)
        assert p.precision_mean.tobytes() == (p.precision @ p.mean).tobytes()
        for factor in (p.cholesky, p.precision, p.precision_mean):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0] = 1.0

    def test_estimate_and_sampling_never_refactorize_the_prior(self, monkeypatch):
        rng = make_rng(44)
        prior = random_prior(2, rng)
        arr = ArrayConfig(16, 0.5)
        sector = Sector(center=0.0, width=math.radians(120.0))
        calls = []
        for name in ("cholesky", "inv", "solve"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, a is prior.covariance or a is prior.cholesky))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        channel = sample_channel(prior, 10, rng)
        aoas = AoAVector(np.radians([-20.0, 25.0]))
        obs = synthesize_observation(arr, aoas, channel, 0.1, rng)
        result = estimate(obs, prior, sector, sector_grid(sector, math.radians(0.5)))
        assert result.iterations_used > 1 and calls
        assert [name for name, on_prior in calls if on_prior] == []


class TestChannelRealization:
    def test_from_gains_round_trip(self):
        rng = make_rng(2)
        gains = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        ch = ChannelRealization(gains)
        assert np.array_equal(ch.gains, gains)
        assert not ch.gains.flags.writeable
        assert ch.n_snapshots == 4
        with pytest.raises(ValueError):
            ChannelRealization(gains[0])


class TestArrayResponse:
    """Hand-checkable phase patterns for a half-wavelength line array."""

    def test_broadside_is_all_ones(self):
        v = steering_vector(ArrayConfig(4, 0.5), 0.0)
        assert np.array_equal(v, np.ones(4, dtype=complex))

    def test_endfire_two_elements(self):
        v = steering_vector(ArrayConfig(2, 0.5), math.pi / 2)
        assert np.max(np.abs(v - np.array([1.0, -1.0]))) < 1e-12

    def test_thirty_degrees_three_elements(self):
        v = steering_vector(ArrayConfig(3, 0.5), math.pi / 6)
        expected = np.array([1.0, -1.0j, -1.0])
        assert np.max(np.abs(v - expected)) < 1e-12

    def test_first_element_exactly_one(self):
        v = steering_vector(ArrayConfig(16, 1.7), 0.374)
        assert v[0] == 1.0 + 0.0j

    def test_unit_modulus(self):
        rng = make_rng(3)
        for theta in rng.uniform(-math.pi / 2, math.pi / 2, size=20):
            v = steering_vector(ArrayConfig(32, 0.5), theta)
            assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12

    def test_conjugate_symmetry(self):
        arr = ArrayConfig(9, 0.5)
        for theta in (0.1, 0.7, -1.2):
            assert np.max(
                np.abs(steering_vector(arr, -theta) - np.conj(steering_vector(arr, theta)))
            ) < 1e-12


class TestArrayMatrix:
    def test_single_column_broadside(self):
        a = array_matrix(ArrayConfig(2, 0.5), AoAVector(np.array([0.0])))
        assert np.array_equal(a, np.array([[1.0 + 0j], [1.0 + 0j]]))

    def test_two_columns(self):
        a = array_matrix(ArrayConfig(2, 0.5), AoAVector(np.array([0.0, math.pi / 2])))
        expected = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        assert np.max(np.abs(a - expected)) < 1e-12

    def test_columns_match_response(self):
        arr = ArrayConfig(32, 0.5)
        aoas = AoAVector(np.array([-math.pi / 2, math.radians(11.0)]))
        a = array_matrix(arr, aoas)
        for k, theta in enumerate(aoas.angles):
            assert np.array_equal(a[:, k], steering_vector(arr, theta))

    def test_steering_kernel_broadcasts_over_leading_axes(self):
        arr = ArrayConfig(12, 1.5)
        angles = make_rng(45).uniform(-math.pi / 2, math.pi / 2, size=(4, 3))
        batch = _steering(arr, angles)
        assert batch.shape == (4, 12, 3)
        for b in range(4):
            # byte equality pins every bit, signed zeros included
            assert batch[b].tobytes() == array_matrix(arr, AoAVector(angles[b])).tobytes()

    @pytest.mark.parametrize("spacing", [0.5, 2.0])
    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_steering_equals_the_written_out_expression(self, spacing, shape):
        arr = ArrayConfig(9, spacing)
        angles = make_rng(46).uniform(-math.pi / 2, math.pi / 2, size=shape)
        angles.reshape(-1)[:2] = (0.0, -0.0)
        n = np.arange(arr.n_antennas)[:, None]
        phase = -2j * np.pi * spacing * n * np.sin(angles)[..., None, :]
        # byte equality pins every bit, signed zeros included
        assert _steering(arr, angles).tobytes() == np.exp(phase).tobytes()

    def test_cached_phase_column_is_read_only(self):
        column = _phase_column(ArrayConfig(6, 0.5))
        assert column is _phase_column(ArrayConfig(6, 0.5))
        assert column.shape == (6, 1) and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0, 0] = 1.0


class TestSampleChannel:
    def test_rejects_non_pd_cholesky(self):
        with pytest.raises(ValueError):
            ChannelPrior(mean=np.zeros(1, complex), covariance=np.array([[0.0 + 0j]]))

    def test_near_degenerate_prior_collapses_to_mean(self):
        prior = ChannelPrior(
            mean=np.array([0.0 + 0j]), covariance=np.array([[1e-30 + 0j]])
        )
        ch = sample_channel(prior, 100, make_rng(4))
        assert np.max(np.abs(ch.gains)) < 1e-12

    def test_sample_mean(self):
        prior = ChannelPrior(mean=np.array([1.0 + 1.0j]), covariance=np.array([[1.0 + 0j]]))
        ch = sample_channel(prior, 10**5, make_rng(5))
        # 3 sigma / sqrt(n) band for a unit-variance complex scalar
        assert abs(ch.gains.mean() - (1.0 + 1.0j)) < 3.0 / math.sqrt(10**5)

    def test_sample_covariance(self):
        rng = make_rng(6)
        cov = random_pd(2, rng)
        prior = ChannelPrior(mean=np.zeros(2, complex), covariance=cov)
        ch = sample_channel(prior, 10**5, rng)
        emp = ch.gains @ ch.gains.conj().T / ch.n_snapshots
        assert np.linalg.norm(emp - cov) < 0.05 * np.linalg.norm(cov)

    def test_polar_parts_consistent(self):
        rng = make_rng(7)
        prior = ChannelPrior(mean=np.array([0.3 - 0.2j]), covariance=np.array([[0.5 + 0j]]))
        ch = sample_channel(prior, 64, rng)
        beta, psi = np.abs(ch.gains), np.angle(ch.gains)
        assert np.max(np.abs(beta * np.exp(1j * psi) - ch.gains)) < 1e-12


class TestSynthesizeObservation:
    def test_noiseless_single_snapshot_equals_steering(self):
        arr = ArrayConfig(8, 0.5)
        theta = math.radians(23.0)
        ch = ChannelRealization(np.array([[1.0 + 0j]]))
        obs = synthesize_observation(arr, AoAVector(np.array([theta])), ch, 0.0, make_rng(8))
        assert np.max(np.abs(obs.signal[:, 0] - steering_vector(arr, theta))) < 1e-12

    def test_noiseless_factorization(self):
        rng = make_rng(9)
        arr = ArrayConfig(16, 0.5)
        aoas = AoAVector(np.radians([-30.0, 5.0, 44.0]))
        prior = ChannelPrior(mean=np.zeros(3, complex), covariance=np.eye(3, dtype=complex))
        ch = sample_channel(prior, 7, rng)
        obs = synthesize_observation(arr, aoas, ch, 0.0, rng)
        recon = array_matrix(arr, aoas) @ ch.gains
        assert np.linalg.norm(obs.signal - recon) <= 1e-10 * np.linalg.norm(recon)

    def test_empirical_noise_variance(self):
        rng = make_rng(10)
        arr = ArrayConfig(100, 0.5)
        aoas = AoAVector(np.array([0.0]))
        ch = ChannelRealization(np.zeros((1, 1000), dtype=complex))
        obs = synthesize_observation(arr, aoas, ch, 0.7, rng)
        emp = np.mean(np.abs(obs.signal) ** 2)  # 1e5 noise-only entries
        assert abs(emp - 0.7) < 0.05 * 0.7

    def test_negative_variance_rejected(self):
        arr = ArrayConfig(4, 0.5)
        ch = ChannelRealization(np.ones((1, 1), dtype=complex))
        with pytest.raises(ValueError):
            synthesize_observation(arr, AoAVector(np.zeros(1)), ch, -1e-9, make_rng(11))

    def test_dimension_mismatch_rejected(self):
        arr = ArrayConfig(4, 0.5)
        ch = ChannelRealization(np.ones((2, 3), dtype=complex))
        with pytest.raises(ValueError):
            synthesize_observation(arr, AoAVector(np.zeros(1)), ch, 0.0, make_rng(12))


class TestObservationSet:
    def test_row_count_must_match_array(self):
        with pytest.raises(ValueError):
            ObservationSet(
                signal=np.zeros((3, 2), dtype=complex),
                noise_variance=1.0,
                array=ArrayConfig(4, 0.5),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_samples(self, bad):
        y = np.ones((4, 3), dtype=complex)
        y[2, 1] = bad
        with pytest.raises(ValueError):
            ObservationSet(signal=y, noise_variance=1.0, array=ArrayConfig(4, 0.5))

    def test_rejects_bool_noise_variance(self):
        y = np.ones((4, 3), dtype=complex)
        with pytest.raises(ValueError, match="noise_variance"):
            ObservationSet(signal=y, noise_variance=True, array=ArrayConfig(4, 0.5))


class TestSnrToNoiseVariance:
    def _unit_power_prior(self):
        # K=1, zero mean, unit covariance: per-antenna receive power is
        # exactly 1 for any angle (unit-modulus steering entries)
        return ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))

    def test_zero_db_gives_unit_variance(self):
        arr = ArrayConfig(32, 0.5)
        s2 = snr_to_noise_variance(0.0, arr, self._unit_power_prior(), AoAVector(np.array([0.3])))
        assert abs(s2 - 1.0) < 1e-12

    def test_ten_db(self):
        arr = ArrayConfig(8, 0.5)
        s2 = snr_to_noise_variance(10.0, arr, self._unit_power_prior(), AoAVector(np.array([-0.7])))
        assert abs(s2 - 0.1) < 1e-12

    def test_angle_independent_for_unit_prior(self):
        arr = ArrayConfig(16, 2.0)
        prior = self._unit_power_prior()
        values = [
            snr_to_noise_variance(5.0, arr, prior, AoAVector(np.array([t])))
            for t in (-1.2, 0.0, 0.9)
        ]
        assert max(values) - min(values) < 1e-12

    def test_infinite_snr_is_noiseless(self):
        arr = ArrayConfig(8, 0.5)
        s2 = snr_to_noise_variance(math.inf, arr, self._unit_power_prior(), AoAVector(np.zeros(1)))
        assert s2 == 0.0

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -4000.0, 4000.0])
    def test_rejects_snr_without_a_positive_finite_ratio(self, snr_db):
        arr = ArrayConfig(8, 0.5)
        with pytest.raises(ValueError, match="no positive finite linear SNR"):
            snr_to_noise_variance(snr_db, arr, self._unit_power_prior(), AoAVector(np.zeros(1)))

    def test_matches_empirical_signal_power(self):
        rng = make_rng(13)
        arr = ArrayConfig(8, 0.5)
        cov = random_pd(2, rng)
        prior = ChannelPrior(mean=rng.normal(size=2) + 1j * rng.normal(size=2), covariance=cov)
        aoas = AoAVector(np.radians([-20.0, 35.0]))
        ch = sample_channel(prior, 2 * 10**4, rng)
        obs = synthesize_observation(arr, aoas, ch, 0.0, rng)
        per_antenna = np.mean(np.abs(obs.signal) ** 2)
        s2 = snr_to_noise_variance(0.0, arr, prior, aoas)
        assert abs(s2 - per_antenna) < 0.05 * per_antenna


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AoAVector(np.array([])), "at least one angle required"),
        (
            lambda: ChannelPrior(np.zeros(2), np.eye(1)),
            "covariance must be K x K for a K-vector mean",
        ),
        (
            lambda: ObservationSet(np.zeros(4, dtype=complex), 1.0, ArrayConfig(4, 0.5)),
            "signal must be an N x M matrix",
        ),
        (
            lambda: sample_channel(ChannelPrior(np.zeros(1), np.eye(1)), 0, make_rng(0)),
            "n_snapshots must be >= 1",
        ),
    ],
    ids=["empty_aoas", "prior_shape", "signal_1d", "no_snapshots"],
)
def test_input_checks_name_the_rule(build, message):
    with pytest.raises(ValueError, match=message):
        build()
