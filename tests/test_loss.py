import math

import numpy as np
import pytest

from aoavi.landscape import enumerate_global_optima
from aoavi.loss import (
    LossBreakdown,
    VariationalState,
    _reconstruction_sum_raw,
    kl_gaussian,
    total_loss,
)
from aoavi.signal_model import (
    AoAVector,
    ArrayConfig,
    ChannelPrior,
    ChannelRealization,
    ObservationSet,
    array_matrix,
    synthesize_observation,
)

from conftest import (
    make_rng,
    population_reconstruction,
    random_pd,
    random_prior,
    random_problem,
)


def _chol_like(cov):
    """Square-root factor L with L L^H = cov; eigen fallback when singular."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))


class TestVariationalState:
    def test_rejects_non_hermitian_covariance(self):
        cov = np.array([[1.0, 0.2j], [0.3j, 1.0]])
        with pytest.raises(ValueError):
            VariationalState(
                aoa_estimate=AoAVector(np.array([0.1, 0.2])),
                channel_means=np.zeros((2, 1), complex),
                channel_covariance=cov,
            )

    def test_rejects_indefinite_covariance(self):
        cov = np.array([[1.0 + 0j, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError):
            VariationalState(
                aoa_estimate=AoAVector(np.array([0.1, 0.2])),
                channel_means=np.zeros((2, 1), complex),
                channel_covariance=cov,
            )

    def test_shared_covariance_broadcast(self):
        """One K x K covariance serves every snapshot and is stored as is."""
        state = VariationalState(
            aoa_estimate=AoAVector(np.array([0.0])),
            channel_means=np.zeros((1, 4), complex),
            channel_covariance=np.eye(1, dtype=complex),
        )
        assert state.channel_means.shape == (1, 4)
        assert state.channel_covariance.shape == (1, 1)

    def test_rejects_per_snapshot_covariances(self):
        covs = np.stack([np.eye(2, dtype=complex)] * 3)
        with pytest.raises(ValueError):
            VariationalState(
                aoa_estimate=AoAVector(np.array([0.1, 0.2])),
                channel_means=np.zeros((2, 3), complex),
                channel_covariance=covs,
            )


class TestLossBreakdown:
    def test_negative_kl_rejected(self):
        with pytest.raises(ValueError):
            LossBreakdown(kl_term=-1.0, reconstruction_term=2.0)

    def test_negative_reconstruction_rejected(self):
        with pytest.raises(ValueError):
            LossBreakdown(kl_term=1.0, reconstruction_term=-2.0)

    def test_total_is_the_float_sum_of_the_terms(self):
        for kl, recon in ((0.1, 0.2), (np.float64(0.1), np.float64(0.2)), (0.0, 3.5)):
            total = LossBreakdown(kl, recon).total
            assert type(total) is float
            assert total == float(kl) + float(recon)


class TestKlGaussian:
    def test_zero_at_equality(self):
        rng = make_rng(41)
        prior = random_prior(3, rng)
        assert abs(kl_gaussian(prior.mean, prior.covariance, prior)) < 1e-10

    def test_scalar_unit_case(self):
        # unit variances, unit mean offset: only the quadratic term is left
        prior = ChannelPrior(mean=np.array([0.0 + 0j]), covariance=np.array([[1.0 + 0j]]))
        val = kl_gaussian(np.array([1.0 + 0j]), np.array([[1.0 + 0j]]), prior)
        assert abs(val - 1.0) < 1e-12

    def test_non_negative_on_random_instances(self):
        """Non-negative on random instances, and equal to the textbook form
        (inverse and slogdet of the prior) within 1e-12 relative on random
        non-diagonal priors with condition numbers up to 1e3."""
        rng = make_rng(42)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            prior = random_prior(k, rng)
            q_mean = rng.normal(size=k) + 1j * rng.normal(size=k)
            q_cov = random_pd(k, rng, scale=float(rng.uniform(0.1, 3.0)))
            assert kl_gaussian(q_mean, q_cov, prior) >= 0.0
        for cond in (1.0, 1e1, 1e2, 1e3):
            for _ in range(20):
                k = int(rng.integers(1, 4))
                u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
                eigs = np.geomspace(1.0, 1.0 / cond, k) if k > 1 else np.ones(1)
                cov = (u * eigs) @ u.conj().T
                prior = ChannelPrior(
                    mean=rng.normal(size=k) + 1j * rng.normal(size=k),
                    covariance=0.5 * (cov + cov.conj().T),
                )
                q_mean = rng.normal(size=k) + 1j * rng.normal(size=k)
                q_cov = random_pd(k, rng, scale=float(rng.uniform(0.1, 3.0)))
                p_inv = np.linalg.inv(prior.covariance)
                d = q_mean - prior.mean
                textbook = (
                    np.trace(p_inv @ q_cov).real
                    + (d.conj() @ p_inv @ d).real
                    - k
                    + np.linalg.slogdet(prior.covariance)[1]
                    - np.linalg.slogdet(q_cov)[1]
                )
                assert kl_gaussian(q_mean, q_cov, prior) == pytest.approx(textbook, rel=1e-12)

    def test_monte_carlo_oracle_two_users(self):
        """Sampling estimate of E_q[ln q - ln p] agrees within 1%."""
        rng = make_rng(43)
        prior = random_prior(2, rng)
        q_mean = prior.mean + np.array([0.8 - 0.3j, -0.5 + 0.9j])
        q_cov = random_pd(2, rng, scale=0.7)
        analytic = kl_gaussian(q_mean, q_cov, prior)

        n_samples = 10**6
        lq = _chol_like(q_cov)
        eps = (
            rng.normal(size=(2, n_samples)) + 1j * rng.normal(size=(2, n_samples))
        ) * math.sqrt(0.5)
        x = q_mean[:, None] + lq @ eps

        def log_density(mean, cov, pts):
            d = pts - mean[:, None]
            sol = np.linalg.solve(cov, d)
            quad = np.einsum("ks,ks->s", d.conj(), sol).real
            _, logdet = np.linalg.slogdet(cov)
            return -logdet - quad  # -K ln pi cancels in the difference

        sample = log_density(q_mean, q_cov, x) - log_density(prior.mean, prior.covariance, x)
        assert abs(sample.mean() - analytic) < 0.01 * abs(analytic)

    def test_columns_sharing_a_covariance_sum(self):
        rng = make_rng(44)
        prior = random_prior(2, rng)
        q_means = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        q_cov = random_pd(2, rng, scale=0.7)
        per_column = sum(kl_gaussian(q_means[:, m], q_cov, prior) for m in range(5))
        summed = kl_gaussian(q_means, q_cov, prior)
        assert abs(summed - per_column) < 1e-12 * per_column

    def test_singular_q_rejected(self):
        prior = ChannelPrior(mean=np.zeros(2, complex), covariance=np.eye(2, dtype=complex))
        singular = np.array([[1.0 + 0j, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            kl_gaussian(np.zeros(2, complex), singular, prior)


class TestExpectedReconstructionObserved:
    """The normalized reconstruction term of an observed block: total_loss's
    reconstruction_term, or the raw sum over sigma^2 where the covariance is
    singular."""

    def _exact_setup(self, rng, noise_variance=0.5):
        arr = ArrayConfig(8, 0.5)
        aoas = AoAVector(np.radians([-10.0, 25.0]))
        gains = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        ch = ChannelRealization(gains)
        noiseless = synthesize_observation(arr, aoas, ch, 0.0, rng)
        obs = ObservationSet(
            signal=noiseless.signal, noise_variance=noise_variance, array=arr
        )
        return obs, aoas, gains

    def test_zero_at_exact_state(self):
        rng = make_rng(44)
        obs, aoas, gains = self._exact_setup(rng)
        state = VariationalState(
            aoa_estimate=aoas,
            channel_means=gains,
            channel_covariance=np.zeros((2, 2), complex),
        )
        raw = _reconstruction_sum_raw(
            obs.signal, obs.array, aoas.angles, gains, state.channel_covariance
        )
        assert raw / obs.noise_variance < 1e-18

    def test_isotropic_covariance_shift(self):
        rng = make_rng(45)
        obs, aoas, gains = self._exact_setup(rng, noise_variance=0.3)
        base = VariationalState(
            aoa_estimate=aoas,
            channel_means=gains,
            channel_covariance=np.zeros((2, 2), complex),
        )
        c = 0.17
        lifted = VariationalState(
            aoa_estimate=aoas,
            channel_means=gains,
            channel_covariance=c * np.eye(2, dtype=complex),
        )
        n, k, m = 8, 2, 4
        prior = ChannelPrior(mean=np.zeros(2, complex), covariance=np.eye(2, dtype=complex))
        # base is singular, so kl_gaussian rejects it; its term is read raw
        base_term = (
            _reconstruction_sum_raw(
                obs.signal, obs.array, aoas.angles, gains, base.channel_covariance
            )
            / obs.noise_variance
        )
        got = total_loss(obs, lifted, prior).reconstruction_term - base_term
        expected = c * n * k * m / 0.3  # unit-modulus columns: tr(A A^H) = N K
        assert abs(got - expected) < 1e-9 * expected

    def test_matches_reparameterized_monte_carlo(self):
        rng = make_rng(46)
        obs, state, prior, aoas, channel = random_problem(rng, n=12, k=2, m=4)
        analytic = total_loss(obs, state, prior).reconstruction_term

        a_hat = array_matrix(obs.array, state.aoa_estimate)
        s = 10**5
        totals = np.zeros(s)
        l = _chol_like(state.channel_covariance)
        for m in range(state.channel_means.shape[1]):
            eps = (rng.normal(size=(2, s)) + 1j * rng.normal(size=(2, s))) * math.sqrt(0.5)
            draws = state.channel_means[:, m][:, None] + l @ eps
            resid = obs.signal[:, m][:, None] - a_hat @ draws
            totals += np.sum(np.abs(resid) ** 2, axis=0) / obs.noise_variance
        se = totals.std(ddof=1) / math.sqrt(s)
        assert abs(totals.mean() - analytic) < 3 * se
        assert abs(totals.mean() - analytic) < 0.005 * analytic

    def test_noise_scaling(self):
        rng = make_rng(48)
        obs, state, prior, *_ = random_problem(rng, n=8, k=1, m=3, snr_like_noise=0.2)
        doubled = ObservationSet(
            signal=obs.signal, noise_variance=2 * obs.noise_variance, array=obs.array
        )
        term = total_loss(obs, state, prior).reconstruction_term
        assert abs(total_loss(doubled, state, prior).reconstruction_term - term / 2) < 1e-12 * term


class TestPopulationReconstruction:
    def test_noise_floor_at_exact_state(self):
        rng = make_rng(50)
        arr = ArrayConfig(16, 0.5)
        aoas = AoAVector(np.radians([7.0]))
        gains = rng.normal(size=(1, 5)) + 1j * rng.normal(size=(1, 5))
        ch = ChannelRealization(gains)
        state = VariationalState(
            aoa_estimate=aoas,
            channel_means=gains,
            channel_covariance=np.zeros((1, 1), complex),
        )
        s2 = 0.37
        val = population_reconstruction(aoas, ch, state, arr, s2)
        assert abs(val - s2 * 16 * 5) < 1e-9 * (s2 * 16 * 5)

    def test_noiseless_residual_form(self):
        rng = make_rng(51)
        arr = ArrayConfig(8, 0.5)
        aoas = AoAVector(np.radians([-12.0, 31.0]))
        gains = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        ch = ChannelRealization(gains)
        means = gains + 0.2 * (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
        est = AoAVector(aoas.angles + np.array([0.02, -0.01]))
        state = VariationalState(
            aoa_estimate=est,
            channel_means=means,
            channel_covariance=np.zeros((2, 2), complex),
        )
        val = population_reconstruction(aoas, ch, state, arr, 0.0)
        resid = array_matrix(arr, aoas) @ gains - array_matrix(arr, est) @ means
        expected = np.linalg.norm(resid) ** 2
        assert abs(val - expected) < 1e-9 * expected

    def test_alias_equality(self):
        """Wide spacing aliases reproduce the loss value at the truth."""
        arr = ArrayConfig(16, 2.0)
        theta = math.radians(11.0)
        gains = np.ones((1, 3), dtype=complex)
        ch = ChannelRealization(gains)
        aoas = AoAVector(np.array([theta]))
        optima = enumerate_global_optima(arr, theta)
        assert len(optima.alias_angles) == 4
        scale = np.linalg.norm(array_matrix(arr, aoas) @ gains) ** 2
        at_truth = population_reconstruction(
            aoas,
            ch,
            VariationalState(
                aoa_estimate=aoas,
                channel_means=gains,
                channel_covariance=np.zeros((1, 1), complex),
            ),
            arr,
            0.0,
        )
        for alias in optima.alias_angles:
            state = VariationalState(
                aoa_estimate=AoAVector(np.array([alias])),
                channel_means=gains,
                channel_covariance=np.zeros((1, 1), complex),
            )
            val = population_reconstruction(aoas, ch, state, arr, 0.0)
            assert abs(val - at_truth) <= 1e-9 * scale


class TestTotalLoss:
    def test_decomposition(self):
        rng = make_rng(53)
        obs, state, prior, *_ = random_problem(rng)
        b = total_loss(obs, state, prior)
        assert abs(b.total - (b.kl_term + b.reconstruction_term)) <= 1e-10 * max(
            1.0, abs(b.total)
        )
        raw = _reconstruction_sum_raw(
            obs.signal,
            obs.array,
            state.aoa_estimate.angles,
            state.channel_means,
            state.channel_covariance,
        )
        assert abs(b.reconstruction_term - raw / obs.noise_variance) < 1e-9
        per_m = sum(
            kl_gaussian(state.channel_means[:, m], state.channel_covariance, prior)
            for m in range(state.channel_means.shape[1])
        )
        assert abs(b.kl_term - per_m) < 1e-9 * max(1.0, per_m)

    def test_kl_unchanged_by_noise_rescale(self):
        rng = make_rng(55)
        obs, state, prior, *_ = random_problem(rng)
        doubled = ObservationSet(
            signal=obs.signal, noise_variance=2 * obs.noise_variance, array=obs.array
        )
        a = total_loss(obs, state, prior)
        b = total_loss(doubled, state, prior)
        assert abs(a.kl_term - b.kl_term) < 1e-12 * max(1.0, a.kl_term)
        assert abs(b.reconstruction_term - a.reconstruction_term / 2) < 1e-10 * max(
            1.0, a.reconstruction_term
        )


_ONE_USER = AoAVector(np.array([0.1]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: VariationalState(_ONE_USER, np.zeros(3), np.eye(1)), "channel_means must be K x"),
        (
            lambda: VariationalState(_ONE_USER, np.zeros((2, 3)), np.eye(1)),
            "channel_means row count must equal the user count",
        ),
        (
            lambda: kl_gaussian(np.zeros(2), np.eye(2), ChannelPrior(np.zeros(1), np.eye(1))),
            "q dimensions must match the prior",
        ),
    ],
    ids=["means_1d", "means_rows", "kl_shape"],
)
def test_input_checks_name_the_rule(build, message):
    with pytest.raises(ValueError, match=message):
        build()
