import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from aoavi.baselines import ls_channel
from aoavi.estimator import (
    _MAX_FIRST_STEP_RAD,
    _MAX_HALVINGS,
    STOP_REASONS,
    EstimationResult,
    OptimizerConfig,
    _aoa_gradient_raw,
    _backtrack,
    closed_form_channel_update,
    estimate,
)
from aoavi.landscape import enumerate_global_optima, stationary_points
from aoavi.loss import (
    LossBreakdown,
    VariationalState,
    _reconstruction_sum_raw,
    kl_gaussian,
    total_loss,
)
from aoavi.preprocess import AngleGrid, Sector, sector_grid
from aoavi.signal_model import (
    AoAVector,
    ArrayConfig,
    ChannelPrior,
    ChannelRealization,
    ObservationSet,
    array_matrix,
    sample_channel,
    snr_to_noise_variance,
    synthesize_observation,
)

from conftest import make_rng, random_pd, random_prior, random_problem

HALF_SPACE = Sector(center=0.0, width=math.pi)


class TestOptimizerConfig:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_outer_iterations=0)
        OptimizerConfig(max_outer_iterations=1)

    def test_budget_must_be_an_integer(self):
        for budget in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError):
                OptimizerConfig(max_outer_iterations=budget)
        assert OptimizerConfig(max_outer_iterations=np.int64(3)).max_outer_iterations == 3

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            OptimizerConfig(loss_tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(aoa_gradient_tolerance=-1.0)

    def test_float_fields_reject_bools(self):
        for name in ("aoa_gradient_tolerance", "loss_tolerance"):
            with pytest.raises(ValueError, match=name):
                OptimizerConfig(**{name: True})


class TestClosedFormChannelUpdate:
    def test_hand_arithmetic_case(self):
        # broadside pair, all-ones steering: gram = 2, prior precision = 1,
        # y = [2, 2] so mean = (2+1)^-1 * 4 = 4/3 and cov = 1*(2+1)^-1 = 1/3
        arr = ArrayConfig(2, 0.5)
        obs = ObservationSet(
            signal=np.array([[2.0 + 0j], [2.0 + 0j]]),
            noise_variance=1.0,
            array=arr,
        )
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        means, cov = closed_form_channel_update(obs, AoAVector(np.zeros(1)), prior)
        assert abs(means[0, 0] - 4.0 / 3.0) < 1e-12
        assert cov.shape == (1, 1)
        assert abs(cov[0, 0] - 1.0 / 3.0) < 1e-12

    def test_noiseless_limit_recovers_truth(self):
        rng = make_rng(70)
        arr = ArrayConfig(16, 0.5)
        aoas = AoAVector(np.radians([-20.0, 14.0]))
        prior = random_prior(2, rng)
        ch = sample_channel(prior, 6, rng)
        obs = synthesize_observation(arr, aoas, ch, 0.0, rng)
        means, cov = closed_form_channel_update(obs, aoas, prior)
        assert np.max(np.abs(means - ch.gains)) < 1e-8
        assert cov.shape == (2, 2)
        assert np.max(np.abs(cov)) == 0.0

    def test_population_formula_consistency(self):
        """With y = A h the update equals the textbook closed form exactly."""
        rng = make_rng(71)
        arr = ArrayConfig(12, 0.5)
        aoas = AoAVector(np.radians([5.0, 38.0]))
        prior = random_prior(2, rng)
        ch = sample_channel(prior, 4, rng)
        s2 = 0.4
        a = array_matrix(arr, aoas)
        obs = ObservationSet(signal=a @ ch.gains, noise_variance=s2, array=arr)
        means, cov = closed_form_channel_update(obs, aoas, prior)
        prec = np.linalg.inv(prior.covariance)
        lhs = a.conj().T @ a + s2 * prec
        for m in range(4):
            rhs = a.conj().T @ a @ ch.gains[:, m] + s2 * prec @ prior.mean
            direct = np.linalg.solve(lhs, rhs)
            assert np.max(np.abs(means[:, m] - direct)) < 1e-12
        direct_cov = s2 * np.linalg.inv(lhs)
        assert np.max(np.abs(cov - direct_cov)) < 1e-12

    def test_coordinate_optimality_by_finite_differences(self):
        """After the update the loss gradient in the means vanishes."""
        rng = make_rng(73)
        obs, state, prior, *_ = random_problem(rng, n=12, k=2, m=3)
        means, cov = closed_form_channel_update(obs, state.aoa_estimate, prior)
        base_state = VariationalState(
            aoa_estimate=state.aoa_estimate,
            channel_means=means,
            channel_covariance=cov,
        )
        f0 = total_loss(obs, base_state, prior).total
        h = 1e-6
        worst = 0.0
        for k in range(2):
            for m in range(3):
                for direction in (1.0, 1.0j):
                    bumped = means.copy()
                    bumped[k, m] += h * direction
                    up = VariationalState(
                        aoa_estimate=state.aoa_estimate,
                        channel_means=bumped,
                        channel_covariance=cov,
                    )
                    bumped2 = means.copy()
                    bumped2[k, m] -= h * direction
                    down = VariationalState(
                        aoa_estimate=state.aoa_estimate,
                        channel_means=bumped2,
                        channel_covariance=cov,
                    )
                    deriv = (total_loss(obs, up, prior).total - total_loss(obs, down, prior).total) / (2 * h)
                    worst = max(worst, abs(deriv))
        assert worst < 1e-8 * max(1.0, abs(f0))

    def test_update_is_loss_minimizing_locally(self):
        rng = make_rng(74)
        obs, state, prior, *_ = random_problem(rng, n=10, k=2, m=2)
        means, cov = closed_form_channel_update(obs, state.aoa_estimate, prior)
        best = VariationalState(
            aoa_estimate=state.aoa_estimate, channel_means=means, channel_covariance=cov
        )
        f_best = total_loss(obs, best, prior).total
        for _ in range(10):
            noise_m = 1e-3 * (rng.normal(size=means.shape) + 1j * rng.normal(size=means.shape))
            bump = random_pd(2, rng, scale=1e-4)
            perturbed = VariationalState(
                aoa_estimate=state.aoa_estimate,
                channel_means=means + noise_m,
                channel_covariance=cov + bump,
            )
            assert total_loss(obs, perturbed, prior).total >= f_best - 1e-12


def _gradient(obs, state, noise_variance=None):
    """_aoa_gradient_raw at the state, as estimate() calls it unless another
    noise variance is given."""
    return _aoa_gradient_raw(
        obs.signal,
        obs.array,
        state.aoa_estimate.angles,
        state.channel_means,
        state.channel_covariance,
        obs.noise_variance if noise_variance is None else noise_variance,
    )


def _raw_sum(obs, state) -> float:
    """The unnormalized reconstruction sum the line search compares."""
    return _reconstruction_sum_raw(
        obs.signal,
        obs.array,
        state.aoa_estimate.angles,
        state.channel_means,
        state.channel_covariance,
    )


def _recon_at(obs, state, angles, prior) -> float:
    """Reconstruction term of state with its AoAs replaced by angles."""
    moved = dataclasses.replace(state, aoa_estimate=AoAVector(angles))
    return total_loss(obs, moved, prior).reconstruction_term


class TestAoaGradientObserved:
    def test_matches_finite_differences(self):
        rng = make_rng(75)
        for _ in range(10):
            n = int(rng.integers(4, 33))
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 8))
            obs, state, prior, *_ = random_problem(rng, n=n, k=k, m=m)
            grad = _gradient(obs, state)
            h = 1e-6
            for j in range(k):
                up = state.aoa_estimate.angles.copy()
                up[j] += h
                down = state.aoa_estimate.angles.copy()
                down[j] -= h
                fd = (
                    _recon_at(obs, state, up, prior) - _recon_at(obs, state, down, prior)
                ) / (2 * h)
                assert abs(grad[j] - fd) < 1e-5 * max(1.0, abs(fd))

    def test_zero_at_noiseless_optimum(self):
        rng = make_rng(76)
        arr = ArrayConfig(16, 0.5)
        aoas = AoAVector(np.radians([9.0]))
        gains = rng.normal(size=(1, 5)) + 1j * rng.normal(size=(1, 5))
        noiseless = synthesize_observation(
            arr, aoas, ChannelRealization(gains), 0.0, rng
        )
        obs = ObservationSet(signal=noiseless.signal, noise_variance=0.3, array=arr)
        state = VariationalState(
            aoa_estimate=aoas,
            channel_means=gains,
            channel_covariance=np.zeros((1, 1), complex),
        )
        scale = np.sum(np.abs(gains) ** 2) * arr.n_antennas / 0.3
        assert abs(_gradient(obs, state)[0]) < 1e-8 * scale

    def test_normalization_flag_scales_by_variance(self):
        rng = make_rng(77)
        obs, state, *_ = random_problem(rng, n=8, k=2, m=3)
        g1 = _gradient(obs, state)
        g0 = _gradient(obs, state, noise_variance=0.0)
        assert np.max(np.abs(g0 - g1 * obs.noise_variance)) < 1e-9 * np.max(np.abs(g0))


def _descent_step(obs, state, gradient, sector=HALF_SPACE, step0=math.inf):
    """_backtrack from state's angles and channel, as estimate() calls its
    first search; returns (angles, reconstruction sum, step)."""
    return _backtrack(
        obs.signal,
        obs.array,
        state.aoa_estimate.angles,
        state.channel_means,
        state.channel_covariance,
        np.asarray(gradient, dtype=float),
        step0,
        sector.lo,
        sector.hi,
        _raw_sum(obs, state),
    )[:3]


class TestAoaDescentStep:
    def _state_and_obs(self, rng):
        obs, state, prior, *_ = random_problem(rng, n=12, k=1, m=4)
        means, cov = closed_form_channel_update(obs, state.aoa_estimate, prior)
        state = VariationalState(
            aoa_estimate=state.aoa_estimate, channel_means=means, channel_covariance=cov
        )
        return obs, state, prior

    def test_descent_reduces_loss(self):
        rng = make_rng(79)
        obs, state, prior = self._state_and_obs(rng)
        grad = _gradient(obs, state)
        assert abs(grad[0]) > 0
        angles, recon, step = _descent_step(obs, state, grad)
        assert step > 0.0
        assert not np.array_equal(angles, state.aoa_estimate.angles)
        before = total_loss(obs, state, prior).reconstruction_term
        after = _recon_at(obs, state, angles, prior)
        assert after <= before

    def test_channel_untouched(self):
        """The returned sum scores the new angles at the given channel."""
        rng = make_rng(80)
        obs, state, prior = self._state_and_obs(rng)
        grad = _gradient(obs, state)
        angles, recon, _ = _descent_step(obs, state, grad)
        moved = dataclasses.replace(state, aoa_estimate=AoAVector(angles))
        assert recon == _raw_sum(obs, moved)

    def test_clamps_exactly_to_sector_edge(self):
        rng = make_rng(81)
        arr = ArrayConfig(16, 0.5)
        truth = AoAVector(np.radians([12.0]))
        gains = np.ones((1, 8), dtype=complex)
        obs_clean = synthesize_observation(
            arr, truth, ChannelRealization(gains), 0.0, rng
        )
        obs = ObservationSet(signal=obs_clean.signal, noise_variance=0.1, array=arr)
        # truth just outside the sector, start inside its main lobe
        sector = Sector(center=0.0, width=math.radians(20.0))
        start = AoAVector(np.array([math.radians(9.5)]))
        means, cov = closed_form_channel_update(obs, start, random_prior(1, make_rng(0)))
        state = VariationalState(
            aoa_estimate=start, channel_means=means, channel_covariance=cov
        )
        grad = _gradient(obs, state)
        assert grad[0] < 0  # pull toward larger angles, out of the sector
        angles, _, step = _descent_step(obs, state, grad, sector, step0=10.0)
        assert step > 0.0
        assert angles[0] == sector.hi

    def test_underflow_returns_unchanged_with_flag(self):
        rng = make_rng(82)
        arr = ArrayConfig(8, 0.5)
        aoas = AoAVector(np.radians([3.0]))
        gains = np.ones((1, 4), dtype=complex)
        clean = synthesize_observation(arr, aoas, ChannelRealization(gains), 0.0, rng)
        obs = ObservationSet(signal=clean.signal, noise_variance=0.2, array=arr)
        state = VariationalState(
            aoa_estimate=aoas,
            channel_means=gains,
            channel_covariance=np.zeros((1, 1), complex),
        )
        # exact optimum: any move along a fake gradient raises the loss
        angles, recon, step = _descent_step(obs, state, np.array([1.0]))
        assert step == 0.0
        assert np.array_equal(angles, aoas.angles)
        assert recon == _raw_sum(obs, state)


class TestEstimationResult:
    def test_trace_must_be_non_increasing(self):
        state = VariationalState(
            aoa_estimate=AoAVector(np.zeros(1)),
            channel_means=np.zeros((1, 1), complex),
            channel_covariance=np.zeros((1, 1), complex),
        )
        rising = (
            LossBreakdown(0.0, 1.0),
            LossBreakdown(0.0, 2.0),
        )
        with pytest.raises(ValueError):
            EstimationResult(
                state=state,
                loss_trace=rising,
                stop_reason="gradient",
                line_search_evaluations=1,
            )

    def test_converged_follows_stop_reason(self):
        state = VariationalState(
            aoa_estimate=AoAVector(np.zeros(1)),
            channel_means=np.zeros((1, 1), complex),
            channel_covariance=np.zeros((1, 1), complex),
        )

        def result(reason):
            return EstimationResult(
                state=state,
                loss_trace=(LossBreakdown(0.0, 1.0),),
                stop_reason=reason,
                line_search_evaluations=0,
            )

        assert [result(r).converged for r in STOP_REASONS] == [True, True, False, False]
        with pytest.raises(ValueError):
            result("converged")

    def test_derived_fields_follow_trace_and_state(self):
        means = np.array([[1.0 - 1.0j, -2.0 + 0.0j, 0.5j], [0.0j, -1.0 - 1.0j, 3.0 + 4.0j]])
        state = VariationalState(
            aoa_estimate=AoAVector(np.array([-0.2, 0.3])),
            channel_means=means,
            channel_covariance=np.zeros((2, 2), complex),
        )
        trace = (LossBreakdown(0.0, 2.0), LossBreakdown(0.0, 1.0))
        result = EstimationResult(
            state=state, loss_trace=trace, stop_reason="budget", line_search_evaluations=3
        )
        assert result.iterations_used == len(trace) == 2


class TestEstimate:
    def _scenario(self, rng, snr_db, theta_deg=11.0, m=40, n=32):
        arr = ArrayConfig(n, 0.5)
        aoas = AoAVector(np.radians([theta_deg]))
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        ch = sample_channel(prior, m, rng)
        s2 = snr_to_noise_variance(snr_db, arr, prior, aoas)
        obs = synthesize_observation(arr, aoas, ch, s2, rng)
        return obs, prior, aoas

    def test_refines_below_grid_resolution(self):
        rng = make_rng(83)
        obs, prior, aoas = self._scenario(rng, snr_db=30.0, theta_deg=10.3)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        grid = sector_grid(sector, math.radians(0.5))  # deliberately coarse
        result = estimate(obs, prior, sector, grid)
        err = abs(result.state.aoa_estimate.angles[0] - aoas.angles[0])
        assert err < math.radians(0.05)
        assert result.converged

    def test_high_snr_monte_carlo(self):
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        grid = sector_grid(sector, math.radians(0.1))
        errors = []
        for seed in range(20):
            rng = make_rng(1000 + seed)
            theta = math.degrees(rng.uniform(-math.pi / 3 * 0.9, math.pi / 3 * 0.9))
            obs, prior, aoas = self._scenario(rng, snr_db=20.0, theta_deg=theta)
            result = estimate(obs, prior, sector, grid)
            errors.append(abs(result.state.aoa_estimate.angles[0] - aoas.angles[0]))
            totals = [b.total for b in result.loss_trace]
            assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))
        assert np.median(errors) < math.radians(0.1)

    def test_loss_trace_present_and_finite(self):
        rng = make_rng(84)
        obs, prior, aoas = self._scenario(rng, snr_db=10.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        result = estimate(obs, prior, sector, sector_grid(sector, math.radians(0.1)))
        assert all(math.isfinite(b.total) for b in result.loss_trace)
        assert result.state.channel_means.shape == (1, 40)

    def test_budget_of_one_keeps_start(self):
        """The trace opens with one entry at the start; a budget of one
        stops there."""
        rng = make_rng(85)
        obs, prior, aoas = self._scenario(rng, snr_db=15.0, m=10, n=16)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        grid = sector_grid(sector, math.radians(0.5))
        short = estimate(obs, prior, sector, grid, OptimizerConfig(max_outer_iterations=1))
        full = estimate(obs, prior, sector, grid)
        assert short.iterations_used == len(short.loss_trace) == 1
        assert not short.converged
        assert short.loss_trace[0] == full.loss_trace[0]
        assert len(full.loss_trace) > 1

    @pytest.mark.parametrize(
        "truth_deg, start_deg",
        [
            ([11.0], [11.4]),
            ([-20.0, 25.0], [-19.5, 24.6]),
            ([-35.0, 5.0, 40.0], [-34.6, 5.4, 39.5]),
        ],
    )
    def test_final_trace_entry_matches_total_loss(self, truth_deg, start_deg):
        """The estimator's trace and the reference evaluator agree exactly:
        both sum the KL in one call over the shared covariance."""
        rng = make_rng(91)
        arr = ArrayConfig(16, 0.5)
        aoas = AoAVector(np.radians(truth_deg))
        prior = random_prior(len(truth_deg), rng)
        ch = sample_channel(prior, 12, rng)
        s2 = snr_to_noise_variance(10.0, arr, prior, aoas)
        obs = synthesize_observation(arr, aoas, ch, s2, rng)
        result = estimate(obs, prior, HALF_SPACE, initial_aoas=np.radians(start_deg))
        last = result.loss_trace[-1]
        ref = total_loss(obs, result.state, prior)
        assert ref.kl_term > 0
        assert last == ref

    def test_noiseless_final_trace_entry_matches_total_loss(self):
        """At zero noise variance total_loss scores like the trace: the KL
        term is reported as 0 and the loss is the raw reconstruction sum."""
        rng = make_rng(93)
        arr = ArrayConfig(16, 0.5)
        aoas = AoAVector(np.radians([-20.0, 25.0]))
        prior = random_prior(2, rng)
        ch = sample_channel(prior, 12, rng)
        obs = synthesize_observation(arr, aoas, ch, 0.0, rng)
        result = estimate(obs, prior, HALF_SPACE, initial_aoas=np.radians([-19.5, 24.6]))
        ref = total_loss(obs, result.state, prior)
        assert ref.kl_term == 0.0
        assert ref == result.loss_trace[-1]
        assert ref.total == _reconstruction_sum_raw(
            obs.signal, arr, result.state.aoa_estimate.angles,
            result.state.channel_means, result.state.channel_covariance,
        )

    def test_stalled_line_search_is_not_converged(self, monkeypatch):
        """With the gradient negated every line-search trial ascends; the
        stall must stop the descent unconverged, without repeating the
        last trace entry."""
        monkeypatch.setattr(
            "aoavi.estimator._aoa_gradient_raw", lambda *args: -_aoa_gradient_raw(*args)
        )
        rng = make_rng(92)
        obs, prior, aoas = self._scenario(rng, snr_db=10.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        result = estimate(obs, prior, sector, initial_aoas=[aoas.angles[0] + 0.01])
        totals = [b.total for b in result.loss_trace]
        assert result.converged is False
        assert result.stop_reason == "line_search_stall"
        assert result.iterations_used == len(result.loss_trace) == 1
        assert result.line_search_evaluations == _MAX_HALVINGS + 1
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_non_finite_gradient_stalls_without_scoring_a_trial(self, monkeypatch):
        """An inf gradient cannot give a finite trial step: the search
        reports a stall at once and no NaN trial angle is scored."""
        scored = []

        def recording_recon(signal, array, angles, *rest):
            scored.append(np.array(angles))
            return _reconstruction_sum_raw(signal, array, angles, *rest)

        monkeypatch.setattr("aoavi.estimator._reconstruction_sum_raw", recording_recon)
        monkeypatch.setattr(
            "aoavi.estimator._aoa_gradient_raw",
            lambda *args: np.full_like(_aoa_gradient_raw(*args), math.inf),
        )
        rng = make_rng(92)
        obs, prior, aoas = self._scenario(rng, snr_db=10.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        result = estimate(obs, prior, sector, initial_aoas=[aoas.angles[0] + 0.01])
        assert result.stop_reason == "line_search_stall"
        assert result.iterations_used == 1 and result.line_search_evaluations == 0
        assert len(scored) == 1 and np.all(np.isfinite(scored[0]))
        assert np.all(np.isfinite(result.state.aoa_estimate.angles))

    def test_budget_hit_is_not_converged(self):
        """A budget smaller than the descent needs stops at the budget,
        unconverged, with a trace of exactly that length."""
        rng = make_rng(92)
        obs, prior, aoas = self._scenario(rng, snr_db=10.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        start = [aoas.angles[0] + 0.01]
        full = estimate(obs, prior, sector, initial_aoas=start)
        assert full.converged and full.iterations_used > 3
        short = estimate(
            obs, prior, sector, cfg=OptimizerConfig(max_outer_iterations=3), initial_aoas=start
        )
        assert short.stop_reason == "budget"
        assert short.converged is False
        assert short.iterations_used == len(short.loss_trace) == 3
        assert short.loss_trace == full.loss_trace[:3]

    def test_stop_reasons_of_converged_runs(self):
        rng = make_rng(93)
        obs, prior, aoas = self._scenario(rng, snr_db=10.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        start = [aoas.angles[0] + 0.01]
        plateau = estimate(obs, prior, sector, initial_aoas=start)
        assert plateau.stop_reason == "loss_plateau" and plateau.converged
        flat = estimate(
            obs,
            prior,
            sector,
            cfg=OptimizerConfig(aoa_gradient_tolerance=1e12),
            initial_aoas=start,
        )
        assert flat.stop_reason == "gradient" and flat.converged
        assert flat.iterations_used == 1 and flat.line_search_evaluations == 0

    def test_noiseless_input_runs_unnormalized(self):
        rng = make_rng(86)
        arr = ArrayConfig(16, 0.5)
        aoas = AoAVector(np.radians([4.0]))
        gains = (rng.normal(size=(1, 8)) + 1j * rng.normal(size=(1, 8)))
        obs = synthesize_observation(
            arr, aoas, ChannelRealization(gains), 0.0, rng
        )
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        result = estimate(obs, prior, sector, sector_grid(sector, math.radians(0.25)))
        assert all(b.kl_term == 0.0 for b in result.loss_trace)
        err = abs(result.state.aoa_estimate.angles[0] - aoas.angles[0])
        assert err < math.radians(0.01)

    def test_initial_aoas_disable_pseudo_labels(self):
        rng = make_rng(87)
        obs, prior, aoas = self._scenario(rng, snr_db=20.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        result = estimate(obs, prior, sector, initial_aoas=[aoas.angles[0] + 0.01])
        err = abs(result.state.aoa_estimate.angles[0] - aoas.angles[0])
        assert err < math.radians(0.1)

    def test_initial_aoas_validated(self):
        rng = make_rng(88)
        obs, prior, aoas = self._scenario(rng, snr_db=20.0)
        sector = HALF_SPACE
        with pytest.raises(ValueError):
            estimate(obs, prior, sector, initial_aoas=[0.1, 0.2])

    def test_grid_required_without_initial_aoas(self):
        rng = make_rng(89)
        obs, prior, aoas = self._scenario(rng, snr_db=20.0)
        with pytest.raises(ValueError):
            estimate(obs, prior, HALF_SPACE)

    def test_stationary_point_trap(self):
        """Adversarial start at an interior stationary point converges to a
        wrong angle, which is what pseudo-label initialization prevents."""
        rng = make_rng(90)
        theta = math.radians(11.0)
        arr = ArrayConfig(32, 0.5)
        search = AngleGrid(-math.pi / 2, math.pi / 2, math.radians(0.01))
        points = stationary_points(arr, theta, search)
        interior = [
            a
            for a in points.angles
            if abs(a) < math.radians(85.0) and abs(a - theta) > math.radians(15.0)
        ]
        start = min(interior, key=lambda a: abs(a + math.radians(40.0)))
        obs, prior, aoas = self._scenario(rng, snr_db=25.0)
        sector = HALF_SPACE
        result = estimate(obs, prior, sector, initial_aoas=[start])
        err = abs(result.state.aoa_estimate.angles[0] - theta)
        assert result.converged
        assert err > math.radians(1.0)

    def test_wide_spacing_lands_on_alias_set(self):
        """Full-range search with wide spacing may pick any alias, but the
        reached optimum always belongs to the enumerated set."""
        theta = math.radians(11.0)
        arr = ArrayConfig(32, 2.0)
        optima = enumerate_global_optima(arr, theta)
        sector = HALF_SPACE
        grid = sector_grid(sector, math.radians(0.05))
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        hits = []
        for seed in range(12):
            rng = make_rng(3000 + seed)
            ch = sample_channel(prior, 40, rng)
            s2 = snr_to_noise_variance(20.0, arr, prior, AoAVector(np.array([theta])))
            obs = synthesize_observation(arr, AoAVector(np.array([theta])), ch, s2, rng)
            result = estimate(obs, prior, sector, grid)
            got = result.state.aoa_estimate.angles[0]
            dist = min(abs(got - a) for a in optima.alias_angles)
            assert dist < math.radians(0.05)
            hits.append(got)
        assert len(hits) == 12


class TestLinalgCallBudget:
    """Each matrix is factorized once: the channel update solves its K x K
    system once per trace entry, the KL term reads the prior's stored
    precision, and the LS baseline reads the condition number off the
    singular values of its own lstsq."""

    def test_one_solve_per_trace_entry_and_none_in_kl_or_ls(self, monkeypatch):
        rng = make_rng(131)
        arr = ArrayConfig(16, 0.5)
        prior = random_prior(2, rng)
        aoas = AoAVector(np.radians([-20.0, 25.0]))
        obs = synthesize_observation(arr, aoas, sample_channel(prior, 10, rng), 0.1, rng)
        sector = Sector(center=0.0, width=math.radians(120.0))
        grid = sector_grid(sector, math.radians(0.5))
        counts = {}
        for name in ("solve", "inv", "cond", "svd"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        result = estimate(obs, prior, sector, grid)
        assert result.iterations_used > 1
        assert counts == {"solve": result.iterations_used}
        counts.clear()
        state = result.state
        kl_gaussian(state.channel_means, state.channel_covariance, prior)
        ls_channel(obs, state.aoa_estimate)
        assert counts == {}


class TestLineSearchStart:
    """Where each outer iteration's line search starts, read from the trial
    angles estimate() scores."""

    def _block(self, snr_db=20.0):
        """One seeded block: K = 1 at 17 deg, N = 32, d/lambda = 0.5."""
        rng = make_rng(94)
        arr = ArrayConfig(32, 0.5)
        aoas = AoAVector(np.radians([17.0]))
        prior = ChannelPrior(mean=np.zeros(1, complex), covariance=np.eye(1, dtype=complex))
        ch = sample_channel(prior, 40, rng)
        s2 = snr_to_noise_variance(snr_db, arr, prior, aoas)
        obs = synthesize_observation(arr, aoas, ch, s2, rng)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        return obs, prior, sector, sector_grid(sector, math.radians(0.5))

    @staticmethod
    def _record(monkeypatch):
        """Wrap the gradient and the reconstruction sum; returns the list of
        ("grad", angles, gradient) and ("recon", angles) events in call
        order."""
        events = []

        def recording_recon(signal, array, angles, *rest):
            events.append(("recon", np.array(angles)))
            return _reconstruction_sum_raw(signal, array, angles, *rest)

        def recording_grad(signal, array, angles, *rest):
            g = _aoa_gradient_raw(signal, array, angles, *rest)
            events.append(("grad", np.array(angles), g))
            return g

        monkeypatch.setattr("aoavi.estimator._reconstruction_sum_raw", recording_recon)
        monkeypatch.setattr("aoavi.estimator._aoa_gradient_raw", recording_grad)
        return events

    @staticmethod
    def _first_trials(events):
        """(angles, gradient, first trial) of every line search."""
        return [(e[1], e[2], f[1]) for e, f in zip(events, events[1:]) if e[0] == "grad"]

    def test_trials_per_descent_step_average_at_most_four(self):
        obs, prior, sector, grid = self._block()
        result = estimate(obs, prior, sector, grid)
        assert result.converged
        searches = result.iterations_used - 1
        assert searches > 0
        assert result.line_search_evaluations / searches <= 4.0

    def test_first_trial_is_capped(self, monkeypatch):
        """Each search's first trial moves AoA k by at most
        0.5 deg * |g_k| / max|g|; the first search starts at that cap."""
        obs, prior, sector, grid = self._block()
        events = self._record(monkeypatch)
        result = estimate(obs, prior, sector, grid)
        starts = self._first_trials(events)
        assert len(starts) == result.iterations_used - 1
        recon_calls = sum(e[0] == "recon" for e in events)
        assert result.line_search_evaluations == recon_calls - result.iterations_used
        warm = 0
        for i, (angles, g, trial) in enumerate(starts):
            moved = np.abs(trial - angles)
            cap = _MAX_FIRST_STEP_RAD * np.abs(g) / np.max(np.abs(g))
            # the displacement is read back from rounded angles
            slack = 4 * np.spacing(np.abs(angles))
            assert np.all(moved <= cap + slack)
            if i == 0:
                assert np.all(moved >= cap - slack)
            warm += bool(np.all(moved < 0.999 * cap))
        assert warm > 0  # later searches start below the cap

    def test_warm_start_beyond_the_float_range_starts_at_the_cap(self, monkeypatch):
        """When the warm-start step itself passes the float range (the
        gradient max-norm fell from 1e300 to 1e-6), the search gets inf and
        starts at the cap instead of raising."""
        obs, prior, sector, _ = self._block()
        truth = math.radians(17.0)
        gradients = iter([np.array([1e300]), np.array([1e-6]), np.array([0.0])])
        monkeypatch.setattr("aoavi.estimator._aoa_gradient_raw", lambda *args: next(gradients))
        step0s = []

        def recording_backtrack(signal, array, angles, means, cov, gradient, step0, *rest):
            step0s.append(step0)
            return _backtrack(signal, array, angles, means, cov, gradient, step0, *rest)

        monkeypatch.setattr("aoavi.estimator._backtrack", recording_backtrack)
        result = estimate(obs, prior, sector, initial_aoas=[truth + 0.01])
        assert step0s == [math.inf, math.inf]
        assert result.stop_reason == "gradient"

    def test_overflowing_gradient_norm_keeps_the_warm_start(self, monkeypatch):
        """At 3000 dB the squared gradient norm overflows a float. The warm
        start's ratio of squared norms is formed from power-of-two scaled
        norms, so each search after the first still starts from the last
        accepted step times that ratio, with no overflow warning."""
        obs, prior, sector, _ = self._block(snr_db=3000.0)
        truth = math.radians(17.0)
        events = self._record(monkeypatch)
        searches = []  # (gradient, step0, accepted step) per line search

        def recording_backtrack(signal, array, angles, means, cov, gradient, step0, *rest):
            found = _backtrack(signal, array, angles, means, cov, gradient, step0, *rest)
            searches.append((gradient, step0, found.step))
            return found

        monkeypatch.setattr("aoavi.estimator._backtrack", recording_backtrack)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = estimate(obs, prior, sector, initial_aoas=[truth + 0.01])
        starts = self._first_trials(events)
        assert len(starts) == len(searches) > 2

        def exact_sq(v):  # |v|^2 as a rational, so the expected ratio cannot overflow
            return sum(Fraction(float(x)) ** 2 for x in v)

        for i, ((angles, g, trial), (_, step0, _)) in enumerate(zip(starts, searches)):
            assert np.max(np.abs(g)) > 1.4e154  # so |g|^2 overflows
            cap = _MAX_FIRST_STEP_RAD / np.max(np.abs(g))
            if i == 0:
                assert step0 == math.inf
                step = cap
            else:
                prev_g, _, prev_step = searches[i - 1]
                ratio = Fraction(prev_step) * exact_sq(prev_g) / exact_sq(g)
                assert step0 == pytest.approx(float(ratio), rel=1e-12)
                assert step0 < cap
                step = step0
            assert np.array_equal(trial, np.clip(angles - step * g, sector.lo, sector.hi))
        assert result.converged
        assert result.line_search_evaluations < 200
        assert abs(result.state.aoa_estimate.angles[0] - truth) < 1e-9
