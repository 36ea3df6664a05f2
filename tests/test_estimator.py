import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from aoavi.baselines import ls_channel
from aoavi.estimator import (
    _LOSS_RTOL,
    _MAX_FIRST_STEP_RAD,
    _MAX_HALVINGS,
    STOP_REASONS,
    EstimationResult,
    OptimizerConfig,
    closed_form_channel_update,
    estimate,
)
from aoavi.harness import _estimate, _trial_block, scenario_from_dict
from aoavi.landscape import enumerate_global_optima, stationary_points
from aoavi.loss import (
    LossBreakdown,
    VariationalState,
    _reconstruction_sum_raw,
    _state_loss,
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


def _gradient(obs, state, prior, noise_variance=None):
    """The AoA gradient _state_loss gives at the state, as estimate()
    receives it unless another noise variance is given."""
    if noise_variance is not None:
        obs = dataclasses.replace(obs, noise_variance=noise_variance)
    angles, means, cov = state.aoa_estimate.angles, state.channel_means, state.channel_covariance
    return _state_loss(obs, prior, angles, means, cov)[2]


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
            grad = _gradient(obs, state, prior)
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
        # the KL term is infinite at zero covariance, so the raw gradient
        # (zero noise variance, which skips it) is normalized here
        assert abs(_gradient(obs, state, None, noise_variance=0.0)[0] / 0.3) < 1e-8 * scale

    def test_normalization_flag_scales_by_variance(self):
        rng = make_rng(77)
        obs, state, prior, *_ = random_problem(rng, n=8, k=2, m=3)
        g1 = _gradient(obs, state, prior)
        g0 = _gradient(obs, state, prior, noise_variance=0.0)
        assert np.max(np.abs(g0 - g1 * obs.noise_variance)) < 1e-9 * np.max(np.abs(g0))


def _record(monkeypatch, replace=lambda g: g):
    """Wrap the state evaluator and the trial sum estimate() calls, with
    each state's gradient replaced by replace(gradient); returns the list
    of ("recon", angles, sum) and ("grad", angles, gradient) events in call
    order, a state's sum then the gradient estimate() receives."""
    events = []

    def recording_state(obs, prior, angles, *rest):
        entry, raw, g = _state_loss(obs, prior, angles, *rest)
        g = replace(g)
        events.append(("recon", np.array(angles), raw))
        events.append(("grad", np.array(angles), g))
        return entry, raw, g

    def recording_recon(signal, array, angles, *rest):
        value = _reconstruction_sum_raw(signal, array, angles, *rest)
        events.append(("recon", np.array(angles), value))
        return value

    monkeypatch.setattr("aoavi.estimator._state_loss", recording_state)
    monkeypatch.setattr("aoavi.estimator._reconstruction_sum_raw", recording_recon)
    return events


def _fake_gradients(monkeypatch, values):
    """_record, with the states' gradients replaced by the given K = 1
    values in turn; returns the events."""
    gradients = iter(values)
    return _record(monkeypatch, lambda g: np.array([next(gradients)]))


def _searches(events):
    """The line searches in _record's events: (angles, gradient, trials)
    each, trials the scored (angles, sum) pairs in order. The sum after a
    search's trials is the next state's, unless the search stalled."""
    grads = [i for i, e in enumerate(events) if e[0] == "grad"]
    ends = [i - 1 for i in grads[1:]] + [len(events)]
    return [
        (events[i][1], events[i][2], [e[1:] for e in events[i + 1 : end]])
        for i, end in zip(grads, ends)
        if end > i + 1
    ]


def _exact_bb2(angles, prev_angles, g, prev_g):
    """s @ y / y @ y for s = angles - prev_angles and y = g - prev_g, in
    rational arithmetic, so nothing rounds or overflows (0 when y = 0)."""
    s = [Fraction(a) - Fraction(b) for a, b in zip(angles, prev_angles)]
    y = [Fraction(a) - Fraction(b) for a, b in zip(g, prev_g)]
    yy = sum(v * v for v in y)
    return sum(a * b for a, b in zip(s, y)) / yy if yy else Fraction(0)


class TestAoaDescentStep:
    """One projected line search, observed through the sums estimate()
    scores: a budget of two trace entries allows exactly one."""

    ONE_SEARCH = OptimizerConfig(max_outer_iterations=2)

    def _one_search(self, monkeypatch, obs, prior, sector, start):
        events = _record(monkeypatch)
        result = estimate(obs, prior, sector, cfg=self.ONE_SEARCH, initial_aoas=start)
        ((angles, _g, trials),) = _searches(events)
        base = events[0][2]
        return result, angles, base, trials

    def test_descent_reduces_loss(self, monkeypatch):
        rng = make_rng(79)
        obs, state, prior, *_ = random_problem(rng, n=12, k=1, m=4)
        start = state.aoa_estimate.angles
        result, angles, base, trials = self._one_search(monkeypatch, obs, prior, HALF_SPACE, start)
        assert result.stop_reason == "budget"
        accepted, recon = trials[-1]
        assert not np.array_equal(accepted, angles)
        assert recon <= base
        assert np.array_equal(result.state.aoa_estimate.angles, accepted)

    def test_channel_untouched(self, monkeypatch):
        """Every trial is scored at the channel of the search's start."""
        rng = make_rng(80)
        obs, state, prior, *_ = random_problem(rng, n=12, k=1, m=4)
        start = state.aoa_estimate.angles
        _, angles, _, trials = self._one_search(monkeypatch, obs, prior, HALF_SPACE, start)
        means, cov = closed_form_channel_update(obs, AoAVector(angles), prior)
        for trial, recon in trials:
            assert recon == _reconstruction_sum_raw(obs.signal, obs.array, trial, means, cov)

    def test_clamps_exactly_to_sector_edge(self, monkeypatch):
        rng = make_rng(81)
        arr = ArrayConfig(16, 0.5)
        truth = AoAVector(np.radians([12.0]))
        gains = np.ones((1, 8), dtype=complex)
        obs_clean = synthesize_observation(
            arr, truth, ChannelRealization(gains), 0.0, rng
        )
        obs = ObservationSet(signal=obs_clean.signal, noise_variance=0.1, array=arr)
        # truth just outside the sector, start inside its main lobe and
        # within the first trial's 0.5 deg of the edge
        sector = Sector(center=0.0, width=math.radians(20.0))
        prior = random_prior(1, make_rng(0))
        events = _record(monkeypatch)
        result = estimate(
            obs, prior, sector, cfg=self.ONE_SEARCH, initial_aoas=[math.radians(9.5)]
        )
        assert events[1][2][0] < 0  # pull toward larger angles, out of the sector
        assert result.stop_reason == "budget"
        assert result.state.aoa_estimate.angles[0] == sector.hi

    def test_rejected_trials_stall_with_angles_unchanged(self, monkeypatch):
        rng = make_rng(82)
        arr = ArrayConfig(8, 0.5)
        aoas = AoAVector(np.radians([3.0]))
        gains = np.ones((1, 4), dtype=complex)
        clean = synthesize_observation(arr, aoas, ChannelRealization(gains), 0.0, rng)
        prior = random_prior(1, rng)
        # the noiseless optimum: any move along a fake gradient raises the sum
        events = _fake_gradients(monkeypatch, [1.0])
        result = estimate(clean, prior, HALF_SPACE, initial_aoas=aoas.angles)
        assert result.stop_reason == "line_search_stall"
        assert result.iterations_used == 1
        assert result.line_search_evaluations == _MAX_HALVINGS + 1
        ((_, _, trials),) = _searches(events)
        assert len(trials) == _MAX_HALVINGS + 1
        for i, (trial, recon) in enumerate(trials):
            assert trial[0] == aoas.angles[0] - _MAX_FIRST_STEP_RAD * 0.5**i
            assert recon > events[0][2]
        assert np.array_equal(result.state.aoa_estimate.angles, aoas.angles)


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
        with pytest.raises(AssertionError):
            EstimationResult(
                state=state,
                loss_trace=rising,
                stop_reason="gradient",
                line_search_evaluations=1,
            )

    def test_trace_rising_by_round_off_rejected(self):
        state = VariationalState(
            aoa_estimate=AoAVector(np.zeros(1)),
            channel_means=np.zeros((1, 1), complex),
            channel_covariance=np.zeros((1, 1), complex),
        )
        # estimate() appends no state that raises the loss, so no rise is
        # round-off to forgive
        rising = (LossBreakdown(0.0, 1.0), LossBreakdown(0.0, 1.0 + 1e-12))
        with pytest.raises(AssertionError, match="non-increasing"):
            EstimationResult(
                state=state, loss_trace=rising, stop_reason="gradient", line_search_evaluations=1
            )
        flat = (LossBreakdown(0.0, 1.0), LossBreakdown(0.0, 1.0))
        assert EstimationResult(
            state=state, loss_trace=flat, stop_reason="gradient", line_search_evaluations=1
        ).iterations_used == 2

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
        with pytest.raises(AssertionError):
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
        _record(monkeypatch, lambda g: -g)
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
        events = _record(monkeypatch, lambda g: np.full_like(g, math.inf))
        rng = make_rng(92)
        obs, prior, aoas = self._scenario(rng, snr_db=10.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        result = estimate(obs, prior, sector, initial_aoas=[aoas.angles[0] + 0.01])
        assert result.stop_reason == "line_search_stall"
        assert result.iterations_used == 1 and result.line_search_evaluations == 0
        scored = [angles for kind, angles, _ in events if kind == "recon"]
        assert len(scored) == 1 and np.all(np.isfinite(scored[0]))
        assert np.all(np.isfinite(result.state.aoa_estimate.angles))

    def test_rising_state_is_not_appended(self, monkeypatch):
        """A state whose loss is a few ulps above the last entry's, as
        round-off can make it, ends the run as loss_plateau at the last
        entry's state: the trace stays exactly non-increasing and its last
        entry equals total_loss at the returned state."""
        states = []

        def rising_third(obs, prior, angles, means, cov):
            entry, raw, g = _state_loss(obs, prior, angles, means, cov)
            states.append((np.array(angles), means, cov, entry.total))
            if len(states) == 3:
                previous = states[1][3]
                rise = previous - entry.total + 4 * np.spacing(previous)
                entry = LossBreakdown(entry.kl_term, entry.reconstruction_term + rise)
                assert entry.total > previous
            return entry, raw, g

        monkeypatch.setattr("aoavi.estimator._state_loss", rising_third)
        rng = make_rng(92)
        obs, prior, aoas = self._scenario(rng, snr_db=10.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        result = estimate(obs, prior, sector, initial_aoas=[aoas.angles[0] + 0.01])
        assert len(states) == 3
        assert result.stop_reason == "loss_plateau"
        assert result.iterations_used == 2
        angles, means, cov, total = states[1]
        assert np.array_equal(result.state.aoa_estimate.angles, angles)
        assert np.array_equal(result.state.channel_means, means)
        assert np.array_equal(result.state.channel_covariance, cov)
        assert result.loss_trace[-1].total == total
        assert total_loss(obs, result.state, prior) == result.loss_trace[-1]

    def test_large_m_block_ends_at_a_plateau(self):
        """A block of 20000 snapshots (loss near 7e5) whose state after the
        last move rose by about 1e-9 in round-off on x86-64 with OpenBLAS;
        appended, the rise made EstimationResult raise, and run_benchmark
        counted the block as a failed trial."""
        scenario = scenario_from_dict(
            {
                "array": {"n_antennas": 32, "spacing_ratio": 0.5},
                "prior": {"mean": [[1.0, 0.0]], "covariance": [[[0.1, 0.0]]]},
                "aoas_deg": "random-in-sector",
                "n_snapshots": 20000,
                "snr_db_list": [0.0, 10.0, 20.0],
                "n_trials": 10,
                "master_seed": 301,
                "sector": {"center_deg": 0.0, "width_deg": 120.0},
                "grid_step_deg": 0.5,
            }
        )
        _, _, obs = _trial_block(scenario, 1, 9)
        result = _estimate(scenario, obs)
        assert result.stop_reason == "loss_plateau"
        totals = [b.total for b in result.loss_trace]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        assert total_loss(obs, result.state, scenario.prior) == result.loss_trace[-1]

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

    def test_stop_reasons_of_converged_runs(self, monkeypatch):
        rng = make_rng(93)
        obs, prior, aoas = self._scenario(rng, snr_db=10.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        start = [aoas.angles[0] + 0.01]
        plateau = estimate(obs, prior, sector, initial_aoas=start)
        assert plateau.stop_reason == "loss_plateau" and plateau.converged
        monkeypatch.setattr("aoavi.estimator._GRADIENT_TOLERANCE", 1e12)
        flat = estimate(obs, prior, sector, initial_aoas=start)
        assert flat.stop_reason == "gradient" and flat.converged
        assert flat.iterations_used == 1 and flat.line_search_evaluations == 0

    def test_plateau_is_the_first_relative_decrement_below_tolerance(self):
        """The run stops at the first iteration that lowers the loss by less
        than 1e-12 of its magnitude, and no sooner."""
        obs, prior, aoas = self._scenario(make_rng(93), snr_db=10.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        result = estimate(obs, prior, sector, initial_aoas=[aoas.angles[0] + 0.01])
        assert result.stop_reason == "loss_plateau"
        totals = [b.total for b in result.loss_trace]
        drops = [a - b < _LOSS_RTOL * abs(b) for a, b in zip(totals, totals[1:])]
        assert len(drops) > 2 and drops[-1] and not any(drops[:-1])

    def test_plateau_decision_unchanged_when_signal_and_noise_scale(self):
        """Y times c, the noise variance and the prior covariance times c^2
        (c a power of two) leave the loss and its gradient unchanged and
        scale every raw sum by c^2: the stop reason, the iteration and trial
        counts and the final angles are the same."""
        obs, prior, _ = self._scenario(make_rng(95), snr_db=20.0)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        grid = sector_grid(sector, math.radians(0.5))
        c = 2.0**20
        scaled_obs = ObservationSet(
            signal=obs.signal * c, noise_variance=obs.noise_variance * c * c, array=obs.array
        )
        scaled_prior = ChannelPrior(mean=prior.mean * c, covariance=prior.covariance * c * c)
        base = estimate(obs, prior, sector, grid)
        scaled = estimate(scaled_obs, scaled_prior, sector, grid)
        assert base.stop_reason == scaled.stop_reason == "loss_plateau"
        assert base.iterations_used == scaled.iterations_used > 2
        assert base.line_search_evaluations == scaled.line_search_evaluations
        assert np.array_equal(base.state.aoa_estimate.angles, scaled.state.aoa_estimate.angles)
        # equal raw sum / sigma^2 terms, so the raw sums differ by c^2
        for a, b in zip(base.loss_trace, scaled.loss_trace):
            assert b.reconstruction_term == a.reconstruction_term
            assert abs(b.kl_term - a.kl_term) <= 1e-12 * abs(a.total)

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


class TestSteeringBuilds:
    """The estimator builds the steering matrix once per state, for the
    channel update. The loss module builds it once per state, for the
    trace entry and the AoA gradient together, and once per line-search
    trial."""

    def test_one_build_per_state_in_each_module(self, monkeypatch):
        rng = make_rng(131)
        arr = ArrayConfig(16, 0.5)
        prior = random_prior(2, rng)
        aoas = AoAVector(np.radians([-20.0, 25.0]))
        obs = synthesize_observation(arr, aoas, sample_channel(prior, 10, rng), 0.1, rng)
        sector = Sector(center=0.0, width=math.radians(120.0))
        counts = {"estimator": 0, "loss": 0}
        for module in counts:

            def counted(*args, _module=module):
                counts[_module] += 1
                return array_matrix(*args)

            monkeypatch.setattr(f"aoavi.{module}.array_matrix", counted)

        result = estimate(obs, prior, sector, sector_grid(sector, math.radians(0.5)))
        entries = result.iterations_used
        assert result.stop_reason == "loss_plateau" and entries > 2
        assert counts == {"estimator": entries, "loss": entries + result.line_search_evaluations}


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

    def _block(self, snr_db=20.0, aoas_deg=(17.0,)):
        """One seeded block: K = 1 at 17 deg (or one user at each of
        aoas_deg), N = 32, d/lambda = 0.5."""
        rng = make_rng(94)
        arr = ArrayConfig(32, 0.5)
        aoas = AoAVector(np.radians(aoas_deg))
        k = aoas.k_users
        prior = ChannelPrior(mean=np.zeros(k, complex), covariance=np.eye(k, dtype=complex))
        ch = sample_channel(prior, 40, rng)
        s2 = snr_to_noise_variance(snr_db, arr, prior, aoas)
        obs = synthesize_observation(arr, aoas, ch, s2, rng)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        return obs, prior, sector, sector_grid(sector, math.radians(0.5))

    def test_trials_per_descent_step_average_at_most_four(self):
        obs, prior, sector, grid = self._block()
        result = estimate(obs, prior, sector, grid)
        assert result.converged
        searches = result.iterations_used - 1
        assert searches > 0
        assert result.line_search_evaluations / searches <= 4.0

    def test_first_trial_is_capped(self, monkeypatch):
        """Each search's first trial moves AoA k by at most
        0.5 deg * |g_k| / max|g|; the first search, from a single-user label
        on a 0.5-deg grid, starts at a sixteenth of that cap."""
        obs, prior, sector, grid = self._block()
        events = _record(monkeypatch)
        result = estimate(obs, prior, sector, grid)
        searches = _searches(events)
        assert len(searches) == result.iterations_used - 1
        recon_calls = sum(e[0] == "recon" for e in events)
        assert result.line_search_evaluations == recon_calls - result.iterations_used
        assert result.line_search_evaluations == sum(len(t) for *_, t in searches)
        below = 0
        for i, (angles, g, trials) in enumerate(searches):
            moved = np.abs(trials[0][0] - angles)
            cap = _MAX_FIRST_STEP_RAD * np.abs(g) / np.max(np.abs(g))
            if i == 0:
                cap /= 16
            # the displacement is read back from rounded angles
            slack = 4 * np.spacing(np.abs(angles))
            assert np.all(moved <= cap + slack)
            if i == 0:
                assert np.all(moved >= cap - slack)
            below += bool(np.all(moved < 0.999 * cap))
        assert below > 0  # later searches start below the cap

    @pytest.mark.parametrize(
        "aoas_deg, grid_step_deg, from_labels, cap_deg",
        [
            ((17.0,), 0.5, True, 0.5 / 16),
            ((17.0,), 0.01, True, 0.5 / 1024),
            ((17.0,), 0.01, False, 0.5),
            ((-20.0, 25.0), 0.5, True, 0.5),
            ((-20.0, 25.0), 0.01, True, 0.5 / 64),
        ],
        ids=[
            "labels_on_half_degree_grid",
            "labels_on_hundredth_degree_grid",
            "initial_aoas",
            "two_user_labels_on_half_degree_grid",
            "two_user_labels_on_hundredth_degree_grid",
        ],
    )
    def test_first_cap_follows_the_label_grid(
        self, monkeypatch, aoas_deg, grid_step_deg, from_labels, cap_deg
    ):
        """From pseudo-labels, the first trial moves the largest-gradient
        AoA by 0.5 deg halved until it is within a sixteenth of the grid
        step for a single user, whose label is interpolated between grid
        angles, and within one step for K > 1, whose labels are grid
        angles; from initial_aoas, by 0.5 deg."""
        obs, prior, sector, _ = self._block(aoas_deg=aoas_deg)
        grid = sector_grid(sector, math.radians(grid_step_deg))
        start = None if from_labels else [math.radians(17.0) + 0.01]
        events = _record(monkeypatch)
        estimate(obs, prior, sector, grid, initial_aoas=start)
        angles, g, trials = _searches(events)[0]
        cap = math.radians(cap_deg) / np.max(np.abs(g))
        assert np.array_equal(trials[0][0], np.clip(angles - cap * g, sector.lo, sector.hi))

    def test_two_user_search_starts_at_the_full_secant_step(self, monkeypatch):
        """At K = 2 each search after the first starts at the shorter of the
        cap and the secant step s @ y / y @ y itself, not half of it."""
        rng = make_rng(96)
        arr = ArrayConfig(32, 0.5)
        aoas = AoAVector(np.radians([-20.0, 25.0]))
        prior = ChannelPrior(mean=np.ones(2, complex), covariance=0.25 * np.eye(2, dtype=complex))
        ch = sample_channel(prior, 40, rng)
        s2 = snr_to_noise_variance(10.0, arr, prior, aoas)
        obs = synthesize_observation(arr, aoas, ch, s2, rng)
        sector = Sector(center=0.0, width=2 * math.pi / 3)
        events = _record(monkeypatch)
        estimate(obs, prior, sector, initial_aoas=aoas.angles + [0.01, -0.01])
        searches = _searches(events)
        assert len(searches) > 2
        secant_starts = 0
        for (prev_angles, prev_g, _), (angles, g, trials) in zip(searches, searches[1:]):
            cap = _MAX_FIRST_STEP_RAD / np.max(np.abs(g))
            bb = _exact_bb2(angles, prev_angles, g, prev_g)
            step = float(bb) if 0 < bb < cap else cap
            secant_starts += 0 < bb < cap
            expected = np.clip(angles - step * g, sector.lo, sector.hi)
            slack = 4 * np.spacing(np.abs(angles)) + 1e-12 * np.abs(step * g)
            assert np.all(np.abs(trials[0][0] - expected) <= slack)
        assert secant_starts > 0

    @pytest.mark.parametrize(
        "start_deg, sector_deg, gradients",
        [
            # s @ y / y @ y is 0.5 deg / 2**-53, far past the cap
            (17.0 + 0.57, 120.0, [1.0, 1.0 - 2.0**-53, 0.0]),
            # s @ y < 0
            (17.0 + 0.57, 120.0, [1.0, 2.0, 0.0]),
            # y = 0, so s @ y = y @ y = 0
            (17.0 + 0.57, 120.0, [1.0, 1.0, 0.0]),
            # the first search clips to the sector edge a few ulps away, and
            # the quotient (about 1e-16 / 3.6e308) underflows to 0.0
            (16.9 - 1e-14, 33.8, [-1.797e308, 1.797e308, 0.0]),
        ],
        ids=["past_the_cap", "negative_curvature", "zero_curvature", "underflowing_to_zero"],
    )
    def test_search_starts_at_the_cap_without_a_usable_secant_step(
        self, monkeypatch, start_deg, sector_deg, gradients
    ):
        """The second search starts exactly at the cap when the quotient
        s @ y / y @ y is past it, or is not a positive float."""
        obs, prior, _, _ = self._block()
        sector = Sector(center=0.0, width=math.radians(sector_deg))
        # a move of a few ulps lowers the loss by less than 1e-12 of its
        # magnitude, which would end the run before the second search
        monkeypatch.setattr("aoavi.estimator._LOSS_RTOL", 1e-300)
        events = _fake_gradients(monkeypatch, gradients)
        result = estimate(obs, prior, sector, initial_aoas=[math.radians(start_deg)])
        searches = _searches(events)
        assert len(searches) == 2
        assert searches[1][0][0] != math.radians(start_deg)  # the first search moved
        for angles, g, trials in searches:
            cap = _MAX_FIRST_STEP_RAD / np.max(np.abs(g))
            assert np.array_equal(trials[0][0], np.clip(angles - cap * g, sector.lo, sector.hi))

    def test_opposite_huge_gradients_take_half_the_secant_step(self, monkeypatch):
        """Gradients of +1e308 then -1e308: the unscaled y = -2e308 would
        overflow, the scaled one does not. The second search (K = 1) starts
        at exactly half the secant step, a quarter of the accepted first
        move back, with no warning and no exception. The fake second
        gradient points uphill, so all its trials are rejected and the run
        stalls."""
        obs, prior, sector, _ = self._block()
        truth = math.radians(17.0)
        events = _fake_gradients(monkeypatch, [1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(obs, prior, sector, initial_aoas=[truth + 0.01])
        assert result.stop_reason == "line_search_stall"
        (a0, g0, _), (a1, g1, trials) = _searches(events)
        assert len(trials) == _MAX_HALVINGS + 1
        bb = _exact_bb2(a1, a0, g1, g0)
        assert bb == (Fraction(a0[0]) - Fraction(a1[0])) / (2 * Fraction(1e308))
        assert bb < _MAX_FIRST_STEP_RAD / 1e308  # below the cap
        expected = float(Fraction(a1[0]) - bb / 2 * Fraction(g1[0]))
        assert abs(trials[0][0][0] - expected) <= 4 * np.spacing(expected)

    def test_secant_step_halving_to_zero_stalls(self, monkeypatch):
        """A tiny secant step (about 5e-320) with a gradient of -1.8e308
        still moves the angle uphill, until the halvings reach a step of
        0.0. Its trial repeats the angles and is accepted; the zero step
        must end the run as a stall, not append a repeated trace entry that
        would read as a converged plateau."""
        obs, prior, sector, _ = self._block()
        truth = math.radians(17.0)
        events = _fake_gradients(monkeypatch, [1e3, 1e-6, -1.797e308])
        result = estimate(obs, prior, sector, initial_aoas=[truth + 0.03])
        assert result.stop_reason == "line_search_stall"
        assert result.iterations_used == 3
        *earlier, (start, _g, trials) = _searches(events)
        base = events[max(i for i, e in enumerate(events) if e[0] == "grad") - 1][2]
        *rejected, (last, recon) = trials
        assert 0 < len(rejected) < _MAX_HALVINGS
        assert all(r > base for _, r in rejected)
        assert np.array_equal(last, start) and recon == base
        assert np.array_equal(result.state.aoa_estimate.angles, start)
        assert result.line_search_evaluations == sum(len(s[2]) for s in earlier) + len(trials)

    def test_secant_step_at_3000_db(self, monkeypatch):
        """At 3000 dB the gradients are near 1e304, so y @ y of the
        unscaled gradients overflows a float. Both gradients are scaled by
        one power of two, so each search after the first still starts at
        half the secant step s @ y / y @ y (K = 1), with no warning, and
        the run converges."""
        obs, prior, sector, _ = self._block(snr_db=3000.0)
        truth = math.radians(17.0)
        events = _record(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = estimate(obs, prior, sector, initial_aoas=[truth + 0.01])
        assert result.converged
        searches = _searches(events)
        assert len(searches) > 2
        for i, (angles, g, trials) in enumerate(searches):
            assert np.max(np.abs(g)) > 1.4e154  # so |g|^2 overflows
            step = _MAX_FIRST_STEP_RAD / np.max(np.abs(g))
            if i > 0:
                prev_angles, prev_g, _ = searches[i - 1]
                half = _exact_bb2(angles, prev_angles, g, prev_g) / 2
                assert 0 < half < step  # here every later search is below the cap
                step = float(half)
            expected = np.clip(angles - step * g, sector.lo, sector.hi)
            # exact at the cap; after it, the estimator's float arithmetic
            # rounds the exact quotient
            slack = 4 * np.spacing(np.abs(angles)) + 1e-12 * np.abs(step * g)
            assert np.all(np.abs(trials[0][0] - expected) <= slack * (i > 0))
        assert result.line_search_evaluations < 120
        assert abs(result.state.aoa_estimate.angles[0] - truth) < 1e-9
