"""Monte Carlo harness: metrics, seeding, the sweep, and config parsing."""

import json
import math
import re

import numpy as np
import pytest
from scipy import stats

import aoavi.harness
from aoavi.estimator import STOP_REASONS, OptimizerConfig, estimate
from aoavi.harness import (
    BENCHMARK_CSV_HEADER,
    MUSIC_LS,
    OPTIMA_CSV_HEADER,
    PROPOSED,
    SNR_DEFINITION,
    STATIONARY_CSV_HEADER,
    ConfigError,
    MetricRow,
    Scenario,
    aligned_squared_errors,
    benchmark_csv,
    benchmark_rows_json,
    landscape_config_from_dict,
    run_benchmark,
    run_landscape_export,
    run_metadata,
    scenario_from_dict,
    _trial_block,
    trial_rng,
    wrap_angle,
)
from aoavi.landscape import enumerate_global_optima
from aoavi.preprocess import Sector, sector_grid
from aoavi.signal_model import (
    AoAVector,
    ArrayConfig,
    ChannelPrior,
    ChannelRealization,
    sample_channel,
    snr_to_noise_variance,
    synthesize_observation,
)


def _single_user_scenario(**overrides) -> Scenario:
    kwargs = dict(
        array=ArrayConfig(n_antennas=32, spacing_ratio=0.5),
        aoas=AoAVector([math.radians(12.0)]),
        prior=ChannelPrior(
            mean=np.zeros(1, dtype=complex), covariance=np.eye(1, dtype=complex)
        ),
        n_snapshots=40,
        snr_db_list=(20.0,),
        n_trials=3,
        master_seed=7,
        sector=Sector(center=0.0, width=math.radians(120.0)),
        grid_step=math.radians(0.5),
        optimizer=OptimizerConfig(),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)
        assert wrap_angle(-1.2) == pytest.approx(-1.2, abs=1e-15)

    def test_boundary_lands_on_positive_pi(self):
        # the interval is (-pi, pi], both boundary inputs map to +pi
        assert wrap_angle(math.pi) == pytest.approx(math.pi, abs=1e-15)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi, abs=1e-15)

    def test_three_half_pi_wraps_negative(self):
        assert wrap_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi, abs=1e-12)

    def test_vectorized(self):
        out = wrap_angle(np.array([0.0, 2.0 * math.pi, -2.0 * math.pi + 0.1]))
        assert np.allclose(out, [0.0, 0.0, 0.1], atol=1e-12)


class TestTrialRng:
    def test_deterministic_replay(self):
        a = trial_rng(123, 2, 17).standard_normal(8)
        b = trial_rng(123, 2, 17).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_across_indices(self):
        base = trial_rng(123, 0, 0).standard_normal(8)
        assert not np.allclose(base, trial_rng(123, 0, 1).standard_normal(8))
        assert not np.allclose(base, trial_rng(123, 1, 0).standard_normal(8))
        assert not np.allclose(base, trial_rng(124, 0, 0).standard_normal(8))

    def test_matches_documented_seed_sequence(self):
        seq = np.random.SeedSequence(entropy=99, spawn_key=(3, 5))
        want = np.random.default_rng(seq).uniform(size=6)
        got = trial_rng(99, 3, 5).uniform(size=6)
        assert np.array_equal(want, got)


class TestAlignedSquaredErrors:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(0)
        aoas = AoAVector(np.radians([-20.0, 5.0, 40.0]))
        prior = ChannelPrior(
            mean=np.full(3, 0.5 + 0.2j), covariance=np.eye(3, dtype=complex)
        )
        channel = sample_channel(prior, 6, rng)
        mse_aoa, mse_gain, mse_angle = aligned_squared_errors(
            aoas, channel, aoas.angles.copy(), channel.gains.copy()
        )
        assert mse_aoa == 0.0
        assert mse_gain == pytest.approx(0.0, abs=1e-24)
        assert mse_angle == pytest.approx(0.0, abs=1e-24)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        aoas = AoAVector(np.radians([-20.0, 5.0, 40.0]))
        prior = ChannelPrior(
            mean=np.zeros(3, dtype=complex), covariance=np.eye(3, dtype=complex)
        )
        channel = sample_channel(prior, 5, rng)
        est_angles = aoas.angles + np.array([0.01, -0.02, 0.005])
        est_gains = channel.gains * 1.1

        ref = aligned_squared_errors(aoas, channel, est_angles, est_gains)
        perm = np.array([2, 0, 1])
        shuffled = aligned_squared_errors(
            aoas, channel, est_angles[perm], est_gains[perm, :]
        )
        assert shuffled == pytest.approx(ref, rel=1e-12)

    def test_path_angle_error_uses_wrapped_difference(self):
        aoas = AoAVector([0.1])
        psi = math.pi - 0.05
        channel = ChannelRealization(
            np.array([[np.exp(1j * psi)]], dtype=complex)
        )
        est_gains = np.array([[np.exp(-1j * psi)]], dtype=complex)
        _, _, mse_angle = aligned_squared_errors(
            aoas, channel, np.array([0.1]), est_gains
        )
        # raw difference is -2*pi + 0.1; the wrapped gap is 0.1
        assert mse_angle == pytest.approx(0.1**2, rel=1e-10)

    def test_pairs_users_by_angle_rank(self):
        aoas = AoAVector(np.radians([10.0, -30.0]))
        channel = ChannelRealization(
            np.array([[1.0 + 0j], [2.0 + 0j]], dtype=complex)
        )
        # estimates arrive unsorted; rank pairing must match -30 with -29
        est_angles = np.radians([11.0, -29.0])
        est_gains = np.array([[1.0 + 0j], [2.0 + 0j]], dtype=complex)
        mse_aoa, mse_gain, _ = aligned_squared_errors(
            aoas, channel, est_angles, est_gains
        )
        assert mse_aoa == pytest.approx(math.radians(1.0) ** 2, rel=1e-12)
        assert mse_gain == pytest.approx(0.0, abs=1e-24)


class TestMetricRow:
    def test_rejects_negative_mse(self):
        with pytest.raises(ValueError):
            MetricRow(PROPOSED, 10.0, -1.0, 0.0, 0.0, 5, 0, 1.0)

    def test_rejects_failures_beyond_trials(self):
        with pytest.raises(ValueError):
            MetricRow(PROPOSED, 10.0, 0.0, 0.0, 0.0, 5, 6, 1.0)

    def test_nan_mse_allowed_for_all_failed(self):
        row = MetricRow(MUSIC_LS, 0.0, math.nan, math.nan, math.nan, 4, 4, 1.0)
        assert math.isnan(row.mse_aoa)


class TestRunBenchmark:
    def test_repeat_runs_identical(self):
        scenario = _single_user_scenario(aoas=None, n_trials=4)
        first = benchmark_csv(run_benchmark(scenario))
        second = benchmark_csv(run_benchmark(scenario))
        assert first == second

    def test_row_order_snr_then_method(self):
        scenario = _single_user_scenario(snr_db_list=(0.0, 20.0), n_trials=2)
        rows = run_benchmark(scenario)
        assert [(r.method, r.snr_db) for r in rows] == [
            (PROPOSED, 0.0),
            (MUSIC_LS, 0.0),
            (PROPOSED, 20.0),
            (MUSIC_LS, 20.0),
        ]

    def test_noiseless_recovery_is_machine_precision(self):
        scenario = _single_user_scenario(snr_db_list=(math.inf,))
        rows = run_benchmark(scenario)
        proposed = next(r for r in rows if r.method == PROPOSED)
        assert proposed.failures == 0
        assert proposed.mse_aoa < 1e-8

    def test_failed_trials_counted_and_excluded(self):
        # one snapshot cannot support a two-user subspace method: the
        # classical branch must fail every trial while the other one runs
        prior = ChannelPrior(
            mean=np.zeros(2, dtype=complex), covariance=np.eye(2, dtype=complex)
        )
        scenario = _single_user_scenario(
            aoas=AoAVector(np.radians([-20.0, 25.0])),
            prior=prior,
            n_snapshots=1,
            n_trials=3,
        )
        rows = run_benchmark(scenario)
        music = next(r for r in rows if r.method == MUSIC_LS)
        proposed = next(r for r in rows if r.method == PROPOSED)
        assert music.failures == music.trials == 3
        assert math.isnan(music.mse_aoa)
        assert proposed.failures == 0
        assert math.isfinite(proposed.mse_aoa)

    def test_numerical_failure_counted(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(aoavi.harness, "estimate", singular)
        rows = run_benchmark(_single_user_scenario(n_trials=2))
        proposed = next(r for r in rows if r.method == PROPOSED)
        assert proposed.failures == proposed.trials == 2
        assert math.isnan(proposed.mse_aoa)

    def test_failures_counted_by_type(self, monkeypatch):
        scenario = _single_user_scenario(n_trials=3)
        clean = run_benchmark(scenario)
        real_estimate = aoavi.harness.estimate
        calls = []

        def singular_on_second_trial(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("singular matrix")
            return real_estimate(*args, **kwargs)

        monkeypatch.setattr(aoavi.harness, "estimate", singular_on_second_trial)
        rows = run_benchmark(scenario)
        proposed, music = rows
        assert proposed.failures == 1
        assert proposed.diagnostics["failures"] == {"ValueError": 0, "LinAlgError": 1}
        assert sum(proposed.diagnostics["stop_reasons"].values()) == 2
        assert music.diagnostics == {"failures": {"ValueError": 0, "LinAlgError": 0}}
        assert benchmark_csv([music]) == benchmark_csv(clean[1:])
        # the counts by type stay out of the data files
        assert "LinAlgError" not in benchmark_csv(rows) + benchmark_rows_json(rows)

    def test_scoring_failure_tallied_for_its_method_only(self, monkeypatch):
        scenario = _single_user_scenario(n_trials=3)
        clean = run_benchmark(scenario)
        real_errors = aoavi.harness.aligned_squared_errors
        calls = []

        def fails_on_second_proposed_trial(*args):
            # the methods alternate per trial: proposed, then MUSIC+LS
            calls.append(None)
            if len(calls) == 3:
                raise ValueError("scoring failed")
            return real_errors(*args)

        monkeypatch.setattr(
            aoavi.harness, "aligned_squared_errors", fails_on_second_proposed_trial
        )
        proposed, music = run_benchmark(scenario)
        assert len(calls) == 6
        assert proposed.failures == 1
        assert proposed.diagnostics["failures"] == {"ValueError": 1, "LinAlgError": 0}
        # the trial whose estimate was not scored leaves the stop diagnostics
        assert sum(proposed.diagnostics["stop_reasons"].values()) == 2
        assert music.failures == 0
        assert benchmark_csv([music]) == benchmark_csv(clean[1:])

    def test_proposed_rows_carry_stop_diagnostics(self, monkeypatch):
        scenario = _single_user_scenario(snr_db_list=(0.0, 20.0), n_trials=4)
        grid = sector_grid(scenario.sector, scenario.grid_step)
        rows = run_benchmark(scenario)
        no_failures = {"failures": {"ValueError": 0, "LinAlgError": 0}}
        assert [r.diagnostics for r in rows if r.method == MUSIC_LS] == [no_failures] * 2
        for si, row in enumerate(r for r in rows if r.method == PROPOSED):
            results = [
                estimate(
                    _trial_block(scenario, si, t)[3],
                    scenario.prior,
                    scenario.sector,
                    grid,
                    scenario.optimizer,
                )
                for t in range(scenario.n_trials)
            ]
            diag = row.diagnostics
            assert diag["stop_reasons"] == {
                reason: sum(r.stop_reason == reason for r in results) for reason in STOP_REASONS
            }
            iterations = [r.iterations_used for r in results]
            evaluations = [r.line_search_evaluations for r in results]
            assert diag["iterations_used"] == {
                "p50": float(np.median(iterations)),
                "p90": float(np.percentile(iterations, 90)),
                "max": max(iterations),
            }
            assert diag["line_search_evaluations"]["max"] == max(evaluations)
            assert diag["line_search_evaluations"]["p50"] == float(np.median(evaluations))

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(aoavi.harness, "estimate", singular)
        failed = run_benchmark(_single_user_scenario(n_trials=2))[0].diagnostics
        assert sum(failed["stop_reasons"].values()) == 0
        assert failed["iterations_used"] is None and failed["line_search_evaluations"] is None

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("estimate() got an unexpected keyword argument")

        monkeypatch.setattr(aoavi.harness, "estimate", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_benchmark(_single_user_scenario(n_trials=1))

    def test_error_decreases_with_snr_paired_trials(self):
        # paired per-trial errors across the SNR axis, same seeds per trial
        array = ArrayConfig(n_antennas=32, spacing_ratio=0.5)
        prior = ChannelPrior(
            mean=np.zeros(1, dtype=complex), covariance=np.eye(1, dtype=complex)
        )
        sector = Sector(center=0.0, width=math.radians(120.0))
        grid = sector_grid(sector, math.radians(0.5))
        errs = {}
        for si, snr in enumerate((0.0, 20.0)):
            per_trial = []
            for t in range(25):
                rng = trial_rng(20260818, si, t)
                aoas = AoAVector(np.sort(rng.uniform(sector.lo, sector.hi, 1)))
                channel = sample_channel(prior, 40, rng)
                s2 = snr_to_noise_variance(snr, array, prior, aoas)
                obs = synthesize_observation(array, aoas, channel, s2, rng)
                result = estimate(obs, prior, sector, grid, OptimizerConfig())
                e, _, _ = aligned_squared_errors(
                    aoas,
                    channel,
                    result.state.aoa_estimate.angles,
                    result.state.channel_means,
                )
                per_trial.append(e)
            errs[snr] = np.asarray(per_trial)
        diff = errs[0.0] - errs[20.0]
        p = stats.wilcoxon(diff, alternative="greater").pvalue
        assert p < 0.01


class TestSerialization:
    def test_benchmark_csv_header_and_row_format(self):
        assert (
            BENCHMARK_CSV_HEADER
            == "method,snr_db,mse_aoa_rad2,mse_path_gain,mse_path_angle_rad2,trials,failures"
        )
        row = MetricRow(PROPOSED, 10.0, 0.25, 0.5, 0.125, 7, 1, 321.0)
        text = benchmark_csv([row])
        lines = text.splitlines()
        assert lines[0] == BENCHMARK_CSV_HEADER
        assert lines[1] == "proposed,10.0,0.25,0.5,0.125,7,1"
        assert "321" not in text  # runtime lives in the metadata file only
        assert text.endswith("\n")

    def test_benchmark_rows_json_round_trip(self):
        row = MetricRow(MUSIC_LS, 0.0, 1.0, 2.0, 3.0, 4, 2, 9.0)
        payload = json.loads(benchmark_rows_json([row]))
        assert payload["rows"] == [
            {
                "method": "music_ls",
                "snr_db": 0.0,
                "mse_aoa_rad2": 1.0,
                "mse_path_gain": 2.0,
                "mse_path_angle_rad2": 3.0,
                "trials": 4,
                "failures": 2,
            }
        ]

    def test_run_metadata_contents(self):
        meta = json.loads(run_metadata({"n_trials": 3}, {"benchmark": 12.5}))
        assert meta["snr_definition"] == SNR_DEFINITION
        assert meta["config"] == {"n_trials": 3}
        assert meta["runtime_ms"] == {"benchmark": 12.5}
        assert isinstance(meta["version"], str) and meta["version"]


def _full_scenario_dict() -> dict:
    return {
        "array": {"n_antennas": 16, "spacing_ratio": 0.5},
        "prior": {
            "mean": [[0.8, 0.1], [0.0, -0.2]],
            "covariance": [
                [[0.5, 0.0], [0.1, 0.05]],
                [[0.1, -0.05], [0.4, 0.0]],
            ],
        },
        "aoas_deg": [-10.0, 30.0],
        "n_snapshots": 12,
        "snr_db_list": [0, 10],
        "n_trials": 5,
        "master_seed": 42,
        "sector": {"center_deg": 10.0, "width_deg": 100.0},
        "grid_step_deg": 0.5,
        "optimizer": {
            "max_outer_iterations": 300,
            "aoa_gradient_tolerance": 1e-6,
            "loss_tolerance": 1e-9,
        },
        "suppression_radius_deg": 3.0,
    }


class TestScenarioFromDict:
    def test_full_config_parses(self):
        s = scenario_from_dict(_full_scenario_dict())
        assert s.array.n_antennas == 16
        assert s.array.spacing_ratio == 0.5
        assert np.allclose(s.prior.mean, [0.8 + 0.1j, 0.0 - 0.2j])
        assert s.prior.covariance[0, 1] == pytest.approx(0.1 + 0.05j)
        assert s.prior.covariance[1, 0] == pytest.approx(0.1 - 0.05j)
        assert np.allclose(s.aoas.angles, np.radians([-10.0, 30.0]))
        assert s.snr_db_list == (0.0, 10.0)
        assert s.n_snapshots == 12
        assert s.sector.center == pytest.approx(math.radians(10.0))
        assert s.sector.width == pytest.approx(math.radians(100.0))
        assert s.grid_step == pytest.approx(math.radians(0.5))
        assert s.optimizer == OptimizerConfig(
            max_outer_iterations=300,
            aoa_gradient_tolerance=1e-6,
            loss_tolerance=1e-9,
        )
        assert s.suppression_radius == pytest.approx(math.radians(3.0))

    def test_random_in_sector_leaves_aoas_unset(self):
        d = _full_scenario_dict()
        d["aoas_deg"] = "random-in-sector"
        d["prior"] = {"mean": [[0.0, 0.0]], "covariance": [[[1.0, 0.0]]]}
        assert scenario_from_dict(d).aoas is None

    def test_omitted_aoas_default_to_random(self):
        d = _full_scenario_dict()
        del d["aoas_deg"]
        d["prior"] = {"mean": [[0.0, 0.0]], "covariance": [[[1.0, 0.0]]]}
        assert scenario_from_dict(d).aoas is None

    def test_missing_field_names_the_path(self):
        d = _full_scenario_dict()
        del d["prior"]["covariance"]
        with pytest.raises(ConfigError, match=r"prior\.covariance"):
            scenario_from_dict(d)

    def test_missing_sector_field_names_the_path(self):
        d = _full_scenario_dict()
        del d["sector"]["width_deg"]
        with pytest.raises(ConfigError, match=r"sector\.width_deg"):
            scenario_from_dict(d)

    def test_unknown_optimizer_field_named(self):
        d = _full_scenario_dict()
        d["optimizer"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "key, value", [("gamma", 1.0), ("phase1_iterations", 3), ("aoa_step_size", 0.02)]
    )
    def test_removed_optimizer_fields_rejected(self, key, value):
        d = _full_scenario_dict()
        d["optimizer"][key] = value
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict(d)

    def test_flat_prior_mean_rejected(self):
        d = _full_scenario_dict()
        d["prior"]["mean"] = [0.8, 0.0]
        with pytest.raises(ConfigError, match=r"\[re, im\] pairs"):
            scenario_from_dict(d)

    def test_unrecognized_aoa_keyword_rejected(self):
        d = _full_scenario_dict()
        d["aoas_deg"] = "randomised"
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    def test_grid_step_must_fit_the_sector(self):
        d = _full_scenario_dict()
        d["sector"] = {"center_deg": 0.0, "width_deg": 1.0}
        d["grid_step_deg"] = 5.0
        with pytest.raises(ConfigError, match="'grid_step_deg': .*span at least one step"):
            scenario_from_dict(d)
        d["grid_step_deg"] = 0.5
        scenario = scenario_from_dict(d)
        assert scenario.grid == sector_grid(scenario.sector, scenario.grid_step)
        assert scenario.grid.n_points == 3

    @pytest.mark.parametrize(
        "path",
        [
            "n_trials",
            "n_snapshots",
            "master_seed",
            "array.n_antennas",
            "optimizer.max_outer_iterations",
        ],
    )
    def test_integer_fields_reject_fractions_and_name_the_path(self, path):
        d = _full_scenario_dict()
        *parents, key = path.split(".")
        section = d[parents[0]] if parents else d
        for bad in (2.7, "12", True):
            section[key] = bad
            with pytest.raises(ConfigError, match=rf"'{path}' must be an integer"):
                scenario_from_dict(d)
        section[key] = 12.0  # an integral float is read as the integer
        value = scenario_from_dict(d)
        for attr in path.split("."):
            value = getattr(value, attr)
        assert value == 12 and isinstance(value, int)

    @pytest.mark.parametrize(
        "keys, name, good",
        [
            (("array", "spacing_ratio"), "array.spacing_ratio", 1),
            (("sector", "center_deg"), "sector.center_deg", 10),
            (("sector", "width_deg"), "sector.width_deg", 100),
            (("grid_step_deg",), "grid_step_deg", 1),
            (("suppression_radius_deg",), "suppression_radius_deg", 3),
            (("optimizer", "aoa_gradient_tolerance"), "optimizer.aoa_gradient_tolerance", 1),
            (("optimizer", "loss_tolerance"), "optimizer.loss_tolerance", 1),
            (("snr_db_list", 1), "snr_db_list[1]", 20),
            (("aoas_deg", 0), "aoas_deg[0]", -10),
            (("prior", "mean", 0, 1), "prior.mean", 0),
            (("prior", "covariance", 1, 1, 0), "prior.covariance", 1),
        ],
    )
    def test_real_fields_take_only_json_numbers_and_name_the_path(self, keys, name, good):
        d = _full_scenario_dict()
        *parents, key = keys
        section = d
        for parent in parents:
            section = section[parent]
        for bad in ("12", True, None):
            section[key] = bad
            with pytest.raises(ConfigError, match=rf"'{re.escape(name)}' must be a number"):
                scenario_from_dict(d)
        section[key] = good  # an integer is read as the float
        scenario_from_dict(d)

    @pytest.mark.parametrize("key", ["snr_db_list", "aoas_deg"])
    def test_number_lists_must_be_lists(self, key):
        d = _full_scenario_dict()
        d[key] = 10.0
        with pytest.raises(ConfigError, match=rf"'{key}' must be a list of numbers"):
            scenario_from_dict(d)

    def test_nan_suppression_radius_rejected(self):
        with pytest.raises(ValueError, match="suppression_radius"):
            _single_user_scenario(suppression_radius=math.nan)
        d = dict(_full_scenario_dict(), suppression_radius_deg=math.nan)
        with pytest.raises(ConfigError, match="suppression_radius must be non-negative"):
            scenario_from_dict(d)

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            scenario_from_dict([1, 2, 3])

    @pytest.mark.parametrize("section", ["array", "sector", "prior", "optimizer"])
    @pytest.mark.parametrize("value", [5, "fast", [1, 2]])
    def test_every_section_must_be_an_object(self, section, value):
        d = dict(_full_scenario_dict(), **{section: value})
        with pytest.raises(ConfigError, match=rf"'{section}' must be a JSON object"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "section, key",
        [
            (None, "supression_radius_deg"),
            (None, "grid_step"),
            ("array", "spacing"),
            ("sector", "centre_deg"),
            ("prior", "means"),
        ],
    )
    def test_unknown_keys_rejected_by_name_in_every_section(self, section, key):
        d = _full_scenario_dict()
        (d[section] if section else d)[key] = 1.0
        where = rf"field '{section}'" if section else "config root"
        with pytest.raises(ConfigError, match=rf"unknown fields in {where}: \['{key}'\]"):
            scenario_from_dict(d)

    def test_invalid_value_surfaces_as_config_error(self):
        d = _full_scenario_dict()
        d["array"]["n_antennas"] = 0
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -4000.0])
    def test_snr_without_a_positive_finite_ratio_is_config_error(self, snr_db):
        d = _full_scenario_dict()
        d["snr_db_list"] = [10.0, snr_db]
        with pytest.raises(ConfigError, match="positive finite linear SNR"):
            scenario_from_dict(d)
        assert scenario_from_dict(dict(d, snr_db_list=[math.inf])).snr_db_list == (math.inf,)


# a single-user AoA surface axis a landscape config can request
_AOA_AXIS = {"start_deg": -30.0, "stop_deg": 30.0, "num": 5}


class TestLandscapeExport:
    def _config(self, extra=None) -> dict:
        d = {
            "array": {"n_antennas": 32, "spacing_ratio": 2.0},
            "true_angle_deg": 11.0,
        }
        if extra:
            d.update(extra)
        return d

    def test_config_parsing_defaults(self):
        cfg = landscape_config_from_dict(self._config())
        assert cfg.array.spacing_ratio == 2.0
        assert cfg.true_angle == pytest.approx(math.radians(11.0))
        assert cfg.scan_step == pytest.approx(math.radians(0.01))
        assert cfg.surface_axes is None

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"surface": dict(_AOA_AXIS, user_index=1)}, "user_index out of range"),
            ({"surface": [_AOA_AXIS, dict(_AOA_AXIS, num=3)]}, "same coordinate"),
            ({"scan_step_deg": 0.5}, "too coarse"),
            ({"scan_step_deg": -0.01}, "not positive"),
        ],
    )
    def test_configs_the_export_cannot_run_fail_at_parse_time(self, extra, message):
        with pytest.raises(ConfigError, match=message):
            landscape_config_from_dict(self._config(extra))

    @pytest.mark.parametrize(
        "extra, message",
        [
            ([1, 2], "config root must be a JSON object"),
            ({"array": 5}, "'array' must be a JSON object"),
            ({"surface": 5}, r"'surface\[0\]' must be a JSON object"),
            ({"surface": [_AOA_AXIS, "aoa"]}, r"'surface\[1\]' must be a JSON object"),
            ({"scan_step": 0.01}, r"unknown fields in config root: \['scan_step'\]"),
            ({"array": {"n_antennas": 32, "spacing": 2.0}}, r"'array': \['spacing'\]"),
            ({"surface": dict(_AOA_AXIS, step=1)}, r"'surface\[0\]': \['step'\]"),
            # each target takes only its own unit's bounds
            (
                {"surface": dict(_AOA_AXIS, target="path_angle", start_rad=0, stop_rad=1)},
                r"'surface\[0\]': \['start_deg', 'stop_deg'\]",
            ),
            ({"surface": dict(_AOA_AXIS, start_rad=0.1)}, r"'surface\[0\]': \['start_rad'\]"),
            ({"surface": dict(_AOA_AXIS, target=1)}, r"'surface\[0\]\.target' must be 'aoa'"),
            ({"surface": dict(_AOA_AXIS, target="gain")}, r"'surface\[0\]\.target' must be"),
        ],
    )
    def test_every_section_is_an_object_with_known_keys(self, extra, message):
        d = extra if isinstance(extra, list) else self._config(extra)
        with pytest.raises(ConfigError, match=message):
            landscape_config_from_dict(d)

    @pytest.mark.parametrize("key", ["num", "user_index"])
    def test_surface_integer_fields_name_the_path(self, key):
        axis = dict(_AOA_AXIS, **{key: 2.7})
        with pytest.raises(ConfigError, match=rf"'surface\[0\]\.{key}' must be an integer"):
            landscape_config_from_dict(self._config({"surface": axis}))

    @pytest.mark.parametrize(
        "extra, name",
        [
            ({"true_angle_deg": True}, "true_angle_deg"),
            ({"scan_step_deg": "0.01"}, "scan_step_deg"),
            ({"surface": dict(_AOA_AXIS, start_deg=True)}, "surface[0].start_deg"),
            (
                {"surface": {"target": "path_angle", "start_rad": None, "stop_rad": 1.0, "num": 3}},
                "surface[0].start_rad",
            ),
        ],
    )
    def test_real_fields_take_only_json_numbers_and_name_the_path(self, extra, name):
        with pytest.raises(ConfigError, match=rf"'{re.escape(name)}' must be a number"):
            landscape_config_from_dict(self._config(extra))

    def test_missing_true_angle_named(self):
        with pytest.raises(ConfigError, match="true_angle_deg"):
            landscape_config_from_dict({"array": {"n_antennas": 8, "spacing_ratio": 0.5}})

    def test_export_optima_and_stationary(self, tmp_path):
        cfg = landscape_config_from_dict(self._config({"scan_step_deg": 0.05}))
        paths = run_landscape_export(cfg, tmp_path, {"echo": True})
        assert set(paths) == {"optima", "stationary", "meta"}

        optima_lines = paths["optima"].read_text().splitlines()
        assert optima_lines[0] == OPTIMA_CSV_HEADER == "l,sin_alias,angle_deg"
        assert len(optima_lines) == 1 + 4  # wide spacing: four aliased optima
        opt = enumerate_global_optima(cfg.array, cfg.true_angle)
        for line, angle, l in zip(optima_lines[1:], opt.alias_angles, opt.alias_integers):
            cells = line.split(",")
            assert int(cells[0]) == l
            assert float(cells[1]) == pytest.approx(math.sin(angle), abs=1e-15)
            assert float(cells[2]) == pytest.approx(math.degrees(angle), abs=1e-12)

        stat_lines = paths["stationary"].read_text().splitlines()
        assert stat_lines[0] == STATIONARY_CSV_HEADER == "angle_deg,residual"
        angles = [float(l.split(",")[0]) for l in stat_lines[1:]]
        residuals = [float(l.split(",")[1]) for l in stat_lines[1:]]
        assert angles == sorted(angles)
        assert angles[0] == pytest.approx(-90.0) and angles[-1] == pytest.approx(90.0)
        assert max(abs(r) for r in residuals) < 1e-8

        meta = json.loads(paths["meta"].read_text())
        assert meta["config"] == {"echo": True}
        assert set(meta["runtime_ms"]) == {"optima", "stationary"}

    def test_export_with_surface_axis(self, tmp_path):
        cfg = landscape_config_from_dict(
            self._config(
                {
                    "array": {"n_antennas": 16, "spacing_ratio": 0.5},
                    "scan_step_deg": 0.1,
                    "surface": {"start_deg": -30.0, "stop_deg": 30.0, "num": 61},
                }
            )
        )
        paths = run_landscape_export(cfg, tmp_path, {})
        assert "surface" in paths
        lines = paths["surface"].read_text().splitlines()
        assert lines[0].startswith("aoa_deg[user0],")
        assert lines[1].startswith("loss,")
        axis = [float(x) for x in lines[0].split(",")[1:]]
        loss = [float(x) for x in lines[1].split(",")[1:]]
        assert len(axis) == len(loss) == 61
        # noiseless single-user surface bottoms out at the true angle
        assert axis[int(np.argmin(loss))] == pytest.approx(11.0)
        meta = json.loads(paths["meta"].read_text())
        assert "surface" in meta["runtime_ms"]
