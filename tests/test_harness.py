"""Monte Carlo harness: metrics, seeding, the sweep, and config parsing."""

import json
import math

import numpy as np
import pytest
from scipy import stats

import aoavi.harness
from aoavi.estimator import OptimizerConfig, estimate
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
        channel = ChannelRealization.from_gains(
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
        channel = ChannelRealization.from_gains(
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
            "aoa_step_size": 0.02,
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
            aoa_step_size=0.02,
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

    @pytest.mark.parametrize("key, value", [("gamma", 1.0), ("phase1_iterations", 3)])
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

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict([1, 2, 3])

    def test_invalid_value_surfaces_as_config_error(self):
        d = _full_scenario_dict()
        d["array"]["n_antennas"] = 0
        with pytest.raises(ConfigError):
            scenario_from_dict(d)


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
