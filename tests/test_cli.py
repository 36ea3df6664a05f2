"""Command-line front end: exit codes, artifacts, and determinism."""

import json
import math

import numpy as np
import pytest

from aoavi.cli import main
from aoavi.harness import _estimate, _trial_block, scenario_from_dict


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def _scenario_payload(**overrides):
    payload = {
        "array": {"n_antennas": 16, "spacing_ratio": 0.5},
        "prior": {"mean": [[0.0, 0.0]], "covariance": [[[1.0, 0.0]]]},
        "aoas_deg": [12.0],
        "n_snapshots": 10,
        "snr_db_list": [20.0],
        "n_trials": 3,
        "master_seed": 7,
        "sector": {"center_deg": 0.0, "width_deg": 120.0},
        "grid_step_deg": 0.5,
    }
    payload.update(overrides)
    return payload


NAN = float("nan")

# a single-user AoA surface axis a landscape config can request
_AOA_AXIS = {"start_deg": -30.0, "stop_deg": 30.0, "num": 5}


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["estimate", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "array": {,}\n}\n')
        rc = main(["estimate", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff\xfe{}", "UnicodeDecodeError"), (b"[" * 100000, "RecursionError")],
        ids=["not_utf8", "deep_nesting"],
    )
    def test_unreadable_json_is_config_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        rc = main(["estimate", "--config", str(path), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    def test_invalid_subcommand(self, capsys):
        rc = main(["frobnicate", "--config", "x.json"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_config_flag(self, capsys):
        assert main(["benchmark"]) == 1

    def test_landscape_takes_no_seed(self, tmp_path, capsys):
        # a landscape config has no seed; the option is a usage error, not ignored
        cfg = _write_config(
            tmp_path, {"array": {"n_antennas": 32, "spacing_ratio": 0.5}, "true_angle_deg": 11.0}
        )
        out = tmp_path / "out"
        rc = main(["landscape", "--config", cfg, "--seed", "3", "--out-dir", str(out)])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        # parses fine, then the three-user label search runs out of grid
        payload = _scenario_payload(
            prior={
                "mean": [[0.0, 0.0]] * 3,
                "covariance": [
                    [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                ],
            },
            aoas_deg=[-10.0, 0.0, 10.0],
            sector={"center_deg": 0.0, "width_deg": 0.5},
        )
        rc = main(
            [
                "estimate",
                "--config",
                _write_config(tmp_path, payload),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "runtime failure" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["simulate", "estimate", "benchmark"])
    def test_grid_step_wider_than_sector_is_config_error(self, tmp_path, capsys, command):
        payload = _scenario_payload(
            sector={"center_deg": 0.0, "width_deg": 1.0}, grid_step_deg=5.0
        )
        out = tmp_path / "out"
        rc = main([command, "--config", _write_config(tmp_path, payload), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and "span at least one step" in err
        assert "grid_step_deg" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate", "benchmark"])
    @pytest.mark.parametrize(
        "master_seed, seed_args", [(-1, []), (7, ["--seed", "-5"])], ids=["config", "option"]
    )
    def test_negative_seed_is_config_error(
        self, tmp_path, capsys, command, master_seed, seed_args
    ):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, _scenario_payload(master_seed=master_seed))
        rc = main([command, "--config", cfg, *seed_args, "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and "master_seed must be non-negative" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"prior": {"mean": [[NAN, 0.0]], "covariance": [[[1.0, 0.0]]]}}, "must be finite"),
            ({"prior": {"mean": [[0.0, 0.0]], "covariance": [[[NAN, 0.0]]]}}, "must be finite"),
            ({"snr_db_list": [NAN]}, "positive finite linear SNR"),
            ({"snr_db_list": [20.0, -math.inf]}, "positive finite linear SNR"),
            ({"snr_db_list": [-4000.0]}, "positive finite linear SNR"),
            ({"snr_db_list": [True]}, "'snr_db_list[0]' must be a number"),
            ({"snr_db_list": [10.0, 10.0]}, "snr_db_list must not repeat an SNR"),
            ({"snr_db_list": [0.0, -0.0]}, "snr_db_list must not repeat an SNR"),
        ],
    )
    def test_non_finite_prior_or_bad_snr_is_config_error(
        self, tmp_path, capsys, overrides, message
    ):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, _scenario_payload(**overrides))
        rc = main(["benchmark", "--config", cfg, "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("center_deg", [5e-8, -5e-8])
    def test_sector_past_the_half_space_is_config_error(self, tmp_path, capsys, center_deg):
        # 8.7e-10 rad past +-pi/2: more than the 1e-12 of rounding an angle may carry
        payload = _scenario_payload(sector={"center_deg": center_deg, "width_deg": 180.0})
        out = tmp_path / "out"
        rc = main(["simulate", "--config", _write_config(tmp_path, payload), "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and "sector must be finite and lie within" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                {"surface": dict(_AOA_AXIS, user_index=0)},
                "unknown fields in field 'surface[0]': ['user_index']",
            ),
            ({"surface": [_AOA_AXIS, dict(_AOA_AXIS, num=3)]}, "same coordinate"),
            ({"scan_step_deg": 0.5}, "too coarse"),
            ({"true_angle_deg": NAN}, "true_angle must lie in"),
            ({"surface": dict(_AOA_AXIS, start_deg=-math.inf, stop_deg=math.inf)}, "must be finite"),
            (
                {"surface": {"target": "path_angle", "start_rad": -1e308, "stop_rad": 1e308, "num": 5}},
                "must be finite",
            ),
            ({"surface": dict(_AOA_AXIS, start_deg=-270.0, stop_deg=270.0)}, "[-pi/2, pi/2]"),
        ],
    )
    def test_landscape_that_cannot_run_is_config_error_with_no_artifacts(
        self, tmp_path, capsys, extra, message
    ):
        payload = {"array": {"n_antennas": 32, "spacing_ratio": 0.5}, "true_angle_deg": 11.0}
        out = tmp_path / "out"
        out.mkdir()
        cfg = _write_config(tmp_path, dict(payload, **extra))
        rc = main(["landscape", "--config", cfg, "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("benchmark", _scenario_payload(optimizer="fast"), "'optimizer' must be a JSON object"),
            ("estimate", _scenario_payload(array=5), "'array' must be a JSON object"),
            ("simulate", _scenario_payload(supression_radius_deg=3.0), "supression_radius_deg"),
            (
                "benchmark",
                _scenario_payload(array={"n_antennas": 16, "spacing": 0.5}),
                r"unknown fields in field 'array': ['spacing']",
            ),
            ("benchmark", [_scenario_payload()], "config root must be a JSON object"),
            (
                "landscape",
                {"array": {"n_antennas": 32, "spacing_ratio": 0.5}, "true_angle_deg": 11.0,
                 "surface": 5},
                "'surface[0]' must be a JSON object",
            ),
            (
                "landscape",
                {"array": {"n_antennas": 32, "spacing_ratio": 0.5}, "true_angle_deg": 11.0,
                 "scan_step": 0.05},
                "unknown fields in config root: ['scan_step']",
            ),
        ],
    )
    def test_non_object_section_or_unknown_key_is_config_error(
        self, tmp_path, capsys, command, config, message
    ):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, config)
        seed = [] if command == "landscape" else ["--seed", "3"]
        rc = main([command, "--config", cfg, *seed, "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()


class TestArtifacts:
    def test_simulate_writes_observations(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _scenario_payload(n_trials=2))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "observations.json").read_text())
        blocks = payload["observations"]
        assert len(blocks) == 2  # one SNR, two trials
        first = blocks[0]
        assert first["true_aoas_deg"] == pytest.approx([12.0])
        # N antennas x M snapshots of [re, im] pairs
        sig = first["signal"]
        assert len(sig) == 16 and len(sig[0]) == 10 and len(sig[0][0]) == 2
        meta = json.loads((out / "observations_meta.json").read_text())
        assert "simulate" in meta["runtime_ms"]

    def test_estimate_writes_result_and_meta(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _scenario_payload())
        out = tmp_path / "est"
        assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["true_aoas_deg"] == pytest.approx([12.0])
        assert abs(payload["estimated_aoas_deg"][0] - 12.0) < 0.1
        assert payload["abs_error_deg"][0] < 0.1
        totals = [step["total"] for step in payload["loss_trace"]]
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))
        assert "runtime_ms" not in payload  # timing lives in the side-car
        meta = json.loads((out / "estimate_meta.json").read_text())
        assert "estimate" in meta["runtime_ms"]

    def test_estimate_path_parameters_are_the_polar_form_of_the_means(self, tmp_path, capsys):
        config = _scenario_payload()
        out = tmp_path / "est"
        cfg = _write_config(tmp_path, config)
        assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        scenario = scenario_from_dict(config)
        result = _estimate(scenario, _trial_block(scenario, 0, 0)[2])
        means = result.state.channel_means
        assert payload["path_gains"] == np.abs(means).tolist()
        assert payload["path_angles"] == np.angle(means).tolist()
        assert np.array(payload["path_gains"]).shape == (1, config["n_snapshots"])
        assert [step["total"] for step in payload["loss_trace"]] == [
            b.total for b in result.loss_trace
        ]

    def test_estimate_reports_stop_reason_and_line_search_count(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _scenario_payload())
        out = tmp_path / "est"
        assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["stop_reason"] in ("gradient", "loss_plateau")
        assert payload["converged"] is True
        assert payload["iterations_used"] == len(payload["loss_trace"])
        assert payload["line_search_evaluations"] >= payload["iterations_used"] - 1

    def test_estimate_repeat_runs_byte_identical(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _scenario_payload())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", "--config", cfg, "--out-dir", str(out_a)]) == 0
        assert main(["estimate", "--config", cfg, "--out-dir", str(out_b)]) == 0
        assert (out_a / "estimate.json").read_bytes() == (
            out_b / "estimate.json"
        ).read_bytes()

    def test_benchmark_repeat_runs_byte_identical(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _scenario_payload(aoas_deg="random-in-sector"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["benchmark", "--config", cfg, "--out-dir", str(out_a)]) == 0
        assert main(["benchmark", "--config", cfg, "--out-dir", str(out_b)]) == 0
        text = (out_a / "benchmark.csv").read_text()
        assert text == (out_b / "benchmark.csv").read_text()
        assert text.splitlines()[0] == (
            "method,snr_db,mse_aoa_rad2,mse_path_gain,mse_path_angle_rad2,trials,failures"
        )
        meta = json.loads((out_a / "benchmark_meta.json").read_text())
        assert set(meta["runtime_ms"]) == {"proposed@20.0dB", "music_ls@20.0dB"}

    def test_benchmark_meta_reports_estimator_diagnostics(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _scenario_payload(snr_db_list=[0.0, 20.0]))
        out = tmp_path / "out"
        assert main(["benchmark", "--config", cfg, "--out-dir", str(out)]) == 0
        meta = json.loads((out / "benchmark_meta.json").read_text())
        diagnostics = meta["diagnostics"]
        assert set(diagnostics) == {
            f"{method}@{snr}dB" for method in ("proposed", "music_ls") for snr in ("0.0", "20.0")
        }
        for key, cell in diagnostics.items():
            assert cell["failures"] == {"ValueError": 0, "LinAlgError": 0}
            if key.startswith("music_ls"):
                assert set(cell) == {"failures"}
                continue
            assert sum(cell["stop_reasons"].values()) == 3
            for name in ("iterations_used", "line_search_evaluations"):
                spread = cell[name]
                assert set(spread) == {"p50", "p90", "max"}
                assert spread["p50"] <= spread["p90"] <= spread["max"]
        header = (out / "benchmark.csv").read_text().splitlines()[0]
        assert header == "method,snr_db,mse_aoa_rad2,mse_path_gain,mse_path_angle_rad2,trials,failures"

    def test_benchmark_json_format(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _scenario_payload())
        out = tmp_path / "out"
        rc = main(
            ["benchmark", "--config", cfg, "--out-dir", str(out), "--format", "json"]
        )
        assert rc == 0
        rows = json.loads((out / "benchmark.json").read_text())["rows"]
        assert [r["method"] for r in rows] == ["proposed", "music_ls"]
        assert not (out / "benchmark.csv").exists()

    def test_seed_override_changes_draws(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _scenario_payload(aoas_deg="random-in-sector"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out-dir", str(out_a)])
        main(["simulate", "--config", cfg, "--out-dir", str(out_b), "--seed", "99"])
        a = json.loads((out_a / "observations.json").read_text())
        b = json.loads((out_b / "observations.json").read_text())
        assert a["observations"][0]["true_aoas_deg"] != b["observations"][0]["true_aoas_deg"]

    def test_landscape_exports_alias_table(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "array": {"n_antennas": 32, "spacing_ratio": 2.0},
                "true_angle_deg": 11.0,
                "scan_step_deg": 0.05,
            },
        )
        out = tmp_path / "land"
        assert main(["landscape", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "optima.csv").read_text().splitlines()
        assert lines[0] == "l,sin_alias,angle_deg"
        assert len(lines) == 5
        sines = sorted(float(l.split(",")[1]) for l in lines[1:])
        assert [round(s, 4) for s in sines] == [-0.8092, -0.3092, 0.1908, 0.6908]
        assert (out / "stationary.csv").is_file()
        assert (out / "landscape_meta.json").is_file()

    @pytest.mark.parametrize(
        "command, extra, written",
        [
            ("simulate", [], ["observations.json"]),
            ("estimate", [], ["estimate.json"]),
            ("benchmark", ["--format", "csv"], ["benchmark.csv"]),
            ("benchmark", ["--format", "json"], ["benchmark.json"]),
            # run_landscape_export's keys in sorted order: meta, optima, stationary, surface
            (
                "landscape",
                [],
                ["landscape_meta.json", "optima.csv", "stationary.csv", "surface.csv"],
            ),
        ],
        ids=["simulate", "estimate", "benchmark_csv", "benchmark_json", "landscape"],
    )
    def test_command_writes_exactly_its_files_and_one_wrote_line_each(
        self, tmp_path, capsys, command, extra, written
    ):
        if command == "landscape":
            config = {
                "array": {"n_antennas": 32, "spacing_ratio": 0.5},
                "true_angle_deg": 11.0,
                "surface": _AOA_AXIS,
            }
            files = written
        else:
            config = _scenario_payload(n_trials=1)
            stem = written[0].rsplit(".", 1)[0]
            files = [*written, f"{stem}_meta.json"]
        cfg = _write_config(tmp_path, config)
        root = tmp_path / "nested"
        out = root / "deeper" / "out"
        assert main([command, "--config", cfg, "--out-dir", str(out), *extra]) == 0
        assert {p for p in root.rglob("*") if p.is_file()} == {out / name for name in files}
        assert capsys.readouterr().out == "".join(f"wrote {out / name}\n" for name in written)
