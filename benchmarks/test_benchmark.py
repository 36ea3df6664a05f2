"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import aoavi.harness as H
import workloads as W
from crb import deterministic_crb
from spans import TRACE_POINTS, Tracer

ROOT = Path(__file__).resolve().parent.parent


def _scenarios(workload: W.Workload, trials: int, seed: int = 7) -> list:
    return [H.scenario_from_dict(dict(cfg, n_trials=trials)) for cfg in workload.scenario_configs(seed)]


def _rows(blocks: list, snr_db: float) -> list:
    """MetricRows of one (config, SNR) cell, aggregated as run_benchmark does."""
    rows = []
    for method, attr in ((H.PROPOSED, "proposed_errs"), (H.MUSIC_LS, "music_errs")):
        errs = [getattr(b, attr) for b in blocks if getattr(b, attr) is not None]
        rows.append(
            H.MetricRow(
                method=method,
                snr_db=snr_db,
                mse_aoa=float(np.mean([e[0] for e in errs])) if errs else math.nan,
                mse_path_gain=float(np.mean([e[1] for e in errs])) if errs else math.nan,
                mse_path_angle=float(np.mean([e[2] for e in errs])) if errs else math.nan,
                trials=len(blocks),
                failures=len(blocks) - len(errs),
                runtime_ms=0.0,
            )
        )
    return rows


@pytest.mark.parametrize("name, trials", [("sweep_k1", 3), ("sweep_multiuser", 2), ("alias_grid", 2)])
def test_block_loop_reproduces_run_benchmark_rows(name, trials):
    # the suppression radius stays at its default 0 for every workload, so
    # the multi-user initializer defect stays visible in the baseline
    scenarios = _scenarios(W.WORKLOADS[name], trials)
    assert all(sc.suppression_radius == 0.0 for sc in scenarios)
    grids = [H.sector_grid(sc.sector, sc.grid_step) for sc in scenarios]
    blocks = [W.run_block(scenarios[ci], grids[ci], si, t, cell) for ci, si, t, cell in W.block_plan(scenarios)]
    cell = 0
    for sc in scenarios:
        rows = []
        for snr in sc.snr_db_list:
            rows += _rows([b for b in blocks if b.cell == cell], float(snr))
            cell += 1
        assert H.benchmark_csv(rows) == H.benchmark_csv(H.run_benchmark(sc))


def _fisher_by_finite_differences(n, spacing, angles, gains, noise_variance, h=1e-6):
    """Fisher information of (angles, Re gains, Im gains) for the mean
    A(angles) @ gains under CN(0, noise_variance) noise, by central
    differences of the mean."""
    k, m = gains.shape

    def mean(x):
        th = x[:k]
        g = (x[k : k + k * m] + 1j * x[k + k * m :]).reshape(k, m)
        steer = np.exp(-2j * np.pi * spacing * np.arange(n)[:, None] * np.sin(th)[None, :])
        return (steer @ g).ravel()

    x0 = np.concatenate([angles, gains.real.ravel(), gains.imag.ravel()])
    jac = np.empty((n * m, x0.size), dtype=complex)
    for j in range(x0.size):
        step = np.zeros_like(x0)
        step[j] = h
        jac[:, j] = (mean(x0 + step) - mean(x0 - step)) / (2 * h)
    return (2.0 / noise_variance) * np.real(jac.conj().T @ jac)


def test_crb_matches_inverse_finite_difference_fisher_information():
    rng = np.random.default_rng(3)
    n, spacing, k, m, s2 = 6, 0.5, 2, 3, 0.3
    angles = np.array([-0.4, 0.35])
    gains = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    fisher = _fisher_by_finite_differences(n, spacing, angles, gains, s2)
    expected = np.linalg.inv(fisher)[:k, :k]
    np.testing.assert_allclose(deterministic_crb(n, spacing, angles, gains, s2), expected, rtol=1e-6)


def test_tracer_restores_originals_and_counts_match_the_result():
    import importlib

    originals = [getattr(importlib.import_module(mod), attr) for mod, attr, _ in TRACE_POINTS]
    sc = _scenarios(W.WORKLOADS["sweep_k1"], 1)[0]
    grid = H.sector_grid(sc.sector, sc.grid_step)
    plain = W.run_block(sc, grid, 2, 0, 2)

    tracer = Tracer()
    tracer.request = 0
    with tracer.patched():
        traced = W.run_block(sc, grid, 2, 0, 2)
    after = [getattr(importlib.import_module(mod), attr) for mod, attr, _ in TRACE_POINTS]
    assert all(a is b for a, b in zip(originals, after))

    assert np.array_equal(plain.proposed_angles, traced.proposed_angles)
    t = tracer.table()

    def count(name):
        return int(np.sum(t["name"] == tracer.name_id(name)))

    assert count("estimator.estimate") == 1
    # one channel update per trace entry of the estimate
    assert count("estimator.channel_update") == traced.iterations
    # every outer iteration evaluates the reconstruction at least twice
    assert count("loss.array_matrix") >= 2 * (traced.iterations - 1)
    assert np.all(t["self"] >= -1e-9)
    estimate = t["duration"][t["name"] == tracer.name_id("estimator.estimate")][0]
    assert estimate * 1e3 <= traced.proposed_ms + 1e-6


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == W.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == W.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == [w for w in W.WORKLOADS if w not in W.UNGATED]
    assert all(w["why"] == W.WORKLOADS[w["name"]].why for w in spec["workloads"])


def test_landscape_counts_match_the_recorded_values(tmp_path):
    run = W.LandscapeRun(tmp_path)
    run.export_set()
    run.export_set()
    assert run.problems == [] and run.failures == []
    assert run.roots == sum(roots for roots, _ in W.LANDSCAPE_COUNTS)
    assert run.exports == 2 * len(W.LANDSCAPE_CONFIGS)
    assert math.isfinite(run.export_s)
