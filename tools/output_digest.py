"""Print SHA-256 digests of the benchmark workloads' deterministic outputs.

Two revisions give byte-identical outputs when every printed digest
matches. Run from the repository root:

    python3 tools/output_digest.py

It prints, in order:

- after each workload of ``benchmarks/workloads.py`` (``sweep_k1``,
  ``alias_grid``, ``sweep_multiuser``), the running digest of
  ``benchmark_csv(run_benchmark(scenario))`` followed by the JSON list of
  its rows' diagnostics, over the workload's scenario configs at seeds
  301-303; then the digest of that workload's ``benchmark_csv`` text
  alone, which a change that moves only the diagnostics (say, a count of
  skipped work) leaves as it was; then one line read from the same rows,
  so that a change that alters the digests on purpose shows by how much:
  the proposed ``mse_aoa`` of each (seed, config, SNR) cell, the proposed
  trials' stop reasons totalled in ``STOP_REASONS`` order, and the medians
  over those cells of the per-cell p50 iterations and trial sums; then
  the total outer iterations and line-search trial sums of the workload's
  estimates at seed 301 and over seeds 301-303, exact counts of the work
  that a change which only skips work lowers; then one digest of the
  workload's MUSIC+LS results at seed 301 (each spectrum's peak angles and
  ``degraded`` flag, then its least-squares gains), with their count;
- one digest of the final state, loss trace, stop reason and trial count
  of every block estimated at seed 301;
- one digest of each optima, stationary and surface CSV of the
  ``LANDSCAPE_CONFIGS`` exports (``landscape config 2 surface: ...``), so
  that a change that moves one file shows which, each config's digests
  followed by its stationary-root and optima counts (the data rows of its
  two CSVs, the pair ``LANDSCAPE_COUNTS`` records), then one digest of all
  of them in that order;
- one digest of each CLI data artifact that ``aoavi simulate``,
  ``aoavi estimate`` and ``aoavi benchmark --format json`` write for the
  ``sweep_k1`` config at seed 301 with 2 trials (``observations.json``,
  ``estimate.json``, ``benchmark.json``); the ``*_meta.json`` side-cars
  hold wall-clock timings and are left out.

The workload configs are read, not modified. BLAS is pinned to one thread,
as in ``benchmarks/run.py``.

``tools/output_digest.txt`` holds the expected output, which
``tests/test_output_digest.py`` compares byte for byte. A change that moves
an output regenerates it with

    python3 tools/output_digest.py > tools/output_digest.txt

and lists the moved lines in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import aoavi.harness as H  # noqa: E402
from aoavi.cli import main as cli_main  # noqa: E402
from workloads import LANDSCAPE_CONFIGS, WORKLOADS  # noqa: E402

SEEDS = (301, 302, 303)
WORKLOAD_ORDER = ("sweep_k1", "alias_grid", "sweep_multiuser")
# (subcommand, extra arguments, data artifact) of the CLI digests
CLI_RUNS = (
    ("simulate", [], "observations.json"),
    ("estimate", [], "estimate.json"),
    ("benchmark", ["--format", "json"], "benchmark.json"),
)


def _result_bytes(result) -> bytes:
    """The estimate's final state, loss trace, stop reason and trial count."""
    state = result.state
    parts = [
        state.aoa_estimate.angles.tobytes(),
        np.ascontiguousarray(state.channel_means).tobytes(),
        np.ascontiguousarray(state.channel_covariance).tobytes(),
        repr([(b.kl_term, b.reconstruction_term) for b in result.loss_trace]).encode(),
        f"{result.stop_reason},{result.line_search_evaluations}".encode(),
    ]
    return b"".join(parts)


def _music_bytes(spectrum) -> bytes:
    """The MUSIC spectrum's peak angles and degraded flag."""
    return np.asarray(spectrum.peaks, dtype=float).tobytes() + bytes([spectrum.degraded])


def _summary(rows) -> str:
    """The proposed rows' per-cell AoA MSEs, stop-reason totals and the
    medians of their per-cell p50 iterations and trial sums."""
    proposed = [r for r in rows if r.method == H.PROPOSED]
    mse = " ".join(f"{r.mse_aoa:.4g}" for r in proposed)
    stops = "/".join(
        str(sum(r.diagnostics["stop_reasons"][reason] for r in proposed))
        for reason in H.STOP_REASONS
    )
    iters = np.median([r.diagnostics["iterations_used"]["p50"] for r in proposed])
    trials = np.median([r.diagnostics["line_search_evaluations"]["p50"] for r in proposed])
    return (
        f"  mse_aoa.proposed per cell: {mse}; stop reasons {'/'.join(H.STOP_REASONS)}"
        f" {stops};"
        f" median p50 iterations {iters:g}; median p50 trial sums {trials:g}"
    )


def _cli_digests() -> None:
    """Run each CLI subcommand on the sweep_k1 config at seed 301 with 2
    trials, through cli.main into a temporary directory, and print the
    digest of its data artifact."""
    config = dict(WORKLOADS["sweep_k1"].scenario_configs(SEEDS[0])[0], n_trials=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        for command, extra, artifact in CLI_RUNS:
            out = Path(tmp) / command
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main([command, "--config", str(path), "--out-dir", str(out), *extra])
            if rc != 0:
                raise SystemExit(f"aoavi {command} exited with {rc}")
            data = (out / artifact).read_bytes()
            print(f"cli {command} {artifact}: {hashlib.sha256(data).hexdigest()}")


def main() -> None:
    blocks = hashlib.sha256()
    n_blocks = 0
    record = False
    work = np.zeros(2, dtype=int)  # outer iterations, trial sums
    estimate = H.estimate

    def recording_estimate(*args, **kwargs):
        nonlocal n_blocks
        result = estimate(*args, **kwargs)
        work[:] += (result.iterations_used, result.line_search_evaluations)
        if record:
            blocks.update(_result_bytes(result))
            n_blocks += 1
        return result

    music_estimate, ls_channel = H.music_estimate, H.ls_channel

    def recording_music_estimate(*args, **kwargs):
        nonlocal n_music
        spectrum = music_estimate(*args, **kwargs)
        if record:
            music.update(_music_bytes(spectrum))
            n_music += 1
        return spectrum

    def recording_ls_channel(*args, **kwargs):
        gains = ls_channel(*args, **kwargs)
        if record:
            music.update(np.ascontiguousarray(gains).tobytes())
        return gains

    # harness resolves these names at call time
    H.estimate = recording_estimate
    H.music_estimate = recording_music_estimate
    H.ls_channel = recording_ls_channel

    running = hashlib.sha256()
    for name in WORKLOAD_ORDER:
        workload_rows = []
        csv_only = hashlib.sha256()
        music = hashlib.sha256()
        n_music = 0
        work[:] = 0
        for seed in SEEDS:
            record = seed == SEEDS[0]
            for cfg in WORKLOADS[name].scenario_configs(seed):
                rows = H.run_benchmark(H.scenario_from_dict(cfg))
                csv = H.benchmark_csv(rows)
                diagnostics = json.dumps([row.diagnostics for row in rows], sort_keys=True)
                running.update((csv + diagnostics).encode())
                csv_only.update(csv.encode())
                workload_rows += rows
            if record:
                first_seed_work = work.copy()
        print(f"benchmark {name}: {running.hexdigest()}")
        print(f"  {name} CSVs alone: {csv_only.hexdigest()}")
        print(_summary(workload_rows))
        print(
            f"  {name} outer iterations/trial sums: seed {SEEDS[0]}"
            f" {first_seed_work[0]}/{first_seed_work[1]};"
            f" seeds {SEEDS[0]}-{SEEDS[-1]} {work[0]}/{work[1]}"
        )
        print(f"  {name} music_ls results at seed {SEEDS[0]} ({n_music}): {music.hexdigest()}")
    print(f"blocks at seed {SEEDS[0]} ({n_blocks}): {blocks.hexdigest()}")

    landscape = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, raw in enumerate(LANDSCAPE_CONFIGS):
            cfg = H.landscape_config_from_dict(raw)
            paths = H.run_landscape_export(cfg, Path(tmp) / str(i), raw)
            for key in ("optima", "stationary", "surface"):
                if key in paths:
                    data = paths[key].read_bytes()
                    print(f"landscape config {i} {key}: {hashlib.sha256(data).hexdigest()}")
                    landscape.update(data)
            roots, optima = (
                len(paths[key].read_text().splitlines()) - 1 for key in ("stationary", "optima")
            )
            print(f"landscape config {i} counts: {roots} stationary roots, {optima} optima")
    print(f"landscape CSVs: {landscape.hexdigest()}")
    _cli_digests()


if __name__ == "__main__":
    main()
