"""Command-line front end.

Subcommands:
    simulate   synthesize observation blocks for a scenario config
    estimate   run one estimation (first SNR, trial 0) and emit JSON
    landscape  export optima / stationary-point / surface CSVs
    benchmark  full Monte Carlo sweep, CSV or JSON rows

Exit codes: 0 success, 1 usage or config error, 2 runtime failure.

All data artifacts are deterministic functions of (config, seed); wall-clock
timings are confined to *_meta.json side-cars. Angles cross this boundary in
degrees.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .harness import (
    ConfigError,
    benchmark_csv,
    benchmark_rows_json,
    complex_to_pairs,
    landscape_config_from_dict,
    run_benchmark,
    run_landscape_export,
    run_metadata,
    scenario_from_dict,
    _estimate,
    _json_text,
    _trial_block,
)


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse's default error path calls sys.exit(2); route it to our own
    # exit-code convention instead
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="aoavi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # a landscape config has no seed, so only the scenario commands take one
    for name, takes_seed, needs_format in (
        ("simulate", True, False),
        ("estimate", True, False),
        ("landscape", False, False),
        ("benchmark", True, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        if takes_seed:
            p.add_argument("--seed", type=int, default=None, help="override master_seed")
        else:
            p.set_defaults(seed=None)
        p.add_argument("--out-dir", default=".", help="output directory")
        if needs_format:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _load_config(path_str: str) -> dict:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise ConfigError(f"config {path} is not readable JSON: {type(exc).__name__}") from exc


def _apply_seed(d: dict, seed) -> dict:
    if seed is not None and isinstance(d, dict):  # the parser rejects a non-object
        d = dict(d)
        d["master_seed"] = int(seed)
    return d


def _cmd_simulate(args, scenario):
    t0 = time.perf_counter()
    blocks = []
    for si, snr in enumerate(scenario.snr_db_list):
        for t in range(scenario.n_trials):
            aoas, _channel, obs = _trial_block(scenario, si, t)
            blocks.append(
                {
                    "snr_db": float(snr),
                    "trial": t,
                    "noise_variance": obs.noise_variance,
                    "true_aoas_deg": [math.degrees(a) for a in aoas.angles],
                    "signal": complex_to_pairs(obs.signal),
                }
            )
    text = _json_text({"observations": blocks})
    return "observations.json", text, {"simulate": (time.perf_counter() - t0) * 1e3}, None


def _cmd_estimate(args, scenario):
    t0 = time.perf_counter()
    aoas, _channel, obs = _trial_block(scenario, 0, 0)
    result = _estimate(scenario, obs)
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    means = result.state.channel_means
    est_deg = sorted(math.degrees(a) for a in result.state.aoa_estimate.angles)
    true_deg = sorted(math.degrees(a) for a in aoas.angles)
    payload = {
        "snr_db": float(scenario.snr_db_list[0]),
        "noise_variance": obs.noise_variance,
        "true_aoas_deg": true_deg,
        "estimated_aoas_deg": est_deg,
        "abs_error_deg": [abs(e - t) for e, t in zip(est_deg, true_deg)],
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "iterations_used": result.iterations_used,
        "line_search_evaluations": result.line_search_evaluations,
        "loss_trace": [
            {"kl": b.kl_term, "reconstruction": b.reconstruction_term, "total": b.total}
            for b in result.loss_trace
        ],
        "path_gains": np.abs(means).tolist(),
        "path_angles": np.angle(means).tolist(),
    }
    return "estimate.json", _json_text(payload), {"estimate": elapsed_ms}, None


def _cmd_benchmark(args, scenario):
    rows = run_benchmark(scenario)
    text = benchmark_csv(rows) if args.format == "csv" else benchmark_rows_json(rows)
    runtimes = {f"{r.method}@{r.snr_db!r}dB": r.runtime_ms for r in rows}
    diagnostics = {f"{r.method}@{r.snr_db!r}dB": r.diagnostics for r in rows}
    return f"benchmark.{args.format}", text, runtimes, diagnostics


_SCENARIO_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "benchmark": _cmd_benchmark,
}


def _run(args, config: dict) -> int:
    """Run one command on a loaded config. A scenario command only computes
    (artifact name, text, runtimes in ms, diagnostics or None); its scenario
    is parsed before --out-dir is created, so a config error leaves none."""
    if args.command == "landscape":
        paths = run_landscape_export(landscape_config_from_dict(config), Path(args.out_dir), config)
        for name in sorted(paths):
            print(f"wrote {paths[name]}")
        return 0
    scenario = scenario_from_dict(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name, text, runtimes, diagnostics = _SCENARIO_COMMANDS[args.command](args, scenario)
    path = out / name
    path.write_text(text)
    (out / f"{path.stem}_meta.json").write_text(run_metadata(config, runtimes, diagnostics))
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        config = _apply_seed(_load_config(args.config), args.seed)
        return _run(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
