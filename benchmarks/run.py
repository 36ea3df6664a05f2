"""Benchmark of the aoavi package: one workload per invocation.

    python3 benchmarks/run.py --workload sweep_k1 --seed 1 --seconds 45 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in. With ``--trace 0`` the last line of standard output is
a JSON object carrying the end-to-end metrics; with ``--trace 1`` the
package's public functions are wrapped from outside and the JSON carries
the per-layer metrics instead. Earlier lines are a readable report. Files
the run writes go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# before numpy loads: default OpenBLAS threading makes a 32x32 eigh take
# about 100x longer on a loaded 2-core machine
_BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

def _blas_threads() -> int:
    """Thread count OpenBLAS reports, or -1 when no OpenBLAS is loaded."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": _blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {var: os.environ[var] for var in _BLAS_VARS},
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aoavi" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'aoavi'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W
    from hostspeed import HostSpeed
    from spans import Tracer

    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = W.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    host = HostSpeed()
    setup = W.measure_setup(ROOT, workload, args.seed, host)
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    sweep, landscape = W.run_workload(workload, setup, args.seconds, out_dir / "landscape", host, tracer)
    elapsed = time.perf_counter() - start

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(sweep.first_pass)} blocks per pass, {len(sweep.executions())} block runs, "
        f"{landscape.exports} landscape exports in {elapsed:.1f} s; "
        f"set-up {W.SETUP_REPS} times in fresh interpreters; host speed factors "
        f"{host.factor('numpy'):.4f} (numpy) and {host.factor('python'):.4f} (python) "
        f"over {len(host.samples['numpy'])} kernel samples"
    )
    for ci, snr, method, mse, crb, failures, blocks in W.report_rows(sweep):
        sc = sweep.scenarios[ci]
        print(
            f"  K={sc.prior.k_users} sector {math.degrees(sc.sector.width):.0f} deg {snr:5.1f} dB "
            f"{method:8s}: mse_aoa {mse:.4g} rad2 (crb {crb:.4g}), failures {failures}/{blocks}"
        )
    if any(sc.array.spacing_ratio > 0.5 for sc in sweep.scenarios):
        print(f"  alias hits per config: {sweep.alias_hits()}")

    attempted = W.attempted_ops(sweep, landscape)
    failed = W.failed_ops(sweep, landscape)
    found = W.problems(sweep, landscape)
    for msg in found[:20]:
        print(f"CHECK FAILED: {msg}")

    report = dict(W.accuracy(sweep))
    report["failed_frac"] = failed / attempted
    for name, value in report.items():
        print(f"  {name} = {_fmt(value)}")
    if tracer is None:
        raw = W.end_to_end(sweep, setup, landscape)
        metrics = W.at_nominal_speed(raw, host)
        units = W.END_TO_END_UNITS
        for name, value in metrics.items():
            print(f"{name} = {_fmt(value)} {units[name]} (raw {_fmt(raw[name])})")
    else:
        metrics = W.per_layer(sweep, setup, landscape, tracer)
        units = W.PER_LAYER_UNITS
        tracer.save(out_dir / f"spans_seed{args.seed}.npz")
        for name, value in metrics.items():
            print(f"{name} = {_fmt(value)} {units[name]}")

    correct = not found
    out = {}
    for name, value in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            correct = False
            print(f"CHECK FAILED: metric {name} is not finite")
            value = None
        out[name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
