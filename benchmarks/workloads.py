"""The benchmark's workloads and the measured loop that runs them.

A run of a workload, in one process with BLAS pinned to one thread:

1. set-up, timed in fresh interpreters (``setup_probe.py``): package
   import, config parsing and the first-call grid-steering cache build;
2. a closed loop over observation blocks, one at a time. Each block goes
   through the pipeline ``aoavi benchmark`` runs (synthesis, the proposed
   estimator, MUSIC+LS, scoring) with ``run_benchmark``'s per-trial
   seeding. The block set is fixed by the seed; the loop passes over it
   until the time is up, and a repeated block must reproduce its first
   result exactly;
3. between blocks, every few seconds, ``run_landscape_export`` on three
   fixed configs, so its timings sample the whole run.

Package functions are called through the names the calling module
resolves at call time (``aoavi.harness.estimate`` and so on), so that a
``spans.Tracer`` can wrap them from outside the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import aoavi.harness as H
from aoavi import preprocess

from crb import deterministic_crb
from hostspeed import HostSpeed
from spans import Tracer

clock = time.perf_counter

# the numerical failures a block may end in; anything else is a bug and
# aborts the run with its traceback
NUMERICAL = (ValueError, np.linalg.LinAlgError)

SETUP_REPS = 5
# a landscape export set runs whenever this long has passed since the last
LANDSCAPE_INTERVAL_S = 3.0
LANDSCAPE_MIN_SETS = 3


def _los_prior(k: int) -> dict:
    # line-of-sight gains: mean 1, covariance 0.25 I, as in acceptance 06-08
    return {
        "mean": [[1.0, 0.0]] * k,
        "covariance": [
            [[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(k)] for i in range(k)
        ],
    }


def _sweep_config(k: int) -> dict:
    return {
        "array": {"n_antennas": 32, "spacing_ratio": 0.5},
        "prior": _los_prior(k),
        "aoas_deg": "random-in-sector",
        "n_snapshots": 40,
        "snr_db_list": [0.0, 10.0, 20.0],
        "sector": {"center_deg": 0.0, "width_deg": 120.0},
        "grid_step_deg": 0.5,
    }


def _alias_config(center_deg: float, width_deg: float) -> dict:
    return {
        "array": {"n_antennas": 32, "spacing_ratio": 2.0},
        "prior": _los_prior(1),
        "aoas_deg": [11.0],
        "n_snapshots": 40,
        "snr_db_list": [20.0],
        "sector": {"center_deg": center_deg, "width_deg": width_deg},
        "grid_step_deg": 0.01,
    }


# Fixed landscape exports: the README example (aliases at 2x spacing, a
# 3601-point 1-D surface), a large array at half-wavelength spacing, and a
# 2-D surface that is evaluated point by point through the loss.
LANDSCAPE_CONFIGS = (
    {
        "array": {"n_antennas": 32, "spacing_ratio": 2.0},
        "true_angle_deg": 11.0,
        "scan_step_deg": 0.01,
        "surface": {"target": "aoa", "start_deg": -90, "stop_deg": 90, "num": 3601},
    },
    {
        "array": {"n_antennas": 256, "spacing_ratio": 0.5},
        "true_angle_deg": 11.0,
        "scan_step_deg": 0.01,
    },
    {
        "array": {"n_antennas": 32, "spacing_ratio": 0.5},
        "true_angle_deg": 11.0,
        "scan_step_deg": 0.01,
        "surface": [
            {"target": "aoa", "start_deg": -90, "stop_deg": 90, "num": 121},
            {"target": "path_angle", "start_rad": -3.14159, "stop_rad": 3.14159, "num": 61},
        ],
    },
)
# (stationary roots, global optima) each landscape config must reproduce
LANDSCAPE_COUNTS = ((295, 4), (599, 1), (74, 1))


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


# ---------------------------------------------------------------------------
# workloads


def _gate_acceptance_06(run: "SweepRun") -> list[str]:
    """Acceptance 06 on the first pass: 20 dB median AoA error below 0.1 deg,
    and at 0 dB a proposed MSE no higher than MUSIC+LS's (K = 1)."""
    fp = run.first_pass
    found = []
    err20 = [math.degrees(math.sqrt(b.proposed_errs[0])) for b in fp if b.snr_db == 20.0 and b.proposed_errs]
    median20 = float(np.median(err20)) if err20 else math.nan
    if not median20 < 0.1:
        found.append(f"20 dB median AoA error {median20:.4g} deg, need < 0.1")
    mse_proposed = _mean([b.proposed_errs[0] for b in fp if b.snr_db == 0.0 and b.proposed_errs])
    mse_music = _mean([b.music_errs[0] for b in fp if b.snr_db == 0.0 and b.music_errs])
    if not mse_proposed <= mse_music:
        found.append(f"0 dB AoA MSE {mse_proposed:.3e} above MUSIC+LS's {mse_music:.3e}")
    return found


def _gate_acceptance_08(run: "SweepRun") -> list[str]:
    """Acceptance 08: no estimate in the restricted sector lands on an alias."""
    hits = run.alias_hits()[0]
    return [f"{hits} alias hits in the restricted sector, need 0"] if hits else []


@dataclass(frozen=True)
class Workload:
    why: str
    configs: tuple[dict, ...]
    # trials per (config, SNR) cell; fixes the block set of one pass
    trials: int
    gates: Optional[Callable[["SweepRun"], list[str]]] = None

    def scenario_configs(self, seed: int) -> list[dict]:
        """The CLI config of every scenario of a run with this seed; all
        configs share the seed, so they see the same gains and noise."""
        return [dict(cfg, master_seed=seed, n_trials=self.trials) for cfg in self.configs]


WORKLOADS = {
    "sweep_k1": Workload(
        why="K=1 headline sweep at 0/10/20 dB on a 241-point grid: the estimator's outer loop is nearly all the time",
        configs=(_sweep_config(1),),
        trials=40,
        gates=_gate_acceptance_06,
    ),
    "sweep_multiuser": Workload(
        why="K=2 and K=3 with default settings: K x K channel updates and the iteration-budget tail dominate",
        configs=(_sweep_config(2), _sweep_config(3)),
        trials=20,
    ),
    "alias_grid": Workload(
        why="2x spacing on 3001- and 18001-point grids (acceptance 08): pseudo-labels and MUSIC grow with the grid",
        configs=(_alias_config(15.0, 30.0), _alias_config(0.0, 180.0)),
        trials=60,
        gates=_gate_acceptance_08,
    ),
}
# Runnable but not in BENCHMARK.json, so not gated: its estimator cost is
# set by how many iteration-budget hits a seed draws. Across seeds,
# normalised blocks_per_s.proposed spread 0.11-0.13 and block_ms.proposed.p50
# 0.21-0.22 (interquartile range over median), above a third of the largest
# allowed bound, with random and with fixed user geometries alike.
UNGATED = ("sweep_multiuser",)


# ---------------------------------------------------------------------------
# one block through the pipeline


def _failure_name(exc: Exception) -> str:
    return "LinAlgError" if isinstance(exc, np.linalg.LinAlgError) else "ValueError"


def _call(fn, *args, **kwargs):
    """(result, None), or (None, failure type) for a tolerated numerical
    failure; any other exception propagates."""
    try:
        return fn(*args, **kwargs), None
    except NUMERICAL as exc:
        return None, _failure_name(exc)


def _music_ls(obs, grid, k: int):
    spectrum = H.music_estimate(obs, grid, k)
    peaks = np.asarray(spectrum.peaks, dtype=float)
    gains = H.ls_channel(obs, H.AoAVector(peaks))
    return peaks, gains, spectrum.degraded


def _draw_aoas(scenario, rng: np.random.Generator):
    """The harness's per-trial AoA draw: fixed angles, or sorted uniform
    draws inside the sector."""
    if scenario.aoas is not None:
        return scenario.aoas
    lo, hi = _sector_bounds(scenario)
    return H.AoAVector(np.sort(rng.uniform(lo, hi, size=scenario.prior.k_users)))


def _sector_bounds(scenario) -> tuple[float, float]:
    return max(scenario.sector.lo, -math.pi / 2), min(scenario.sector.hi, math.pi / 2)


def _inside(angles: np.ndarray, lo: float, hi: float) -> bool:
    return bool(np.all(np.isfinite(angles)) and np.all((angles >= lo - 1e-12) & (angles <= hi + 1e-12)))


@dataclass
class BlockOutcome:
    """One block through the pipeline. ``*_errs`` is None when that method
    failed; times are milliseconds; ``crb`` is the mean bound over users."""

    cell: int
    trial: int
    snr_db: float
    wall_ms: float
    proposed_ms: float
    music_ms: float
    proposed_angles: Optional[np.ndarray] = None
    proposed_errs: Optional[tuple] = None
    music_angles: Optional[np.ndarray] = None
    music_errs: Optional[tuple] = None
    iterations: int = 0
    converged: bool = True
    degraded: bool = False
    failures: list = field(default_factory=list)
    check_failures: list = field(default_factory=list)
    crb: float = math.nan

    @property
    def failed_ops(self) -> int:
        """Methods (of two) that failed numerically or failed a check."""
        proposed = self.proposed_errs is None or any(m.startswith("proposed") for m in self.check_failures)
        baseline = self.music_errs is None or any(not m.startswith("proposed") for m in self.check_failures)
        return int(proposed) + int(baseline)


def run_block(scenario, grid, snr_index: int, trial: int, cell: int) -> BlockOutcome:
    """Synthesize one block exactly as ``run_benchmark`` does and run both
    methods on it. Output checks and the bound are computed untimed."""
    k = scenario.prior.k_users
    t0 = clock()
    rng = H.trial_rng(scenario.master_seed, snr_index, trial)
    aoas = _draw_aoas(scenario, rng)
    channel = H.sample_channel(scenario.prior, scenario.n_snapshots, rng)
    s2 = H.snr_to_noise_variance(scenario.snr_db_list[snr_index], scenario.array, scenario.prior, aoas)
    obs = H.synthesize_observation(scenario.array, aoas, channel, s2, rng)

    t1 = clock()
    result, p_fail = _call(
        H.estimate,
        obs,
        scenario.prior,
        scenario.sector,
        grid,
        scenario.optimizer,
        suppression_radius=scenario.suppression_radius,
    )
    t2 = clock()
    p_angles = p_errs = None
    if result is not None:
        p_angles = np.array(result.state.aoa_estimate.angles)
        p_errs, p_fail = _call(H.aligned_squared_errors, aoas, channel, p_angles, result.state.channel_means)

    t3 = clock()
    music, m_fail = _call(_music_ls, obs, grid, k)
    t4 = clock()
    m_errs = None
    if music is not None:
        m_angles, m_gains, degraded = music
        m_errs, m_fail = _call(H.aligned_squared_errors, aoas, channel, m_angles, m_gains)
    t5 = clock()

    out = BlockOutcome(
        cell=cell,
        trial=trial,
        snr_db=float(scenario.snr_db_list[snr_index]),
        wall_ms=(t5 - t0) * 1e3,
        proposed_ms=(t2 - t1) * 1e3,
        music_ms=(t4 - t3) * 1e3,
        proposed_angles=p_angles,
        proposed_errs=p_errs,
        music_errs=m_errs,
    )
    if p_fail:
        out.failures.append(f"estimator.failures.{p_fail}")
    if m_fail:
        out.failures.append(f"baselines.failures.{m_fail}")
    lo, hi = _sector_bounds(scenario)
    if result is not None:
        out.iterations = result.iterations_used
        out.converged = result.converged
        if not _inside(p_angles, lo, hi):
            out.check_failures.append("proposed AoA outside its sector or not finite")
        if not np.all(np.isfinite(result.state.channel_means)):
            out.check_failures.append("proposed gains not finite")
    if music is not None:
        out.music_angles = m_angles
        out.degraded = bool(degraded)
        if not _inside(m_angles, lo, hi):
            out.check_failures.append("MUSIC AoA outside its sector or not finite")
        if not np.all(np.isfinite(m_gains)):
            out.check_failures.append("LS gains not finite")
    bound = deterministic_crb(scenario.array.n_antennas, scenario.array.spacing_ratio, aoas.angles, channel.gains, s2)
    out.crb = float(np.mean(np.diag(bound)))
    return out


def block_plan(scenarios) -> list[tuple[int, int, int, int]]:
    """(scenario index, SNR index, trial, cell) in trial-major order, so any
    prefix of the plan covers every (config, SNR) cell evenly."""
    cells = [(ci, si) for ci, sc in enumerate(scenarios) for si in range(len(sc.snr_db_list))]
    return [(ci, si, t, c) for t in range(scenarios[0].n_trials) for c, (ci, si) in enumerate(cells)]


def _config_of(scenarios, cell: int) -> int:
    for ci, sc in enumerate(scenarios):
        if cell < len(sc.snr_db_list):
            return ci
        cell -= len(sc.snr_db_list)
    raise IndexError(cell)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    scenarios: list
    grids: list
    probes: list  # one {"import_s", "parse_s", "cache_s"} per fresh interpreter

    @property
    def setup_s(self) -> float:
        return statistics.median(sum(p.values()) for p in self.probes)

    def median(self, key: str) -> float:
        return statistics.median(p[key] for p in self.probes)


def measure_setup(root: Path, workload: Workload, seed: int, host: HostSpeed) -> Setup:
    """Time a cold set-up SETUP_REPS times in fresh interpreters, then build
    the same scenarios, grids and cache in this process, untimed."""
    configs = workload.scenario_configs(seed)
    request = json.dumps({"scenarios": configs, "landscape": LANDSCAPE_CONFIGS})
    probes = []
    for _ in range(SETUP_REPS):
        host.sample()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py"))],
            input=request,
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    scenarios = [H.scenario_from_dict(cfg) for cfg in configs]
    grids = [H.sector_grid(sc.sector, sc.grid_step) for sc in scenarios]
    for sc, grid in zip(scenarios, grids):
        preprocess.grid_steering(sc.array, grid)
    return Setup(scenarios, grids, probes)


# ---------------------------------------------------------------------------
# landscape exports


def _surface_points(cfg: dict) -> int:
    if "surface" not in cfg:
        return 0
    axes = cfg["surface"] if isinstance(cfg["surface"], list) else [cfg["surface"]]
    return math.prod(ax["num"] for ax in axes)


class LandscapeRun:
    """Export sets of LANDSCAPE_CONFIGS. After each set: root and optima
    counts as recorded, CSVs byte-identical to the first set's."""

    def __init__(self, out_dir: Path, tracer: Optional[Tracer] = None):
        self.out_dir = out_dir
        self.tracer = tracer
        self.configs = [H.landscape_config_from_dict(c) for c in LANDSCAPE_CONFIGS]
        self.surface_points = sum(_surface_points(c) for c in LANDSCAPE_CONFIGS)
        self.set_s: list[float] = []
        self.exports = 0
        self.roots = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self._digests: dict[int, str] = {}

    @property
    def export_s(self) -> float:
        """Median over the timed sets of the mean time of one export."""
        return statistics.median(self.set_s) / len(self.configs)

    def export_set(self, timed: bool = True) -> None:
        traced = self.tracer is not None and timed
        outputs = []
        t0 = clock()
        with self.tracer.patched() if traced else contextlib.nullcontext():
            for i, (cfg, raw) in enumerate(zip(self.configs, LANDSCAPE_CONFIGS)):
                if traced:
                    self.tracer.request = -1 - (len(self.set_s) * len(self.configs) + i)
                outputs.append(_call(H.run_landscape_export, cfg, self.out_dir / f"config{i}", raw))
        elapsed = clock() - t0
        if traced:
            self.tracer.request = -1
        if timed:
            self.set_s.append(elapsed)
        self.exports += len(outputs)
        self.roots = 0
        for i, (paths, fail) in enumerate(outputs):
            if fail:
                self.failures.append(f"landscape.failures.{fail}")
                continue
            roots = len(paths["stationary"].read_text().splitlines()) - 1
            optima = len(paths["optima"].read_text().splitlines()) - 1
            self.roots += roots
            if (roots, optima) != LANDSCAPE_COUNTS[i]:
                self.problems.append(
                    f"landscape config {i}: {roots} roots and {optima} optima, recorded {LANDSCAPE_COUNTS[i]}"
                )
            digest = hashlib.sha256(
                b"".join(p.read_bytes() for name, p in sorted(paths.items()) if name != "meta")
            ).hexdigest()
            if self._digests.setdefault(i, digest) != digest:
                self.problems.append(f"landscape config {i}: CSVs differ between export sets")


# ---------------------------------------------------------------------------
# the run


@dataclass
class SweepRun:
    """Block outcomes of a run. ``first_pass`` has one outcome per block of
    the plan (the traced one, in a traced run) and feeds accuracy, counts
    and gates; ``repeats`` holds (block index, outcome) of every later
    untraced execution."""

    scenarios: list
    traced: bool = False
    first_pass: list = field(default_factory=list)
    repeats: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    label_shift_deg: list = field(default_factory=list)

    def executions(self) -> list:
        return self.first_pass + [b for _, b in self.repeats]

    def block_ms(self, attr: str) -> np.ndarray:
        """Per block of the plan, the median time over its untraced
        executions, so a short slow spell of the host moves no block."""
        samples = [[] if self.traced else [getattr(b, attr)] for b in self.first_pass]
        for i, b in self.repeats:
            samples[i].append(getattr(b, attr))
        return np.array([statistics.median(s) for s in samples])

    def alias_hits(self) -> list[int]:
        """Per config: first-pass estimates within 0.05 deg of a non-true alias."""
        hits = [0] * len(self.scenarios)
        for b in self.first_pass:
            ci = _config_of(self.scenarios, b.cell)
            sc = self.scenarios[ci]
            if b.proposed_angles is None or sc.aoas is None:
                continue
            true_angle = float(sc.aoas.angles[0])
            optima = H.enumerate_global_optima(sc.array, true_angle)
            aliases = [a for a in optima.alias_angles if abs(a - true_angle) > 1e-9]
            hits[ci] += any(abs(math.degrees(e - a)) < 0.05 for e in b.proposed_angles for a in aliases)
        return hits


def _same_result(a: BlockOutcome, b: BlockOutcome) -> bool:
    def eq(x, y):
        return (x is None and y is None) or (x is not None and y is not None and np.array_equal(x, y))

    return eq(a.proposed_angles, b.proposed_angles) and eq(a.music_angles, b.music_angles)


def run_workload(
    workload: Workload,
    setup: Setup,
    seconds: float,
    out_dir: Path,
    host: HostSpeed,
    tracer: Optional[Tracer] = None,
) -> tuple[SweepRun, LandscapeRun]:
    """One untimed warm-up export set and block, then the block plan with
    landscape export sets and host-speed samples in between.

    Untraced: one full pass, then further passes until ``seconds`` have
    passed. Traced: one pass in which every block runs untraced and traced
    back to back, in alternating order, so the tracing overhead is measured
    on the same blocks under the same host load."""
    sweep = SweepRun(setup.scenarios, traced=tracer is not None)
    landscape = LandscapeRun(out_dir, tracer)
    plan = block_plan(setup.scenarios)

    def block(i: int) -> BlockOutcome:
        ci, si, t, cell = plan[i]
        return run_block(setup.scenarios[ci], setup.grids[ci], si, t, cell)

    def traced_block(i: int) -> BlockOutcome:
        tracer.request = i
        tracer.last_result.clear()
        with tracer.patched():
            outcome = block(i)
        tracer.request = -1
        labels = tracer.last_result.get("preprocess.pseudo_labels")
        if labels is not None and outcome.proposed_angles is not None:
            shift = np.abs(np.sort(outcome.proposed_angles) - np.asarray(labels.angles))
            sweep.label_shift_deg.extend(np.degrees(shift).tolist())
        return outcome

    landscape.export_set(timed=False)
    block(0)
    start = clock()
    next_set = start

    def between_blocks() -> None:
        nonlocal next_set
        host.sample_if_due()
        if clock() >= next_set:
            landscape.export_set()
            next_set = clock() + LANDSCAPE_INTERVAL_S

    for i in range(len(plan)):
        between_blocks()
        if tracer is None:
            sweep.first_pass.append(block(i))
            continue
        if i % 2:
            traced = traced_block(i)
            untraced = block(i)
        else:
            untraced = block(i)
            traced = traced_block(i)
        sweep.first_pass.append(traced)
        sweep.repeats.append((i, untraced))
    i = 0
    while tracer is None and clock() < start + seconds:
        between_blocks()
        sweep.repeats.append((i % len(plan), block(i % len(plan))))
        i += 1
    while len(landscape.set_s) < LANDSCAPE_MIN_SETS:
        landscape.export_set()

    for i, outcome in sweep.repeats:
        if not _same_result(outcome, sweep.first_pass[i]):
            sweep.problems.append(f"block {i} gave a different result when run again")
    if workload.gates is not None:
        sweep.problems.extend(workload.gates(sweep))
    return sweep, landscape


# ---------------------------------------------------------------------------
# metrics


def report_rows(run: SweepRun) -> list[tuple[int, float, str, float, float, int, int]]:
    """First-pass accuracy per (config, SNR): (config index, SNR, method,
    AoA MSE, mean bound, failures, blocks)."""
    groups: dict[tuple[int, float], list] = {}
    for b in run.first_pass:
        groups.setdefault((_config_of(run.scenarios, b.cell), b.snr_db), []).append(b)
    rows = []
    for (ci, snr), blocks in sorted(groups.items()):
        crb = _mean([b.crb for b in blocks])
        for method, attr in ((H.PROPOSED, "proposed_errs"), (H.MUSIC_LS, "music_errs")):
            errs = [getattr(b, attr)[0] for b in blocks if getattr(b, attr) is not None]
            rows.append((ci, snr, method, _mean(errs), crb, len(blocks) - len(errs), len(blocks)))
    return rows


def accuracy(run: SweepRun) -> dict[str, float]:
    """Pooled first-pass accuracy: MSEs as in benchmark.csv (sorted-angle
    alignment), the mean per-block bound, and the unconverged share."""
    fp = run.first_pass
    return {
        "mse_aoa_rad2.proposed": _mean([b.proposed_errs[0] for b in fp if b.proposed_errs]),
        "mse_aoa_rad2.music_ls": _mean([b.music_errs[0] for b in fp if b.music_errs]),
        "mse_path_gain.proposed": _mean([b.proposed_errs[1] for b in fp if b.proposed_errs]),
        "crb_aoa_rad2": _mean([b.crb for b in fp]),
        "unconverged_frac.proposed": _mean([not b.converged for b in fp if b.proposed_errs]),
    }


def attempted_ops(run: SweepRun, landscape: LandscapeRun) -> int:
    """Block executions times two methods, plus landscape exports."""
    return 2 * len(run.executions()) + landscape.exports


def failed_ops(run: SweepRun, landscape: LandscapeRun) -> int:
    """Operations that ended in a tolerated numerical failure or failed an
    output check."""
    return len(landscape.failures) + sum(b.failed_ops for b in run.executions())


def problems(run: SweepRun, landscape: LandscapeRun) -> list[str]:
    """Every failed check: gates, repeatability, landscape counts and
    per-block output checks."""
    found = run.problems + landscape.problems
    for b in run.executions():
        found.extend(f"cell {b.cell} trial {b.trial}: {msg}" for msg in b.check_failures)
    return found


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep_blocks_per_s": "blocks/s",
    "blocks_per_s.proposed": "blocks/s",
    "blocks_per_s.music_ls": "blocks/s",
    "block_ms.proposed.p50": "ms",
    "block_ms.proposed.p90": "ms",
    "block_ms.music_ls.p50": "ms",
    "block_ms.music_ls.p90": "ms",
    "landscape_export_s": "s",
}


# the reference kernel each timed metric is normalised by: the import and
# the landscape scans are loops of Python bytecode, the sweep is numpy calls
# on small arrays
_KERNEL_OF = {"setup_s": "python", "landscape_export_s": "python"}


def at_nominal_speed(metrics: dict[str, float], host: HostSpeed) -> dict[str, float]:
    """End-to-end metrics rescaled to nominal host speed (see hostspeed)."""
    out = {}
    for name, value in metrics.items():
        factor = host.factor(_KERNEL_OF.get(name, "numpy"))
        unit = END_TO_END_UNITS[name]
        out[name] = value * factor if unit == "blocks/s" else value / factor if unit in ("s", "ms") else value
    return out


def end_to_end(run: SweepRun, setup: Setup, landscape: LandscapeRun) -> dict[str, float]:
    """Raw metrics of an untraced run. A block's time is its median over
    the run's passes; throughputs are the plan's blocks over summed times."""
    wall = run.block_ms("wall_ms")
    proposed = run.block_ms("proposed_ms")
    music = run.block_ms("music_ms")
    n = len(run.first_pass)
    return {
        "setup_s": setup.setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "sweep_blocks_per_s": n / (wall.sum() / 1e3),
        "blocks_per_s.proposed": n / (proposed.sum() / 1e3),
        "blocks_per_s.music_ls": n / (music.sum() / 1e3),
        "block_ms.proposed.p50": _pct(proposed, 50),
        "block_ms.proposed.p90": _pct(proposed, 90),
        "block_ms.music_ls.p50": _pct(music, 50),
        "block_ms.music_ls.p90": _pct(music, 90),
        "landscape_export_s": landscape.export_s,
    }


PER_LAYER_UNITS = {
    "signal_model.synth_ms_per_block": "ms",
    "signal_model.array_matrix.calls_per_block": "count",
    "signal_model.array_matrix.ms_per_block": "ms",
    "preprocess.pseudo_labels.ms_per_call": "ms",
    "preprocess.grid_steering.ms_first_call": "ms",
    "preprocess.empirical_covariance.ms_per_call": "ms",
    "loss.recon_evals_per_block": "count",
    "loss.recon_evals_per_iter": "count",
    "loss.recon_evals_per_point": "count",
    "estimator.estimate.ms_per_block.p50": "ms",
    "estimator.estimate.ms_per_block.p90": "ms",
    "estimator.self_ms_per_block": "ms",
    "estimator.outer_iters_per_block.p50": "count",
    "estimator.outer_iters_per_block.p90": "count",
    "estimator.outer_iters_per_block.max": "count",
    "estimator.budget_hits": "count",
    "estimator.channel_update.calls_per_block": "count",
    "estimator.channel_update.ms_per_call": "ms",
    "estimator.grad_evals_per_block": "count",
    "estimator.linesearch_accept_ratio": "ratio",
    "estimator.label_shift_deg.p50": "deg",
    "estimator.label_shift_deg.p90": "deg",
    "estimator.failures.ValueError": "count",
    "estimator.failures.LinAlgError": "count",
    "baselines.failures.ValueError": "count",
    "baselines.failures.LinAlgError": "count",
    "baselines.music_estimate.ms_per_call.p50": "ms",
    "baselines.ls_channel.ms_per_call": "ms",
    "baselines.music_degraded_frac": "ratio",
    "harness.aligned_squared_errors.ms_per_call": "ms",
    "harness.overhead_ms_per_block": "ms",
    "landscape.stationary_points.ms": "ms",
    "landscape.stationary_points.roots": "count",
    "landscape.evaluate_surface.ms": "ms",
    "landscape.evaluate_surface.points_per_s": "points/s",
    "cli.import_s": "s",
    "trace.blocks_per_s.proposed.traced": "blocks/s",
    "trace.blocks_per_s.proposed.untraced": "blocks/s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
    "unconverged_frac.proposed": "ratio",
    "mse_aoa_rad2.proposed": "rad2",
    "mse_aoa_rad2.music_ls": "rad2",
    "mse_path_gain.proposed": "gain2",
    "crb_aoa_rad2": "rad2",
}

_STEERING_SPANS = (
    "signal_model.array_matrix",
    "loss.array_matrix",
    "estimator.array_matrix",
    "baselines.array_matrix",
)
_SYNTH_SPANS = (
    "signal_model.sample_channel",
    "signal_model.snr_to_noise_variance",
    "signal_model.synthesize_observation",
)


def per_layer(run: SweepRun, setup: Setup, landscape: LandscapeRun, tracer: Tracer) -> dict[str, float]:
    """Metrics of a traced run. Sweep spans (request >= 0) come from the
    traced pass, landscape spans (request < 0) from the timed export sets."""
    t = tracer.table()
    blocks = len(run.first_pass)
    sets = len(landscape.set_s)

    def spans(name: str, sweep: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Durations and self times (ms) of one span name."""
        if name not in tracer.names:
            return np.zeros(0), np.zeros(0)
        mask = (t["name"] == tracer.name_id(name)) & ((t["request"] >= 0) == sweep)
        return t["duration"][mask] * 1e3, t["self"][mask] * 1e3

    def count(name: str, sweep: bool = True) -> int:
        return spans(name, sweep)[0].size

    def total_ms(names, sweep: bool = True) -> float:
        return float(sum(spans(name, sweep)[0].sum() for name in names))

    def mean_ms(name: str) -> float:
        return _mean(spans(name)[0])

    ok = [b for b in run.first_pass if b.proposed_errs is not None]
    iterations = [b.iterations for b in ok]
    budgets = [run.scenarios[_config_of(run.scenarios, b.cell)].optimizer.max_outer_iterations for b in ok]
    recon = count("loss.array_matrix")
    updates = count("estimator.channel_update")
    estimate_ms, estimate_self_ms = spans("estimator.estimate")
    top_level_ms = float(t["duration"][(t["parent"] < 0) & (t["request"] >= 0)].sum()) * 1e3
    surface_ms = total_ms(["landscape.evaluate_surface"], sweep=False) / sets
    failures = Counter(name for b in run.executions() for name in b.failures)
    traced_rate = blocks / (sum(b.proposed_ms for b in run.first_pass) / 1e3)
    untraced_rate = blocks / (sum(b.proposed_ms for _, b in run.repeats) / 1e3)

    metrics = {
        "signal_model.synth_ms_per_block": total_ms(_SYNTH_SPANS) / blocks,
        "signal_model.array_matrix.calls_per_block": sum(count(n) for n in _STEERING_SPANS) / blocks,
        "signal_model.array_matrix.ms_per_block": total_ms(_STEERING_SPANS) / blocks,
        "preprocess.pseudo_labels.ms_per_call": mean_ms("preprocess.pseudo_labels"),
        "preprocess.grid_steering.ms_first_call": setup.median("cache_s") * 1e3,
        "preprocess.empirical_covariance.ms_per_call": mean_ms("preprocess.empirical_covariance"),
        "loss.recon_evals_per_block": recon / blocks,
        "loss.recon_evals_per_iter": recon / max(1, sum(iterations)),
        "loss.recon_evals_per_point": count("loss.array_matrix", sweep=False) / (landscape.surface_points * sets),
        "estimator.estimate.ms_per_block.p50": _pct(estimate_ms, 50),
        "estimator.estimate.ms_per_block.p90": _pct(estimate_ms, 90),
        "estimator.self_ms_per_block": float(estimate_self_ms.sum()) / blocks,
        "estimator.outer_iters_per_block.p50": _pct(iterations, 50),
        "estimator.outer_iters_per_block.p90": _pct(iterations, 90),
        "estimator.outer_iters_per_block.max": max(iterations, default=math.nan),
        "estimator.budget_hits": sum(not b.converged and b.iterations == cap for b, cap in zip(ok, budgets)),
        "estimator.channel_update.calls_per_block": updates / blocks,
        "estimator.channel_update.ms_per_call": mean_ms("estimator.channel_update"),
        "estimator.grad_evals_per_block": (count("estimator.array_matrix") - updates) / blocks,
        "estimator.linesearch_accept_ratio": sum(iterations) / max(1, recon),
        "estimator.label_shift_deg.p50": _pct(run.label_shift_deg, 50),
        "estimator.label_shift_deg.p90": _pct(run.label_shift_deg, 90),
        "baselines.music_estimate.ms_per_call.p50": _pct(spans("baselines.music_estimate")[0], 50),
        "baselines.ls_channel.ms_per_call": mean_ms("baselines.ls_channel"),
        "baselines.music_degraded_frac": _mean([b.degraded for b in run.first_pass if b.music_errs]),
        "harness.aligned_squared_errors.ms_per_call": mean_ms("harness.aligned_squared_errors"),
        "harness.overhead_ms_per_block": (sum(b.wall_ms for b in run.first_pass) - top_level_ms) / blocks,
        "landscape.stationary_points.ms": total_ms(["landscape.stationary_points"], sweep=False) / sets,
        "landscape.stationary_points.roots": landscape.roots,
        "landscape.evaluate_surface.ms": surface_ms,
        "landscape.evaluate_surface.points_per_s": landscape.surface_points / (surface_ms / 1e3),
        "cli.import_s": setup.median("import_s"),
        "trace.blocks_per_s.proposed.traced": traced_rate,
        "trace.blocks_per_s.proposed.untraced": untraced_rate,
        "trace.overhead_frac": untraced_rate / traced_rate - 1.0,
        "failed_frac": failed_ops(run, landscape) / attempted_ops(run, landscape),
    }
    for layer in ("estimator", "baselines"):
        for kind in ("ValueError", "LinAlgError"):
            metrics[f"{layer}.failures.{kind}"] = failures[f"{layer}.failures.{kind}"]
    metrics.update(accuracy(run))
    return {name: metrics[name] for name in PER_LAYER_UNITS}
