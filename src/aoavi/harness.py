"""Experiment orchestration: scenario configs, seeded Monte Carlo sweeps,
error metrics, and machine-readable exports.

Determinism contract: every CSV/JSON data artifact is a pure function of
(config, master seed, package version). Wall-clock timings never enter the
data files; they go to the side-car metadata JSON. Each trial draws from an
independent generator seeded by (master_seed, snr_index, trial_index), so
execution order and parallelism cannot change results.

Angles are radians inside the package and degrees in every config file and
exported artifact.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .baselines import ls_channel, music_estimate
from .estimator import STOP_REASONS, OptimizerConfig, estimate
from .landscape import (
    AxisSpec,
    LossSurface,
    _check_axes,
    _check_scan_step,
    _check_true_angle,
    enumerate_global_optima,
    evaluate_surface,
    stationary_points,
)
from .preprocess import _MAX_GRID_POINTS, AngleGrid, Sector, sector_grid
from .signal_model import (
    AoAVector,
    ArrayConfig,
    ChannelPrior,
    ChannelRealization,
    sample_channel,
    snr_to_noise_variance,
    synthesize_observation,
    _snr_ratio,
)

# the numerical failures a trial may raise; anything else is a bug
_NUMERICAL_FAILURES = (ValueError, np.linalg.LinAlgError)

PROPOSED = "proposed"
MUSIC_LS = "music_ls"

_BENCHMARK_COLUMNS = (
    "method", "snr_db", "mse_aoa_rad2", "mse_path_gain", "mse_path_angle_rad2", "trials", "failures"
)
BENCHMARK_CSV_HEADER = ",".join(_BENCHMARK_COLUMNS)
OPTIMA_CSV_HEADER = "l,sin_alias,angle_deg"
STATIONARY_CSV_HEADER = "angle_deg,residual"

SNR_DEFINITION = (
    "snr_db = 10*log10(E||A h||^2 / (N * sigma^2)); the expected clean-signal "
    "power per antenna over the noise power per antenna, with the expectation "
    "taken over the channel prior."
)


class ConfigError(ValueError):
    """Configuration problem: missing field, wrong type, bad value."""


@dataclass(frozen=True)
class Scenario:
    """One benchmark setup. aoas=None draws user angles uniformly in the
    sector independently per trial (sorted ascending). suppression_radius
    (radians) is the minimum separation between pseudo-label peaks; the
    default 0 picks the K largest distinct local maxima. grid, the
    sector's grid at grid_step, is built once on construction."""

    array: ArrayConfig
    aoas: Optional[AoAVector]
    prior: ChannelPrior
    n_snapshots: int
    snr_db_list: tuple[float, ...]
    n_trials: int
    master_seed: int
    sector: Sector
    grid_step: float
    optimizer: OptimizerConfig
    suppression_radius: float = 0.0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.master_seed < 0:  # SeedSequence would reject it at the first draw
            raise ValueError("master_seed must be non-negative")
        if len(self.snr_db_list) == 0:
            raise ValueError("snr_db_list must be nonempty")
        for snr in self.snr_db_list:
            _snr_ratio(snr)  # a bad SNR fails here, not in a trial draw
        # compared by value, so 0.0 and -0.0 are one SNR; the metadata is keyed by SNR
        if len(set(self.snr_db_list)) < len(self.snr_db_list):
            raise ValueError("snr_db_list must not repeat an SNR")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be at least 1")
        # AngleGrid rejects a step that does not fit the sector; the N x G
        # grid scan and the N x M block share its resource guard
        for name, size in (
            ("the grid points of sector and grid_step_deg", self.grid.n_points),
            ("n_snapshots", self.n_snapshots),
        ):
            if self.array.n_antennas * size > _MAX_GRID_POINTS:
                raise ValueError(f"array.n_antennas x {name} exceeds the 1e7-entry resource guard")
        if not self.suppression_radius >= 0:  # NaN fails too
            raise ValueError("suppression_radius must be non-negative")
        if self.aoas is not None and self.aoas.k_users != self.prior.k_users:
            raise ValueError("aoas and prior must agree on the user count")

    @cached_property
    def grid(self) -> AngleGrid:
        return sector_grid(self.sector, self.grid_step)


@dataclass(frozen=True)
class MetricRow:
    """Aggregated per-(method, SNR) errors. MSE fields are NaN when every
    trial of the method failed; failures counts excluded trials.
    diagnostics (rows of run_benchmark only) counts the failures by
    exception type and, for the proposed method, summarizes how the
    estimator stopped; like runtime_ms it goes to the metadata side-car,
    never into the data files."""

    method: str
    snr_db: float
    mse_aoa: float
    mse_path_gain: float
    mse_path_angle: float
    trials: int
    failures: int
    runtime_ms: float
    diagnostics: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        for v in (self.mse_aoa, self.mse_path_gain, self.mse_path_angle):
            if not (math.isnan(v) or v >= 0):
                raise ValueError("mse values must be non-negative")
        if not 0 <= self.failures <= self.trials:
            raise ValueError("failures must lie in [0, trials]")


def wrap_angle(delta):
    """Shortest-arc representative of an angle difference, in (-pi, pi]."""
    return -((-np.asarray(delta) + np.pi) % (2.0 * np.pi) - np.pi)


def trial_rng(master_seed: int, snr_index: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream; the documented seeding contract."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(snr_index, trial_index))
    return np.random.default_rng(seq)


def aligned_squared_errors(
    true_aoas: AoAVector,
    true_channel: ChannelRealization,
    est_angles: np.ndarray,
    est_gains: np.ndarray,
) -> tuple[float, float, float]:
    """Per-trial mean squared errors after sorted-angle user alignment.

    Users on both sides are ordered by ascending angle and paired by rank;
    the same permutation is applied to the gain rows, and both sides' polar
    forms are np.abs and np.angle of them. Path-angle errors use wrapped
    differences. An estimate with another user count or gain shape than
    the truth is a ValueError.
    """
    est_angles = np.asarray(est_angles, dtype=float)
    est_gains = np.asarray(est_gains, dtype=complex)
    if est_angles.shape != (true_aoas.k_users,) or est_gains.shape != true_channel.gains.shape:
        raise ValueError(
            f"estimated angles {est_angles.shape} and gains {est_gains.shape} do not match"
            f" k_users={true_aoas.k_users} and gains {true_channel.gains.shape}"
        )
    t_order = np.argsort(true_aoas.angles, kind="stable")
    e_order = np.argsort(est_angles, kind="stable")
    t_ang = np.asarray(true_aoas.angles)[t_order]
    e_ang = est_angles[e_order]
    mse_aoa = float(np.mean((e_ang - t_ang) ** 2))

    g_hat = est_gains[e_order, :]
    g = true_channel.gains[t_order, :]
    mse_gain = float(np.mean((np.abs(g_hat) - np.abs(g)) ** 2))
    mse_angle = float(np.mean(wrap_angle(np.angle(g_hat) - np.angle(g)) ** 2))
    return mse_aoa, mse_gain, mse_angle


def _percentiles(values: list) -> Optional[dict]:
    if not values:
        return None
    return {
        "p50": float(np.percentile(values, 50)),
        "p90": float(np.percentile(values, 90)),
        "max": int(max(values)),
    }


def _failure_name(exc: Exception) -> str:
    # LinAlgError subclasses ValueError, so it is tested first
    return "LinAlgError" if isinstance(exc, np.linalg.LinAlgError) else "ValueError"


def _estimator_diagnostics(runs: Sequence[tuple[str, int, int]]) -> dict:
    """Stop-reason counts and the p50/p90/max of iterations_used and
    line_search_evaluations over (stop_reason, iterations_used,
    line_search_evaluations) triples."""
    return {
        "stop_reasons": {reason: sum(r[0] == reason for r in runs) for reason in STOP_REASONS},
        "iterations_used": _percentiles([r[1] for r in runs]),
        "line_search_evaluations": _percentiles([r[2] for r in runs]),
    }


def _draw_aoas(scenario: Scenario, rng: np.random.Generator) -> AoAVector:
    if scenario.aoas is not None:
        return scenario.aoas
    sector = scenario.sector
    draw = np.sort(rng.uniform(sector.lo, sector.hi, size=scenario.prior.k_users))
    return AoAVector(draw)


def _trial_block(scenario: Scenario, snr_index: int, trial_index: int):
    """The seeded draw of one trial, in the order the seeding contract fixes:
    true AoAs, channel and the observation block, which holds sigma^2."""
    rng = trial_rng(scenario.master_seed, snr_index, trial_index)
    aoas = _draw_aoas(scenario, rng)
    channel = sample_channel(scenario.prior, scenario.n_snapshots, rng)
    s2 = snr_to_noise_variance(
        scenario.snr_db_list[snr_index], scenario.array, scenario.prior, aoas
    )
    return aoas, channel, synthesize_observation(scenario.array, aoas, channel, s2, rng)


def _estimate(scenario: Scenario, obs):
    """The variational estimate of one block under the scenario's settings."""
    return estimate(
        obs, scenario.prior, scenario.sector, scenario.grid, scenario.optimizer,
        suppression_radius=scenario.suppression_radius,
    )


def _run_proposed(scenario: Scenario, obs):
    """The variational estimate's angles, gains and stop diagnostics, a
    (stop_reason, iterations_used, line_search_evaluations) triple."""
    result = _estimate(scenario, obs)
    run = (result.stop_reason, result.iterations_used, result.line_search_evaluations)
    return result.state.aoa_estimate.angles, result.state.channel_means, run


def _run_music_ls(scenario: Scenario, obs):
    """MUSIC peaks plus least-squares gains; no stop diagnostics."""
    spectrum = music_estimate(obs, scenario.grid, scenario.prior.k_users)
    peak_angles = np.asarray(spectrum.peaks, dtype=float)
    return peak_angles, ls_channel(obs, AoAVector(peak_angles)), None


_METHODS = ((PROPOSED, _run_proposed), (MUSIC_LS, _run_music_ls))


def run_benchmark(scenario: Scenario) -> list[MetricRow]:
    """Full Monte Carlo sweep: for every SNR and trial, synthesize one
    observation block and run both methods on it. Per-trial numerical
    failures (ValueError, LinAlgError) are counted and excluded from the
    means; any other exception propagates, such as the AssertionError of
    a broken EstimationResult contract. A method's runtime covers its
    scoring. Output order: SNRs as listed, proposed before the classical
    baseline. Every row's diagnostics counts its failures by type; each
    proposed row also carries the stop diagnostics of its scored trials."""
    rows: list[MetricRow] = []
    for si, snr in enumerate(scenario.snr_db_list):
        acc = {
            name: {
                "errs": [],
                "runs": [],
                "failures": {cls.__name__: 0 for cls in _NUMERICAL_FAILURES},
                "ms": 0.0,
            }
            for name, _ in _METHODS
        }
        for t in range(scenario.n_trials):
            aoas, channel, obs = _trial_block(scenario, si, t)
            for name, method in _METHODS:
                a = acc[name]
                t0 = time.perf_counter()
                try:
                    angles, gains, run = method(scenario, obs)
                    errs = aligned_squared_errors(aoas, channel, angles, gains)
                except _NUMERICAL_FAILURES as exc:
                    a["failures"][_failure_name(exc)] += 1
                else:
                    a["errs"].append(errs)
                    a["runs"].append(run)
                a["ms"] += (time.perf_counter() - t0) * 1e3

        for name, _ in _METHODS:
            a = acc[name]
            diagnostics = {"failures": a["failures"]}
            if name == PROPOSED:
                diagnostics.update(_estimator_diagnostics(a["runs"]))
            mse = [float(np.mean(col)) for col in zip(*a["errs"])] or [math.nan] * 3
            rows.append(
                MetricRow(
                    method=name,
                    snr_db=float(snr),
                    mse_aoa=mse[0],
                    mse_path_gain=mse[1],
                    mse_path_angle=mse[2],
                    trials=scenario.n_trials,
                    failures=sum(a["failures"].values()),
                    runtime_ms=a["ms"],
                    diagnostics=diagnostics,
                )
            )
    return rows


def _benchmark_cells(r: MetricRow) -> tuple:
    """One row's values in _BENCHMARK_COLUMNS order; runtime stays out (metadata only)."""
    return (r.method, r.snr_db, r.mse_aoa, r.mse_path_gain, r.mse_path_angle, r.trials, r.failures)


def _csv_text(rows) -> str:
    """The one CSV writer: each row's cells joined by commas, one line per
    row. str() writes each float in its shortest round-trip form."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _json_text(payload) -> str:
    """The one JSON writer: sorted keys, two-space indent, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def benchmark_csv(rows: Sequence[MetricRow]) -> str:
    """Deterministic CSV of the sweep."""
    return _csv_text([(BENCHMARK_CSV_HEADER,), *map(_benchmark_cells, rows)])


def benchmark_rows_json(rows: Sequence[MetricRow]) -> str:
    return _json_text({"rows": [dict(zip(_BENCHMARK_COLUMNS, _benchmark_cells(r))) for r in rows]})


def run_metadata(config_echo: dict, runtime_ms: dict, diagnostics: Optional[dict] = None) -> str:
    payload = {
        "version": __version__,
        "snr_definition": SNR_DEFINITION,
        "config": config_echo,
        "runtime_ms": runtime_ms,
    }
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    return _json_text(payload)


# ---------------------------------------------------------------------------
# config parsing (degrees and [re, im] pairs at this boundary)


def _section(value, path: str, keys) -> dict:
    """The config section at path ("" is the root): a JSON object whose keys
    all lie in keys; anything else is an error naming the section."""
    where = f"field '{path[:-1]}'" if path else "config root"
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    return value


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing field '{path}{key}'")
    return d[key]


def _integer(d: dict, key: str, path: str, default=None) -> int:
    """An integral field: 2.0 reads as 2; 2.7, a string or a bool is an error."""
    value = _require(d, key, path) if default is None else d.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{path}{key}' must be an integer")
    return value


def _number(value, name: str) -> float:
    """The one number rule: a JSON number reads as a float; a bool, a string
    or a null is an error naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{name}' must be a number")
    return float(value)


def _real(d: dict, key: str, path: str, default=None) -> float:
    """A real field: 2 reads as 2.0; a bool, a string or a null is an error."""
    value = _require(d, key, path) if default is None else d.get(key, default)
    return _number(value, path + key)


def _reals(values, name: str) -> list[float]:
    """A list of numbers, each entry read by the number rule."""
    if not isinstance(values, list):
        raise ConfigError(f"field '{name}' must be a list of numbers")
    return [_number(x, f"{name}[{i}]") for i, x in enumerate(values)]


def _as_complex(obj, path: str, depth: int) -> np.ndarray:
    """``depth``-dimensional complex array (1 vector, 2 matrix) from nested
    lists ending in [re, im] pairs of numbers."""
    message = f"field '{path}' must be a {'list' if depth == 1 else 'matrix'} of [re, im] pairs"
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(message) from exc
    if arr.ndim != depth + 1 or arr.shape[-1] != 2:
        raise ConfigError(message)
    for leaf in np.asarray(obj, dtype=object).flat:
        _number(leaf, path)
    return arr[..., 0] + 1j * arr[..., 1]


def complex_to_pairs(arr: np.ndarray) -> list:
    """Row-major nested lists with a trailing [re, im] axis."""
    stacked = np.stack([np.real(arr), np.imag(arr)], axis=-1)
    return stacked.tolist()


def _array_from_dict(root: dict) -> ArrayConfig:
    d = _section(_require(root, "array", ""), "array.", ("n_antennas", "spacing_ratio"))
    return ArrayConfig(
        n_antennas=_integer(d, "n_antennas", "array."),
        spacing_ratio=_real(d, "spacing_ratio", "array."),
    )


def _optimizer_from_dict(root: dict) -> OptimizerConfig:
    d = _section(root.get("optimizer", {}), "optimizer.", ("max_outer_iterations",))
    return OptimizerConfig(**{key: _integer(d, key, "optimizer.") for key in d})


def _config_parser(parse):
    """A *_from_dict parser: a TypeError or ValueError raised while building
    the config becomes a ConfigError."""

    @functools.wraps(parse)
    def wrapped(d):
        try:
            return parse(d)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    return wrapped


@_config_parser
def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from a parsed JSON config; raises ConfigError with
    the offending field path on any problem."""
    _section(d, "", (
        "array", "prior", "aoas_deg", "n_snapshots", "snr_db_list", "n_trials",
        "master_seed", "sector", "grid_step_deg", "optimizer", "suppression_radius_deg",
    ))
    array = _array_from_dict(d)
    prior_d = _section(_require(d, "prior", ""), "prior.", ("mean", "covariance"))
    prior = ChannelPrior(
        mean=_as_complex(_require(prior_d, "mean", "prior."), "prior.mean", 1),
        covariance=_as_complex(_require(prior_d, "covariance", "prior."), "prior.covariance", 2),
    )
    aoas_raw = d.get("aoas_deg", "random-in-sector")
    if isinstance(aoas_raw, str):
        if aoas_raw != "random-in-sector":
            raise ConfigError("aoas_deg must be a list of degrees or 'random-in-sector'")
        aoas = None
    else:
        aoas = AoAVector(np.radians(_reals(aoas_raw, "aoas_deg")))
    snrs = tuple(_reals(_require(d, "snr_db_list", ""), "snr_db_list"))
    sector_d = _section(_require(d, "sector", ""), "sector.", ("center_deg", "width_deg"))
    sector = Sector(
        center=math.radians(_real(sector_d, "center_deg", "sector.")),
        width=math.radians(_real(sector_d, "width_deg", "sector.")),
    )
    grid_step = math.radians(_real(d, "grid_step_deg", "", 0.01))
    try:
        sector_grid(sector, grid_step)
    except ValueError as exc:
        raise ConfigError(f"field 'grid_step_deg': {exc}") from exc
    return Scenario(
        array=array,
        aoas=aoas,
        prior=prior,
        n_snapshots=_integer(d, "n_snapshots", "", 40),
        snr_db_list=snrs,
        n_trials=_integer(d, "n_trials", ""),
        master_seed=_integer(d, "master_seed", ""),
        sector=sector,
        grid_step=grid_step,
        optimizer=_optimizer_from_dict(d),
        suppression_radius=math.radians(_real(d, "suppression_radius_deg", "", 0.0)),
    )


@dataclass(frozen=True)
class LandscapeConfig:
    """Inputs of the landscape export: the array, the true angle, the scan
    resolution, and an optional surface request (single-user unit-gain
    channel, one snapshot)."""

    array: ArrayConfig
    true_angle: float
    scan_step: float
    surface_axes: Optional[tuple[AxisSpec, ...]]

    def __post_init__(self):
        # the export's rules, checked before it writes anything
        _check_true_angle(self.true_angle)
        _check_scan_step(self.array, self.scan_step)
        AngleGrid(-math.pi / 2, math.pi / 2, self.scan_step)  # the scan's size guard
        if self.surface_axes is not None:
            _check_axes(self.surface_axes)


def _axis_from_dict(d, path: str) -> AxisSpec:
    """One surface axis: an "aoa" axis takes its bounds in degrees, a
    "path_angle" axis in radians."""
    target = d.get("target", "aoa") if isinstance(d, dict) else None
    unit = "_rad" if target == "path_angle" else "_deg"
    _section(d, path, ("target", "num", "start" + unit, "stop" + unit))
    if target not in ("aoa", "path_angle"):
        raise ConfigError(f"field '{path}target' must be 'aoa' or 'path_angle'")
    start = _real(d, "start" + unit, path)
    stop = _real(d, "stop" + unit, path)
    if target == "aoa":
        start, stop = math.radians(start), math.radians(stop)
    return AxisSpec(target=target, start=start, stop=stop, num=_integer(d, "num", path))


@_config_parser
def landscape_config_from_dict(d: dict) -> LandscapeConfig:
    _section(d, "", ("array", "true_angle_deg", "scan_step_deg", "surface"))
    array = _array_from_dict(d)
    true_angle = math.radians(_real(d, "true_angle_deg", ""))
    scan_step = math.radians(_real(d, "scan_step_deg", "", 0.01))
    axes = None
    if "surface" in d:
        raw = d["surface"]
        raw_list = raw if isinstance(raw, list) else [raw]
        axes = tuple(_axis_from_dict(x, f"surface[{i}].") for i, x in enumerate(raw_list))
    return LandscapeConfig(
        array=array, true_angle=true_angle, scan_step=scan_step, surface_axes=axes
    )


def optima_csv(array: ArrayConfig, true_angle: float) -> str:
    opt = enumerate_global_optima(array, true_angle)
    angles = opt.alias_angles
    rows = zip(opt.alias_integers, map(math.sin, angles), map(math.degrees, angles))
    return _csv_text([(OPTIMA_CSV_HEADER,), *rows])


def stationary_csv(array: ArrayConfig, true_angle: float, scan_step: float) -> str:
    grid = AngleGrid(-math.pi / 2, math.pi / 2, scan_step)
    points = stationary_points(array, true_angle, grid)
    degrees = np.degrees(points.angles).tolist()
    return _csv_text([(STATIONARY_CSV_HEADER,), *zip(degrees, points.residuals)])


def _axis_label(ax: AxisSpec) -> str:
    unit = "deg" if ax.target == "aoa" else "rad"
    return f"{ax.target}_{unit}[user0]"


def _axis_out_values(ax: AxisSpec) -> np.ndarray:
    vals = ax.values()
    return np.degrees(vals) if ax.target == "aoa" else vals


def surface_csv(surface: LossSurface) -> str:
    """1-D: axis-value row then loss row. 2-D: header row carries the second
    axis's values; each data row starts with the first axis's value."""
    axes = surface.axes
    if len(axes) == 1:
        header = [_axis_label(axes[0]), *_axis_out_values(axes[0]).tolist()]
        return _csv_text([header, ["loss", *surface.values.tolist()]])
    corner = f"{_axis_label(axes[0])}\\{_axis_label(axes[1])}"
    first = _axis_out_values(axes[0]).tolist()
    rows = [[x, *row] for x, row in zip(first, surface.values.tolist())]
    return _csv_text([[corner, *_axis_out_values(axes[1]).tolist()], *rows])


def run_landscape_export(cfg: LandscapeConfig, out_dir: Path, config_echo: dict) -> dict:
    """Emit optima/stationary CSVs (plus a surface CSV when requested) and a
    metadata JSON; returns {artifact name: path}. Each CSV's runtime covers
    its computation and formatting."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    exports = {
        "optima": lambda: optima_csv(cfg.array, cfg.true_angle),
        "stationary": lambda: stationary_csv(cfg.array, cfg.true_angle, cfg.scan_step),
    }
    if cfg.surface_axes is not None:
        exports["surface"] = lambda: surface_csv(
            evaluate_surface(cfg.surface_axes, cfg.array, cfg.true_angle)
        )
    paths: dict[str, Path] = {}
    runtimes: dict[str, float] = {}
    for name, export in exports.items():
        t0 = time.perf_counter()
        text = export()
        runtimes[name] = (time.perf_counter() - t0) * 1e3
        paths[name] = out_dir / f"{name}.csv"
        paths[name].write_text(text)

    paths["meta"] = out_dir / "landscape_meta.json"
    paths["meta"].write_text(run_metadata(config_echo, runtimes))
    return paths
