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

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .baselines import ls_channel, music_estimate
from .estimator import OptimizerConfig, estimate
from .landscape import (
    AxisSpec,
    LossSurface,
    enumerate_global_optima,
    evaluate_surface,
    stationary_points,
)
from .loss import recover_path_parameters
from .preprocess import AngleGrid, Sector, sector_grid
from .signal_model import (
    AoAVector,
    ArrayConfig,
    ChannelPrior,
    ChannelRealization,
    sample_channel,
    snr_to_noise_variance,
    synthesize_observation,
)

# the numerical failures a trial may raise; anything else is a bug
_NUMERICAL_FAILURES = (ValueError, np.linalg.LinAlgError)

PROPOSED = "proposed"
MUSIC_LS = "music_ls"

BENCHMARK_CSV_HEADER = (
    "method,snr_db,mse_aoa_rad2,mse_path_gain,mse_path_angle_rad2,trials,failures"
)
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
    sector independently per trial (sorted ascending)."""

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
        if len(self.snr_db_list) == 0:
            raise ValueError("snr_db_list must be nonempty")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be at least 1")
        if not self.grid_step > 0:
            raise ValueError("grid_step must be positive")
        if self.suppression_radius < 0:
            raise ValueError("suppression_radius must be non-negative")
        if self.aoas is not None and self.aoas.k_users != self.prior.k_users:
            raise ValueError("aoas and prior must agree on the user count")


@dataclass(frozen=True)
class MetricRow:
    """Aggregated per-(method, SNR) errors. MSE fields are NaN when every
    trial of the method failed; failures counts excluded trials."""

    method: str
    snr_db: float
    mse_aoa: float
    mse_path_gain: float
    mse_path_angle: float
    trials: int
    failures: int
    runtime_ms: float

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
    the same permutation is applied to the gain rows. Path-angle errors use
    wrapped differences.
    """
    t_order = np.argsort(true_aoas.angles, kind="stable")
    e_order = np.argsort(np.asarray(est_angles, dtype=float), kind="stable")
    t_ang = np.asarray(true_aoas.angles)[t_order]
    e_ang = np.asarray(est_angles, dtype=float)[e_order]
    mse_aoa = float(np.mean((e_ang - t_ang) ** 2))

    beta_hat, psi_hat = recover_path_parameters(np.asarray(est_gains)[e_order, :])
    beta = true_channel.path_gains[t_order, :]
    psi = true_channel.path_angles[t_order, :]
    mse_gain = float(np.mean((beta_hat - beta) ** 2))
    mse_angle = float(np.mean(wrap_angle(psi_hat - psi) ** 2))
    return mse_aoa, mse_gain, mse_angle


def _draw_aoas(scenario: Scenario, rng: np.random.Generator) -> AoAVector:
    if scenario.aoas is not None:
        return scenario.aoas
    lo = max(scenario.sector.lo, -math.pi / 2)
    hi = min(scenario.sector.hi, math.pi / 2)
    draw = np.sort(rng.uniform(lo, hi, size=scenario.prior.k_users))
    return AoAVector(draw)


def run_benchmark(scenario: Scenario) -> list[MetricRow]:
    """Full Monte Carlo sweep: for every SNR and trial, synthesize one
    observation block and run both methods on it. Per-trial numerical
    failures (ValueError, LinAlgError) are counted and excluded from the
    means; any other exception propagates. Output order: SNRs as listed,
    proposed before the classical baseline."""
    grid = sector_grid(scenario.sector, scenario.grid_step)
    k = scenario.prior.k_users
    rows: list[MetricRow] = []
    for si, snr in enumerate(scenario.snr_db_list):
        acc = {
            name: {"aoa": [], "gain": [], "angle": [], "failures": 0, "ms": 0.0}
            for name in (PROPOSED, MUSIC_LS)
        }
        for t in range(scenario.n_trials):
            rng = trial_rng(scenario.master_seed, si, t)
            aoas = _draw_aoas(scenario, rng)
            channel = sample_channel(scenario.prior, scenario.n_snapshots, rng)
            s2 = snr_to_noise_variance(snr, scenario.array, scenario.prior, aoas)
            obs = synthesize_observation(scenario.array, aoas, channel, s2, rng)

            t0 = time.perf_counter()
            try:
                result = estimate(
                    obs,
                    scenario.prior,
                    scenario.sector,
                    grid,
                    scenario.optimizer,
                    suppression_radius=scenario.suppression_radius,
                )
                errs = aligned_squared_errors(
                    aoas,
                    channel,
                    result.state.aoa_estimate.angles,
                    result.state.channel_means,
                )
            except _NUMERICAL_FAILURES:
                acc[PROPOSED]["failures"] += 1
            else:
                acc[PROPOSED]["aoa"].append(errs[0])
                acc[PROPOSED]["gain"].append(errs[1])
                acc[PROPOSED]["angle"].append(errs[2])
            acc[PROPOSED]["ms"] += (time.perf_counter() - t0) * 1e3

            t0 = time.perf_counter()
            try:
                spectrum = music_estimate(obs, grid, k)
                peak_angles = np.asarray(spectrum.peaks, dtype=float)
                gains = ls_channel(obs, AoAVector(peak_angles))
                errs = aligned_squared_errors(aoas, channel, peak_angles, gains)
            except _NUMERICAL_FAILURES:
                acc[MUSIC_LS]["failures"] += 1
            else:
                acc[MUSIC_LS]["aoa"].append(errs[0])
                acc[MUSIC_LS]["gain"].append(errs[1])
                acc[MUSIC_LS]["angle"].append(errs[2])
            acc[MUSIC_LS]["ms"] += (time.perf_counter() - t0) * 1e3

        for name in (PROPOSED, MUSIC_LS):
            a = acc[name]
            rows.append(
                MetricRow(
                    method=name,
                    snr_db=float(snr),
                    mse_aoa=float(np.mean(a["aoa"])) if a["aoa"] else math.nan,
                    mse_path_gain=float(np.mean(a["gain"])) if a["gain"] else math.nan,
                    mse_path_angle=float(np.mean(a["angle"])) if a["angle"] else math.nan,
                    trials=scenario.n_trials,
                    failures=a["failures"],
                    runtime_ms=a["ms"],
                )
            )
    return rows


def benchmark_csv(rows: Sequence[MetricRow]) -> str:
    """Deterministic CSV of the sweep; runtime stays out (metadata only)."""
    lines = [BENCHMARK_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.method},{r.snr_db!r},{r.mse_aoa!r},{r.mse_path_gain!r},"
            f"{r.mse_path_angle!r},{r.trials},{r.failures}"
        )
    return "\n".join(lines) + "\n"


def benchmark_rows_json(rows: Sequence[MetricRow]) -> str:
    payload = {
        "rows": [
            {
                "method": r.method,
                "snr_db": r.snr_db,
                "mse_aoa_rad2": r.mse_aoa,
                "mse_path_gain": r.mse_path_gain,
                "mse_path_angle_rad2": r.mse_path_angle,
                "trials": r.trials,
                "failures": r.failures,
            }
            for r in rows
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_metadata(config_echo: dict, runtime_ms: dict) -> str:
    payload = {
        "version": __version__,
        "snr_definition": SNR_DEFINITION,
        "config": config_echo,
        "runtime_ms": runtime_ms,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# config parsing (degrees and [re, im] pairs at this boundary)


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing field '{path}{key}'")
    return d[key]


def _as_complex_vector(obj, path: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{path}' must be a list of [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(f"field '{path}' must be a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _as_complex_matrix(obj, path: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{path}' must be nested [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ConfigError(f"field '{path}' must be a matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def complex_to_pairs(arr: np.ndarray) -> list:
    """Row-major nested lists with a trailing [re, im] axis."""
    stacked = np.stack([np.real(arr), np.imag(arr)], axis=-1)
    return stacked.tolist()


def _array_from_dict(d: dict, path: str) -> ArrayConfig:
    return ArrayConfig(
        n_antennas=int(_require(d, "n_antennas", path)),
        spacing_ratio=float(_require(d, "spacing_ratio", path)),
    )


def _sector_from_dict(d: dict, path: str) -> Sector:
    return Sector(
        center=math.radians(float(_require(d, "center_deg", path))),
        width=math.radians(float(_require(d, "width_deg", path))),
    )


def _optimizer_from_dict(d: dict) -> OptimizerConfig:
    known = {
        "aoa_step_size",
        "max_outer_iterations",
        "aoa_gradient_tolerance",
        "loss_tolerance",
    }
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown optimizer fields: {sorted(unknown)}")
    kwargs = {}
    for key in known:
        if key in d:
            caster = int if key == "max_outer_iterations" else float
            kwargs[key] = caster(d[key])
    return OptimizerConfig(**kwargs)


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from a parsed JSON config; raises ConfigError with
    the offending field path on any problem."""
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        array = _array_from_dict(_require(d, "array", ""), "array.")
        prior_d = _require(d, "prior", "")
        prior = ChannelPrior(
            mean=_as_complex_vector(_require(prior_d, "mean", "prior."), "prior.mean"),
            covariance=_as_complex_matrix(
                _require(prior_d, "covariance", "prior."), "prior.covariance"
            ),
        )
        aoas_raw = d.get("aoas_deg", "random-in-sector")
        if isinstance(aoas_raw, str):
            if aoas_raw != "random-in-sector":
                raise ConfigError("aoas_deg must be a list of degrees or 'random-in-sector'")
            aoas = None
        else:
            aoas = AoAVector(np.radians(np.asarray(aoas_raw, dtype=float)))
        snrs = tuple(float(x) for x in _require(d, "snr_db_list", ""))
        scenario = Scenario(
            array=array,
            aoas=aoas,
            prior=prior,
            n_snapshots=int(d.get("n_snapshots", 40)),
            snr_db_list=snrs,
            n_trials=int(_require(d, "n_trials", "")),
            master_seed=int(_require(d, "master_seed", "")),
            sector=_sector_from_dict(_require(d, "sector", ""), "sector."),
            grid_step=math.radians(float(d.get("grid_step_deg", 0.01))),
            optimizer=_optimizer_from_dict(d.get("optimizer", {})),
            suppression_radius=math.radians(
                float(d.get("suppression_radius_deg", 0.0))
            ),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return scenario


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
        if abs(self.true_angle) > math.pi / 2:
            raise ValueError("true_angle must lie in [-pi/2, pi/2]")
        if not self.scan_step > 0:
            raise ValueError("scan_step must be positive")


def _axis_from_dict(d: dict, path: str) -> AxisSpec:
    target = str(d.get("target", "aoa"))
    in_degrees = target == "aoa"
    start = float(_require(d, "start_deg" if in_degrees else "start_rad", path))
    stop = float(_require(d, "stop_deg" if in_degrees else "stop_rad", path))
    if in_degrees:
        start, stop = math.radians(start), math.radians(stop)
    return AxisSpec(
        target=target,
        user_index=int(d.get("user_index", 0)),
        start=start,
        stop=stop,
        num=int(_require(d, "num", path)),
    )


def landscape_config_from_dict(d: dict) -> LandscapeConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        array = _array_from_dict(_require(d, "array", ""), "array.")
        true_angle = math.radians(float(_require(d, "true_angle_deg", "")))
        scan_step = math.radians(float(d.get("scan_step_deg", 0.01)))
        axes = None
        if "surface" in d:
            raw = d["surface"]
            raw_list = raw if isinstance(raw, list) else [raw]
            axes = tuple(
                _axis_from_dict(x, f"surface[{i}].") for i, x in enumerate(raw_list)
            )
        return LandscapeConfig(
            array=array, true_angle=true_angle, scan_step=scan_step, surface_axes=axes
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def optima_csv(array: ArrayConfig, true_angle: float) -> str:
    opt = enumerate_global_optima(array, true_angle)
    lines = [OPTIMA_CSV_HEADER]
    for angle, l in zip(opt.alias_angles, opt.alias_integers):
        lines.append(f"{l},{math.sin(angle)!r},{math.degrees(angle)!r}")
    return "\n".join(lines) + "\n"


def stationary_csv(array: ArrayConfig, true_angle: float, scan_step: float) -> str:
    grid = AngleGrid(-math.pi / 2, math.pi / 2, scan_step)
    points = stationary_points(array, true_angle, grid)
    lines = [STATIONARY_CSV_HEADER]
    for angle, residual in zip(points.angles, points.residuals):
        lines.append(f"{math.degrees(angle)!r},{residual!r}")
    return "\n".join(lines) + "\n"


def _axis_label(ax: AxisSpec) -> str:
    unit = "deg" if ax.target == "aoa" else "rad"
    return f"{ax.target}_{unit}[user{ax.user_index}]"


def _axis_out_values(ax: AxisSpec) -> np.ndarray:
    vals = ax.values()
    return np.degrees(vals) if ax.target == "aoa" else vals


def surface_csv(surface: LossSurface) -> str:
    """1-D: axis-value row then loss row. 2-D: header row carries the second
    axis's values; each data row starts with the first axis's value."""
    axes = surface.axes
    if len(axes) == 1:
        v = _axis_out_values(axes[0])
        line1 = ",".join([_axis_label(axes[0])] + [repr(float(x)) for x in v])
        line2 = ",".join(["loss"] + [repr(float(x)) for x in surface.values])
        return line1 + "\n" + line2 + "\n"
    v1 = _axis_out_values(axes[0])
    v2 = _axis_out_values(axes[1])
    corner = f"{_axis_label(axes[0])}\\{_axis_label(axes[1])}"
    lines = [",".join([corner] + [repr(float(x)) for x in v2])]
    for i, row in enumerate(surface.values):
        lines.append(",".join([repr(float(v1[i]))] + [repr(float(x)) for x in row]))
    return "\n".join(lines) + "\n"


def run_landscape_export(cfg: LandscapeConfig, out_dir: Path, config_echo: dict) -> dict:
    """Emit optima/stationary CSVs (plus a surface CSV when requested) and a
    metadata JSON; returns {artifact name: path}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    runtimes: dict[str, float] = {}

    t0 = time.perf_counter()
    text = optima_csv(cfg.array, cfg.true_angle)
    runtimes["optima"] = (time.perf_counter() - t0) * 1e3
    paths["optima"] = out_dir / "optima.csv"
    paths["optima"].write_text(text)

    t0 = time.perf_counter()
    text = stationary_csv(cfg.array, cfg.true_angle, cfg.scan_step)
    runtimes["stationary"] = (time.perf_counter() - t0) * 1e3
    paths["stationary"] = out_dir / "stationary.csv"
    paths["stationary"].write_text(text)

    if cfg.surface_axes is not None:
        t0 = time.perf_counter()
        channel = ChannelRealization.from_gains(np.ones((1, 1), dtype=complex))
        surface = evaluate_surface(
            cfg.surface_axes,
            cfg.array,
            AoAVector([cfg.true_angle]),
            channel,
            noise_variance=0.0,
        )
        text = surface_csv(surface)
        runtimes["surface"] = (time.perf_counter() - t0) * 1e3
        paths["surface"] = out_dir / "surface.csv"
        paths["surface"].write_text(text)

    paths["meta"] = out_dir / "landscape_meta.json"
    paths["meta"].write_text(run_metadata(config_echo, runtimes))
    return paths
