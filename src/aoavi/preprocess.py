"""Data preprocessing: empirical covariance, codebook-correlation pseudo
labels, and sectorization of the angle search range."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .signal_model import _ANGLE_BOUND, AoAVector, ArrayConfig, ObservationSet, _steering

# resource guard on grid sizes, shared with the landscape surfaces and with
# a scenario's N x G grid scan and N x M block
_MAX_GRID_POINTS = 10**7

# a grid scan evaluates each steering column as a polynomial in z from its
# first _BABY_STEPS + 1 powers, _SCAN_CHUNK grid columns at a time
_BABY_STEPS = 8
_SCAN_CHUNK = 4096


@dataclass(frozen=True)
class AngleGrid:
    """Uniform inclusive grid of candidate angles, radians, within
    [-pi/2, pi/2] up to AoAVector's 1e-12 of rounding; at most 1e7 points.
    The angles are built once per grid value and are read-only."""

    min_angle: float
    max_angle: float
    step: float

    def __post_init__(self):
        if not self.min_angle < self.max_angle:
            raise ValueError("min_angle must be < max_angle")
        if not (self.min_angle >= -_ANGLE_BOUND and self.max_angle <= _ANGLE_BOUND):
            raise ValueError("grid must lie within [-pi/2, pi/2]")
        if not (self.step > 0 and (self.max_angle - self.min_angle) / self.step >= 1):
            raise ValueError("step must be > 0 and span at least one step")
        # n_points > _MAX_GRID_POINTS, with no int() of an overflowing count
        if (self.max_angle - self.min_angle) / self.step + 1e-9 >= _MAX_GRID_POINTS:
            raise ValueError("grid exceeds the 1e7-point resource guard")
        # n_points' rounding tolerance can put the last angle past max_angle
        if not self.min_angle + self.step * (self.n_points - 1) <= _ANGLE_BOUND:
            raise ValueError("grid must lie within [-pi/2, pi/2]")

    @property
    def n_points(self) -> int:
        # inclusive endpoints; tolerate rounding in (max-min)/step
        return int(np.floor((self.max_angle - self.min_angle) / self.step + 1e-9)) + 1

    @lru_cache(maxsize=8)
    def angles(self) -> np.ndarray:
        """The grid angles, ascending; one array shared by equal grids."""
        out = self.min_angle + self.step * np.arange(self.n_points)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class Sector:
    """Angular search sector [lo, hi] = [center - width/2, center + width/2],
    radians, within [-pi/2, pi/2] up to AoAVector's 1e-12 of rounding."""

    center: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")
        # written so that a NaN center or width fails the check
        if not (self.lo >= -_ANGLE_BOUND and self.hi <= _ANGLE_BOUND):
            raise ValueError("sector must be finite and lie within [-pi/2, pi/2]")

    @property
    def lo(self) -> float:
        return self.center - self.width / 2

    @property
    def hi(self) -> float:
        return self.center + self.width / 2


def empirical_covariance(obs: ObservationSet) -> np.ndarray:
    """Empirical covariance R = (1/M) Y Y^H, exactly Hermitian PSD."""
    y = obs.signal
    r = (y @ y.conj().T) / obs.n_snapshots
    return (r + r.conj().T) / 2


@lru_cache(maxsize=8)
def grid_steering(array: ArrayConfig, grid: AngleGrid) -> np.ndarray:
    """Rows 0..B of the N x G grid steering matrix, B = _BABY_STEPS (all N
    rows when N <= B): the baby steps and the giant step that
    ``_steering_products`` evaluates every column from. They are the
    steering of the first B + 1 antennas, so each row equals array_matrix's
    row at that grid angle bit for bit. Cached across Monte Carlo trials;
    the returned array is shared and read-only."""
    head = ArrayConfig(min(_BABY_STEPS + 1, array.n_antennas), array.spacing_ratio)
    out = _steering(head, grid.angles())
    out.setflags(write=False)
    return out


def _steering_products(
    coef: np.ndarray, array: ArrayConfig, grid: AngleGrid
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (columns, coef @ A[:, columns]) for a K x N ``coef`` and the
    N x G steering matrix A of ``array`` over ``grid``, one
    _SCAN_CHUNK-column slice of the grid at a time. The kernel reads A's
    leading rows from the ``grid_steering`` cache itself.

    Column g of A is z^n, n = 0..N-1, with z = exp(-j 2 pi (d/lambda)
    sin theta_g), so coef @ A = sum_q (coef[:, qB:(q+1)B] @ A[:B]) (z^B)^q:
    the length-B coefficient blocks (the last one zero-padded) times the
    baby rows 0..B-1 in one product, combined by Horner's rule in the giant
    step z^B, row B (Paterson & Stockmeyer, SIAM J. Comput. 2(1), 1973).
    The products share one buffer, so each yielded K x W array is
    overwritten by the next step.
    """
    k, n = coef.shape
    b = min(_BABY_STEPS, n)
    q = -(-n // b)
    padded = np.zeros((k, q * b), dtype=complex)
    padded[:, :n] = coef
    # rows i*K..(i+1)*K-1 hold coefficient block i
    blocks = padded.reshape(k, q, b).transpose(1, 0, 2).reshape(q * k, b)
    powers = grid_steering(array, grid)
    g = powers.shape[1]
    buf = np.empty(q * k * min(g, _SCAN_CHUNK), dtype=complex)
    for lo in range(0, g, _SCAN_CHUNK):
        cols = slice(lo, lo + _SCAN_CHUNK)
        baby = powers[:b, cols]
        prod = np.matmul(blocks, baby, out=buf[: q * k * baby.shape[1]].reshape(q * k, -1))
        acc = prod[(q - 1) * k :]
        for i in range(q - 2, -1, -1):
            acc *= powers[b, cols]
            acc += prod[i * k : (i + 1) * k]
        yield cols, acc


def _correlation_profile(obs: ObservationSet, grid: AngleGrid) -> np.ndarray:
    """Empirical codebook correlation r(theta, Y) = (1/M) |1_M^T Y^H a(theta)|
    at every grid angle. Invariant to a global phase rotation of Y."""
    # sum_m y_m^H a(theta) = (column-summed Y)^H a(theta)
    colsum = np.sum(obs.signal, axis=1)
    profile = np.empty(grid.n_points)
    for cols, proj in _steering_products(colsum.conj()[None, :], obs.array, grid):
        np.abs(proj[0], out=profile[cols])
    profile /= obs.n_snapshots
    return profile


def _pick_peaks(
    values: np.ndarray, angles: np.ndarray, k: int, min_separation: float = 0.0
) -> tuple[np.ndarray, bool]:
    """Indices of k peaks of ``values`` over the ascending grid ``angles``.

    Candidates are the strict local maxima (3-point test, endpoints
    eligible), ranked by value with ties toward the smaller angle. A
    greedy pass skips any candidate closer than ``min_separation`` to an
    earlier pick. If fewer than k survive, the remaining slots are filled
    from the largest other grid values in the same order and ``degraded``
    is True. Returns (indices in ascending angle order, degraded).
    """
    strict = np.ones(values.size, dtype=bool)
    strict[:-1] &= values[:-1] > values[1:]
    strict[1:] &= values[1:] > values[:-1]
    maxima = np.flatnonzero(strict)
    chosen: list[int] = []
    for i in maxima[np.lexsort((angles[maxima], -values[maxima]))]:
        if len(chosen) == k:
            break
        if all(abs(angles[i] - angles[j]) >= min_separation for j in chosen):
            chosen.append(int(i))
    degraded = len(chosen) < k
    if degraded:
        rest = np.setdiff1d(np.arange(values.size), np.asarray(chosen, dtype=int))
        fill = rest[np.lexsort((angles[rest], -values[rest]))]
        chosen.extend(int(i) for i in fill[: k - len(chosen)])
    picked = np.asarray(chosen, dtype=int)
    return picked[np.argsort(angles[picked])], degraded


def pseudo_labels(
    obs: ObservationSet,
    grid: AngleGrid,
    k_users: int,
    suppression_radius: float = 0.0,
) -> AoAVector:
    """One angle per user from the K largest distinct peaks of the
    codebook correlation, picked by ``_pick_peaks`` (ties toward the
    smaller angle), sorted ascending.

    For K > 1 the labels are the picked grid angles. For K = 1 an interior
    pick i that ``_pick_peaks`` did not fill (so a strict local maximum)
    moves to the vertex of the parabola through the profile at i - 1, i,
    i + 1:
    angles[i] + step * 0.5 * (c[i-1] - c[i+1]) / (c[i-1] - 2 c[i] + c[i+1]).
    The peak is strict, so the offset is under half a step and the label
    stays between the neighbouring grid angles. A pick at a grid end, or a
    filled one, stays on the grid.

    ``suppression_radius`` (radians) is the minimum separation between
    picks; the default 0 takes the K largest strict local maxima.
    """
    if grid.n_points < k_users:
        raise ValueError("grid must contain at least k_users points")
    if not suppression_radius >= 0:  # NaN fails too
        raise ValueError("suppression_radius must be non-negative")
    corr = _correlation_profile(obs, grid)
    angles = grid.angles()
    order, degraded = _pick_peaks(corr, angles, k_users, suppression_radius)
    labels = angles[order]
    i = int(order[0])
    if k_users == 1 and not degraded and 0 < i < corr.size - 1:
        left, mid, right = corr[i - 1 : i + 2]
        labels = labels + grid.step * 0.5 * (left - right) / (left - 2 * mid + right)
    return AoAVector(labels)


def sector_grid(sector: Sector, step: float) -> AngleGrid:
    """Uniform grid from the sector's lower edge in steps of step; its last
    point lies within one step of the upper edge, on it when step divides
    the width ([-15, 15] degrees at a 0.7 degree step stops at 14.4)."""
    return AngleGrid(min_angle=sector.lo, max_angle=sector.hi, step=step)
