"""Classical reference methods: subspace AoA search over a grid and
least-squares channel recovery at fixed AoAs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preprocess import AngleGrid, _pick_peaks, _steering_products, empirical_covariance
from .signal_model import AoAVector, ObservationSet, array_matrix
from .signal_model import _frozen

# pseudo-spectrum denominator floor; keeps noiseless peaks finite
_EIGEN_FLOOR = 1e-8
_MAX_LS_CONDITION = 1e12


@dataclass(frozen=True)
class MusicSpectrum:
    """Pseudo-spectrum over a grid plus its K peak angles.

    degraded is set when ``_pick_peaks`` found fewer strict local maxima
    than requested and padded the remainder with the highest off-peak
    values. A read-only float array of values is kept as given; any
    other input is copied and locked.
    """

    grid: AngleGrid
    values: np.ndarray
    peaks: tuple[float, ...]
    degraded: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("one spectrum value per grid point required")
        # written so that NaN fails every check
        if not vals.min() >= 0:
            raise ValueError("spectrum values must be non-negative")
        peaks = np.asarray(self.peaks, dtype=float)
        if np.any(np.diff(peaks) < 0):
            raise ValueError("peaks must be sorted ascending")
        # rounded subtraction is monotone, so the grid angle nearest a peak
        # (as |angle - peak| rounds) is one of the two that bracket it
        angles = self.grid.angles()
        above = np.minimum(np.searchsorted(angles, peaks), angles.size - 1)
        below = np.maximum(above - 1, 0)
        dist = np.minimum(np.abs(angles[below] - peaks), np.abs(angles[above] - peaks))
        if not np.all(dist <= 1e-12):
            raise ValueError("peaks must lie on the grid")
        if vals.flags.writeable:
            vals = _frozen(vals)
        object.__setattr__(self, "values", vals)


def music_estimate(obs: ObservationSet, grid: AngleGrid, k_sources: int) -> MusicSpectrum:
    """Subspace AoA estimation over the grid.

    The empirical covariance is eigendecomposed; the eigenvectors of the
    N-K smallest eigenvalues span the noise subspace E, those of the K
    largest the signal subspace U. The spectrum is
    1 / max(||E^H a(theta)||^2, 1e-8) and the estimates are its K largest
    strict local maxima, picked by ``_pick_peaks`` with no minimum
    separation.

    Every ULA steering vector has ||a||^2 = N, and E E^H = I - U U^H, so
    the noise projection is evaluated as N - ||U^H a(theta)||^2: a K x G
    product instead of an (N-K) x G one, formed by ``_steering_products``.
    Near a noiseless peak that difference can round to just below zero; the
    1e-8 floor absorbs the round-off as it absorbs exact orthogonality.
    """
    if k_sources < 1:
        raise ValueError("k_sources must be at least 1")
    n = obs.array.n_antennas
    if obs.n_snapshots < k_sources:
        raise ValueError("need at least as many snapshots as sources")
    if n <= k_sources:
        raise ValueError("need more antennas than sources")
    if grid.n_points < k_sources:
        raise ValueError("grid too small for the requested number of peaks")

    cov = empirical_covariance(obs)
    _eigvals, eigvecs = np.linalg.eigh(cov)
    signal_basis = eigvecs[:, n - k_sources :]

    values = np.empty(grid.n_points)
    # in place, one grid chunk at a time; the rows are added in the order
    # np.sum(axis=0) adds them, so the values match that expression of the
    # same products bit for bit
    for cols, proj in _steering_products(signal_basis.conj().T, obs.array, grid):
        chunk = values[cols]
        np.abs(proj[0], out=chunk)
        np.square(chunk, out=chunk)
        for row in proj[1:]:
            chunk += np.square(np.abs(row))
    np.subtract(n, values, out=values)
    np.maximum(values, _EIGEN_FLOOR, out=values)
    np.divide(1.0, values, out=values)
    values.setflags(write=False)
    angles = grid.angles()
    chosen, degraded = _pick_peaks(values, angles, k_sources)
    peak_angles = tuple(float(angles[i]) for i in chosen)
    return MusicSpectrum(grid=grid, values=values, peaks=peak_angles, degraded=degraded)


def ls_channel(obs: ObservationSet, aoas: AoAVector) -> np.ndarray:
    """Least-squares gains at fixed AoAs: per snapshot the minimizer of
    ||y_m - A(aoas) h||, i.e. (A^H A)^{-1} A^H y_m, computed by SVD.

    Rejects steering matrices with fewer rows than users or condition
    number above 1e12, read from the singular values of that same SVD; a
    zero or NaN one fails too.
    """
    a_hat = array_matrix(obs.array, aoas)
    solution, _res, _rank, sv = np.linalg.lstsq(a_hat, obs.signal, rcond=None)
    if sv.size < aoas.k_users or not sv[0] <= _MAX_LS_CONDITION * sv[-1]:
        raise ValueError("steering matrix is numerically rank-deficient")
    return solution
