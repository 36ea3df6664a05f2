"""Classical reference methods: subspace AoA search over a grid and
least-squares channel recovery at fixed AoAs."""

from __future__ import annotations

import math
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
    other input is copied and locked. The peaks must be ascending, and each
    within 1e-12 of a grid angle: the check rounds each peak to its grid
    index and compares it with that angle and its two neighbours, so it
    costs O(K) for any grid size.
    """

    grid: AngleGrid
    values: np.ndarray
    peaks: tuple[float, ...]
    degraded: bool = False

    def __post_init__(self):
        angles = self.grid.angles()
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != angles.shape:
            raise ValueError("one spectrum value per grid point required")
        # written so that NaN fails every check
        if not vals.min() >= 0:
            raise ValueError("spectrum values must be non-negative")
        peaks = [float(p) for p in self.peaks]
        # a NaN is not out of order here; the grid check rejects it
        if any(b < a for a, b in zip(peaks, peaks[1:])):
            raise ValueError("peaks must be sorted ascending")
        # a peak within 1e-12 of a grid angle rounds to that angle's index
        # (past either end, clamped to the end); its two neighbours are a
        # margin for the rounding of (p - min_angle) / step and of the angles
        last = angles.size - 1
        for p in peaks:
            if not math.isfinite(p):
                raise ValueError("peaks must lie on the grid")
            i = round(min(max((p - self.grid.min_angle) / self.grid.step, 0.0), last))
            near = angles[max(i - 1, 0) : i + 2].tolist()
            if not any(abs(a - p) <= 1e-12 for a in near):
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

    E E^H = I - P with P = U U^H, and a ULA steering vector is a_n = z^n,
    n = 0..N-1, with z = exp(-j 2 pi (d/lambda) sin theta) on the unit
    circle, so ||E^H a||^2 = N - a^H P a is the real part of the polynomial
    sum_l c_l z^l with c_0 = N - p_0 and c_l = -2 conj(p_l), where
    p_l = sum_m P[m+l, m] are P's lag sums: root-MUSIC's coefficients
    (Barabell, ICASSP 1983). ``_steering_products`` evaluates that one row
    over the grid, O(N G) for any K, after O(N^2 K) for the lag sums. Near a
    noiseless peak the sum can round to just below zero; the 1e-8 floor
    absorbs the round-off as it absorbs exact orthogonality.
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

    _eigvals, eigvecs = np.linalg.eigh(empirical_covariance(obs))
    # lag sums of U U^H, one correlation per signal eigenvector
    lags = sum(np.correlate(u, u, "full")[n - 1 :] for u in eigvecs[:, n - k_sources :].T)
    coef = -2.0 * lags.conj()
    coef[0] = n - lags[0]
    values = np.empty(grid.n_points)
    for cols, proj in _steering_products(coef[None, :], obs.array, grid):
        values[cols] = proj[0].real
    np.maximum(values, _EIGEN_FLOOR, out=values)
    np.divide(1.0, values, out=values)
    values.setflags(write=False)
    angles = grid.angles()
    chosen, degraded = _pick_peaks(values, angles, k_sources)
    peak_angles = tuple(float(angles[i]) for i in chosen)
    return MusicSpectrum(grid=grid, values=values, peaks=peak_angles, degraded=degraded)


def ls_channel(obs: ObservationSet, aoas: AoAVector) -> np.ndarray:
    """Least-squares gains at fixed AoAs: per snapshot the minimizer of
    ||y_m - A(aoas) h||, i.e. (A^H A)^{-1} A^H y_m, computed from one thin
    SVD A = U diag(s) V^H as V diag(1/s) U^H Y.

    Rejects steering matrices with fewer rows than users or condition
    number above 1e12, read from the singular values of that same SVD; a
    zero or NaN one fails too. Below 4500 antennas this is the solution
    ``np.linalg.lstsq`` returns: its default cutoff, eps * N * s[0], then
    lies under the 1e-12 * s[0] that every accepted s[-1] exceeds.
    """
    a_hat = array_matrix(obs.array, aoas)
    u, sv, vh = np.linalg.svd(a_hat, full_matrices=False)
    if sv.size < aoas.k_users or not sv[0] <= _MAX_LS_CONDITION * sv[-1]:
        raise ValueError("steering matrix is numerically rank-deficient")
    return (vh.conj().T / sv) @ (u.conj().T @ obs.signal)
