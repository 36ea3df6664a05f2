"""Physical model of the uplink: uniform linear array response, block-fading
complex Gaussian channels, and received-signal synthesis.

Conventions used across the package:
- angles are radians internally; degrees appear only at the CLI boundary
- the received block is an N x M complex matrix Y (antennas x snapshots)
- channel gains are a K x M complex matrix, one column per snapshot
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_ANGLE_BOUND = np.pi / 2 + 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    """Copy an array and lock it; domain types hold immutable values."""
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array geometry.

    Parameters
    ----------
    n_antennas : int
        Number of elements N, at least 2.
    spacing_ratio : float
        Element spacing over carrier wavelength d/lambda. Only the ratio
        enters the model. Must be >= 0.5.
    """

    n_antennas: int
    spacing_ratio: float

    def __post_init__(self):
        if not (isinstance(self.n_antennas, (int, np.integer)) and self.n_antennas >= 2):
            raise ValueError("n_antennas must be an integer >= 2")
        if isinstance(self.spacing_ratio, bool) or not 0.5 <= self.spacing_ratio < math.inf:
            raise ValueError("spacing_ratio must be a finite number >= 0.5")


@dataclass(frozen=True)
class AoAVector:
    """Angles of arrival for the K users, radians in [-pi/2, pi/2]. The
    angles are copied once and the copy is locked; the caller's array is
    left as it was."""

    angles: np.ndarray

    def __post_init__(self):
        a = np.array(self.angles, dtype=float).reshape(-1)
        if a.size == 0:
            raise ValueError("at least one angle required")
        # written so that NaN fails the check
        if not np.abs(a).max() <= _ANGLE_BOUND:
            raise ValueError("angles must be finite and lie in [-pi/2, pi/2]")
        a.setflags(write=False)
        object.__setattr__(self, "angles", a)

    @property
    def k_users(self) -> int:
        return self.angles.size


@dataclass(frozen=True)
class ChannelPrior:
    """Per-snapshot complex Gaussian prior CN(mean, covariance) on the K gains.

    mean and covariance must be finite, covariance Hermitian (to 1e-12
    element-wise) and positive definite; this is checked at construction,
    where the factors are computed once and locked: Cholesky ``cholesky``,
    ``log_det`` = ln det(covariance), ``precision``, the inverse made
    exactly Hermitian, and ``precision_mean`` = precision @ mean.
    """

    mean: np.ndarray
    covariance: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False)
    log_det: float = field(init=False, repr=False)
    precision: np.ndarray = field(init=False, repr=False)
    precision_mean: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=complex).reshape(-1)
        cov = np.asarray(self.covariance, dtype=complex)
        if cov.shape != (mu.size, mu.size):
            raise ValueError("covariance must be K x K for a K-vector mean")
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise ValueError("prior mean and covariance must be finite")
        if not np.abs(cov - cov.conj().T).max() <= 1e-12:
            raise ValueError("covariance must be Hermitian within 1e-12")
        if not np.linalg.eigvalsh(cov).min() > 0:
            raise ValueError("covariance must be positive definite")
        cov = _frozen(cov)
        chol = np.linalg.cholesky(cov)
        prec = np.linalg.inv(cov)
        object.__setattr__(self, "mean", _frozen(mu))
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "cholesky", _frozen(chol))
        object.__setattr__(self, "log_det", 2.0 * float(np.sum(np.log(np.real(np.diag(chol))))))
        object.__setattr__(self, "precision", _frozen(0.5 * (prec + prec.conj().T)))
        object.__setattr__(self, "precision_mean", _frozen(self.precision @ self.mean))

    @property
    def k_users(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class ChannelRealization:
    """Sampled block-fading channel: the K x M complex gains h, whose polar
    form h = beta * exp(j * psi) is np.abs(h) and np.angle(h)."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=complex)
        if g.ndim != 2:
            raise ValueError("gains must be a K x M matrix")
        object.__setattr__(self, "gains", _frozen(g))

    @property
    def n_snapshots(self) -> int:
        return self.gains.shape[1]


@dataclass(frozen=True)
class ObservationSet:
    """One received block: signal Y (N x M), known noise variance, geometry."""

    signal: np.ndarray
    noise_variance: float
    array: ArrayConfig

    def __post_init__(self):
        y = np.asarray(self.signal, dtype=complex)
        if y.ndim != 2:
            raise ValueError("signal must be an N x M matrix")
        if y.shape[0] != self.array.n_antennas:
            raise ValueError("signal row count must equal array.n_antennas")
        if not np.isfinite(y).all():
            raise ValueError("signal samples must be finite")
        if isinstance(self.noise_variance, bool) or not 0 <= self.noise_variance < math.inf:
            raise ValueError("noise_variance must be a finite number >= 0")
        object.__setattr__(self, "signal", _frozen(y))

    @property
    def n_snapshots(self) -> int:
        return self.signal.shape[1]


@lru_cache(maxsize=8)
def _antenna_index(n_antennas: int) -> np.ndarray:
    """The N x 1 column [0..N-1]; shared and read-only."""
    out = np.arange(n_antennas)[:, None]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _phase_column(array: ArrayConfig) -> np.ndarray:
    """The N x 1 steering phase slope -2j*pi*(d/lambda)*n, built once per
    array; shared and read-only."""
    out = -2j * np.pi * array.spacing_ratio * _antenna_index(array.n_antennas)
    out.setflags(write=False)
    return out


def _steering(array: ArrayConfig, angles: np.ndarray) -> np.ndarray:
    """Steering vectors exp(-j * 2*pi * (d/lambda) * n * sin(theta)) for
    n = 0..N-1, one column per angle. Leading axes of ``angles``
    broadcast: a (K,) input gives N x K, a (B, K) input B x N x K. This is
    the one place the steering phase is built."""
    phase = _phase_column(array) * np.sin(angles)[..., None, :]
    return np.exp(phase, out=phase)


def array_matrix(array: ArrayConfig, aoas: AoAVector) -> np.ndarray:
    """N x K matrix of array response (steering) vectors, column k for a
    plane wave from aoas.angles[k].

    Element (n, k), n 0-indexed, is exp(-j * 2*pi * (d/lambda) * n *
    sin(theta_k)). Row 0 is exactly 1, every element has unit magnitude.
    """
    return _steering(array, aoas.angles)


def sample_channel(
    prior: ChannelPrior, n_snapshots: int, rng: np.random.Generator
) -> ChannelRealization:
    """Draw M i.i.d. per-snapshot gain vectors from CN(mean, covariance).

    Circular symmetry: real and imaginary parts of the whitened vector are
    i.i.d. N(0, 1/2), coloured by the prior's stored Cholesky factor.
    """
    if n_snapshots < 1:
        raise ValueError("n_snapshots must be >= 1")
    k = prior.k_users
    eps = rng.standard_normal((k, n_snapshots)) + 1j * rng.standard_normal((k, n_snapshots))
    eps *= np.sqrt(0.5)
    gains = prior.mean[:, None] + prior.cholesky @ eps
    return ChannelRealization(gains)


def synthesize_observation(
    array: ArrayConfig,
    aoas: AoAVector,
    channel: ChannelRealization,
    noise_variance: float,
    rng: np.random.Generator,
) -> ObservationSet:
    """Received block Y = A(theta) H + noise, noise i.i.d. CN(0, sigma^2).

    With noise_variance = 0 the output is exactly A(theta) H; a negative one
    is rejected by ObservationSet.
    """
    if channel.gains.shape[0] != aoas.k_users:
        raise ValueError("channel user count must match aoas")
    a = array_matrix(array, aoas)
    y = a @ channel.gains
    if noise_variance > 0:
        m = channel.n_snapshots
        noise = rng.standard_normal((array.n_antennas, m)) + 1j * rng.standard_normal(
            (array.n_antennas, m)
        )
        y = y + np.sqrt(noise_variance / 2) * noise
    return ObservationSet(signal=y, noise_variance=float(noise_variance), array=array)


def _snr_ratio(snr_db: float) -> float:
    """10^(snr_db/10), +inf at +inf dB; ValueError for any other SNR whose
    ratio is no positive finite float (NaN, -inf, underflow, overflow)."""
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.nan
    if not (ratio > 0.0 and (ratio < math.inf or snr_db == math.inf)):
        raise ValueError(f"snr_db {snr_db!r} gives no positive finite linear SNR")
    return ratio


def snr_to_noise_variance(
    snr_db: float, array: ArrayConfig, prior: ChannelPrior, aoas: AoAVector
) -> float:
    """Noise variance for a target average receive SNR per antenna.

    Definition (recorded in the README and in benchmark metadata):

        sigma^2 = E[ ||A(theta) h||^2 ] / (N * 10^(snr_db/10)),
        E[ ||A(theta) h||^2 ] = tr(A Sigma_h A^H) + mu_h^H A^H A mu_h.

    snr_db = +inf yields exactly 0 (noiseless). Any other snr_db whose
    10^(snr_db/10) is not a positive finite float raises ValueError.
    """
    ratio = _snr_ratio(snr_db)
    a = array_matrix(array, aoas)
    gram = a.conj().T @ a
    power = float(
        np.real(np.trace(gram @ prior.covariance))
        + np.real(prior.mean.conj() @ gram @ prior.mean)
    )
    # finite power over an infinite ratio is exactly 0
    return power / (array.n_antennas * ratio)
