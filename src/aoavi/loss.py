"""The variational objective: a per-snapshot Gaussian KL term plus the
expected reconstruction error of the received block, with exact analytical
expectations. All snapshots share one channel prior and one K x K posterior
covariance.

All KL quantities are for circularly symmetric complex Gaussians, where

    KL( CN(m0, S0) || CN(m1, S1) )
        = tr(S1^-1 S0) + (m1 - m0)^H S1^-1 (m1 - m0) - K + ln(|S1| / |S0|),

with no 1/2 factor (unlike the real case). Constants are kept so the KL is
exactly zero at equality and non-negative everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_model import (
    AoAVector,
    ArrayConfig,
    ChannelPrior,
    ObservationSet,
    array_matrix,
    _antenna_index,
    _frozen,
)


@dataclass(frozen=True)
class VariationalState:
    """Factorized posterior parameters: point AoA estimates plus a complex
    Gaussian CN(mean_m, cov) per snapshot for the channel gains.

    channel_means is K x M (column m belongs to snapshot m);
    channel_covariance is one K x K matrix shared by every snapshot, as
    the closed-form channel update produces it. It must be Hermitian PSD
    within 1e-10.
    """

    aoa_estimate: AoAVector
    channel_means: np.ndarray
    channel_covariance: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.channel_means, dtype=complex)
        if mu.ndim != 2:
            raise ValueError("channel_means must be K x M")
        k = mu.shape[0]
        if k != self.aoa_estimate.k_users:
            raise ValueError("channel_means row count must equal the user count")
        cov = np.asarray(self.channel_covariance, dtype=complex)
        if cov.shape != (k, k):
            raise ValueError("channel_covariance must be K x K")
        if np.max(np.abs(cov - cov.conj().T)) > 1e-10:
            raise ValueError("covariance must be Hermitian within 1e-10")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10 * scale:
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "channel_means", _frozen(mu))
        object.__setattr__(self, "channel_covariance", _frozen(cov))


@dataclass(frozen=True)
class LossBreakdown:
    """Loss split into its KL and reconstruction parts; total is their sum."""

    kl_term: float
    reconstruction_term: float

    def __post_init__(self):
        if self.kl_term < -1e-10:
            raise ValueError("kl_term must be non-negative (within 1e-10)")
        if self.reconstruction_term < -1e-10:
            raise ValueError("reconstruction_term must be non-negative (within 1e-10)")

    @property
    def total(self) -> float:
        return float(self.kl_term) + float(self.reconstruction_term)


def kl_gaussian(q_mean: np.ndarray, q_cov: np.ndarray, prior: ChannelPrior) -> float:
    """KL divergence of CN(q_mean, q_cov) from the prior, constants kept.

    q_mean is a K-vector, or a K x M matrix whose columns share q_cov; the
    divergence is then summed over the M columns. Zero iff the two
    distributions coincide. Singular q_cov is rejected (the KL is infinite
    there); the prior covariance is positive definite by construction of
    ChannelPrior.

    The prior enters through its stored precision and log_det, so no prior
    matrix is factorized here; the eigvalsh of q_cov is both the
    positive-definiteness check and ln det q_cov.
    """
    q_mean = np.asarray(q_mean, dtype=complex)
    if q_mean.ndim == 1:
        q_mean = q_mean[:, None]
    q_cov = np.asarray(q_cov, dtype=complex)
    k = prior.k_users
    if q_mean.ndim != 2 or q_mean.shape[0] != k or q_cov.shape != (k, k):
        raise ValueError("q dimensions must match the prior")
    q_eigs = np.linalg.eigvalsh(q_cov)
    if q_eigs.min() <= 0:
        raise ValueError("q_cov must be positive definite (KL is infinite otherwise)")
    p = prior.precision
    trace_term = float((p * q_cov.T).sum().real)
    logdet_q = float(np.log(q_eigs).sum())
    d = q_mean - prior.mean[:, None]
    quad = float((d.conj() * (p @ d)).sum().real)
    return q_mean.shape[1] * (trace_term - k + prior.log_det - logdet_q) + quad


def _sum(a_hat: np.ndarray, resid: np.ndarray, cov: np.ndarray) -> float:
    """The reconstruction sum from A and the residual Y - A Mu:
    ||resid||_F^2 + sum_m tr(A Cov A^H), the latter as M tr(gram Cov)."""
    sq = float(np.vdot(resid, resid).real)
    gram = a_hat.conj().T @ a_hat
    return sq + resid.shape[1] * float((gram * cov.T).sum().real)


def _reconstruction_sum_raw(
    signal: np.ndarray,
    array: ArrayConfig,
    angles: np.ndarray,
    means: np.ndarray,
    cov: np.ndarray,
) -> float:
    """Reconstruction sum on raw arrays; hot path for line searches."""
    a_hat = array_matrix(array, AoAVector(angles))
    return _sum(a_hat, signal - a_hat @ means, cov)


def _state_loss(
    obs: ObservationSet, prior: ChannelPrior, angles: np.ndarray, means: np.ndarray, cov: np.ndarray
) -> tuple[LossBreakdown, float, np.ndarray]:
    """(breakdown, raw reconstruction sum, exact AoA gradient of the loss)
    at one state, from one steering matrix and one residual: the scorer of
    estimate()'s trace entries and of total_loss. The divergence term does
    not involve the AoAs. At zero noise variance the loss is the raw sum
    with the KL term 0 and the gradient is the raw sum's; else both are
    divided by the variance."""
    a_hat = array_matrix(obs.array, AoAVector(angles))
    resid = obs.signal - a_hat @ means
    raw = _sum(a_hat, resid, cov)
    # phase-slope vector per user: 2*pi*(d/lambda)*cos(theta_k) * [0..N-1]
    slope = 2.0 * np.pi * obs.array.spacing_ratio * np.cos(angles)
    d_mat = a_hat * (_antenna_index(obs.array.n_antennas) * slope[None, :])
    # resid is Y - A Mu, so the data part of the gradient enters negated
    data = (means.T * (resid.conj().T @ d_mat)).sum(axis=0).imag
    # sum_m Cov_m = M Cov
    spread = (d_mat * (a_hat @ (means.shape[1] * cov)).conj()).sum(axis=0).imag
    grad = 2.0 * (spread - data)
    s2 = obs.noise_variance
    if s2 == 0.0:
        return LossBreakdown(0.0, raw), raw, grad
    return LossBreakdown(kl_gaussian(means, cov, prior), raw / s2), raw, grad / s2


def total_loss(obs: ObservationSet, state: VariationalState, prior: ChannelPrior) -> LossBreakdown:
    """Negative evidence bound: the snapshots' summed KL from the prior plus
    the normalized expected reconstruction error. It shares estimate()'s
    scorer, so it equals each trace entry exactly, also at zero noise."""
    angles, means, cov = state.aoa_estimate.angles, state.channel_means, state.channel_covariance
    return _state_loss(obs, prior, angles, means, cov)[0]
