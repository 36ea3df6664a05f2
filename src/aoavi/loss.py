"""The variational objective: a per-snapshot Gaussian KL term plus the
expected reconstruction error of the received block, with exact analytical
expectations. Also: reparameterized sampling for Monte Carlo verification
and polar recovery of path parameters. All snapshots share one channel prior.

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
    ChannelRealization,
    ObservationSet,
    array_matrix,
    _frozen,
)


@dataclass(frozen=True)
class VariationalState:
    """Factorized posterior parameters: point AoA estimates plus a complex
    Gaussian CN(mean_m, cov_m) per snapshot for the channel gains.

    channel_means is K x M (column m belongs to snapshot m);
    channel_covariances is M x K x K (a single K x K is broadcast to all
    snapshots). Covariances must be Hermitian PSD within 1e-10.
    """

    aoa_estimate: AoAVector
    channel_means: np.ndarray
    channel_covariances: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.channel_means, dtype=complex)
        if mu.ndim != 2:
            raise ValueError("channel_means must be K x M")
        k, m = mu.shape
        if k != self.aoa_estimate.k_users:
            raise ValueError("channel_means row count must equal the user count")
        cov = np.asarray(self.channel_covariances, dtype=complex)
        if cov.shape == (k, k):
            cov = np.broadcast_to(cov, (m, k, k)).copy()
        if cov.shape != (m, k, k):
            raise ValueError("channel_covariances must be M x K x K (or K x K)")
        herm_err = np.max(np.abs(cov - np.conj(np.swapaxes(cov, -1, -2))))
        if herm_err > 1e-10:
            raise ValueError("covariances must be Hermitian within 1e-10")
        scale = max(1.0, float(np.max(np.abs(cov))) if cov.size else 1.0)
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10 * scale:
            raise ValueError("covariances must be positive semidefinite")
        object.__setattr__(self, "channel_means", _frozen(mu))
        object.__setattr__(self, "channel_covariances", _frozen(cov))

    @property
    def n_snapshots(self) -> int:
        return self.channel_means.shape[1]

    @property
    def k_users(self) -> int:
        return self.channel_means.shape[0]

    def with_aoas(self, angles: np.ndarray) -> "VariationalState":
        """Same channel parameters, new AoA point estimates."""
        return VariationalState(
            aoa_estimate=AoAVector(angles),
            channel_means=self.channel_means,
            channel_covariances=self.channel_covariances,
        )


@dataclass(frozen=True)
class LossBreakdown:
    """Loss split into its KL and reconstruction parts; total is the sum."""

    kl_term: float
    reconstruction_term: float
    total: float

    def __post_init__(self):
        if self.kl_term < -1e-10:
            raise ValueError("kl_term must be non-negative (within 1e-10)")
        if self.reconstruction_term < -1e-10:
            raise ValueError("reconstruction_term must be non-negative (within 1e-10)")
        if abs(self.total - (self.kl_term + self.reconstruction_term)) > 1e-10 * max(
            1.0, abs(self.total)
        ):
            raise ValueError("total must equal kl_term + reconstruction_term")

    @classmethod
    def from_parts(cls, kl_term: float, reconstruction_term: float) -> "LossBreakdown":
        return cls(
            kl_term=float(kl_term),
            reconstruction_term=float(reconstruction_term),
            total=float(kl_term) + float(reconstruction_term),
        )


def kl_gaussian(q_mean: np.ndarray, q_cov: np.ndarray, prior: ChannelPrior) -> float:
    """KL divergence of CN(q_mean, q_cov) from the prior, constants kept.

    q_mean is a K-vector, or a K x M matrix whose columns share q_cov; the
    divergence is then summed over the M columns. Zero iff the two
    distributions coincide. Singular q_cov is rejected (the KL is infinite
    there); the prior covariance is positive definite by construction of
    ChannelPrior.
    """
    q_mean = np.asarray(q_mean, dtype=complex)
    if q_mean.ndim == 1:
        q_mean = q_mean[:, None]
    q_cov = np.asarray(q_cov, dtype=complex)
    k = prior.k_users
    if q_mean.ndim != 2 or q_mean.shape[0] != k or q_cov.shape != (k, k):
        raise ValueError("q dimensions must match the prior")
    q_eigs = np.linalg.eigvalsh(q_cov)
    if np.min(q_eigs) <= 0:
        raise ValueError("q_cov must be positive definite (KL is infinite otherwise)")
    chol_p = np.linalg.cholesky(prior.covariance)
    # tr(Sp^-1 Sq) via the Cholesky whitening of the prior
    w = np.linalg.solve(chol_p, q_cov)
    w = np.linalg.solve(chol_p, w.conj().T).conj().T
    trace_term = float(np.real(np.trace(w)))
    logdet_p = 2.0 * float(np.sum(np.log(np.real(np.diag(chol_p)))))
    logdet_q = float(np.sum(np.log(q_eigs)))
    z = np.linalg.solve(chol_p, q_mean - prior.mean[:, None])
    quad = float(np.real(np.sum(np.conj(z) * z)))
    return q_mean.shape[1] * (trace_term - k + logdet_p - logdet_q) + quad


def expected_reconstruction_observed(
    obs: ObservationSet, state: VariationalState, *, normalized: bool = True
) -> float:
    """Exact expectation over the posterior of the block reconstruction error.

    Normalized form (the loss term):

        (1/sigma^2) * sum_m [ ||y_m - A_hat mu_m||^2 + tr(A_hat Cov_m A_hat^H) ]

    normalized=False drops the 1/sigma^2 factor (used for noiseless paths and
    landscape work). sigma^2 = 0 with normalized=True is rejected.
    """
    raw = _reconstruction_sum(obs.signal, state, obs.array)
    if not normalized:
        return raw
    if obs.noise_variance == 0:
        raise ValueError("normalized reconstruction undefined at zero noise variance")
    return raw / obs.noise_variance


def _reconstruction_sum_raw(
    signal: np.ndarray,
    array: ArrayConfig,
    angles: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
) -> float:
    """Reconstruction sum on raw arrays; hot path for line searches."""
    a_hat = array_matrix(array, AoAVector(np.asarray(angles, dtype=float)))
    resid = signal - a_hat @ means
    sq = float(np.real(np.vdot(resid, resid)))
    gram = a_hat.conj().T @ a_hat
    # sum_m tr(A Cov_m A^H) = sum_m tr(gram Cov_m)
    trace = float(np.real(np.einsum("ij,mji->", gram, covariances)))
    return sq + trace


def _reconstruction_sum(signal: np.ndarray, state: VariationalState, array: ArrayConfig) -> float:
    return _reconstruction_sum_raw(
        signal,
        array,
        state.aoa_estimate.angles,
        state.channel_means,
        state.channel_covariances,
    )


def population_reconstruction(
    true_aoas: AoAVector,
    true_channel: ChannelRealization,
    state: VariationalState,
    array: ArrayConfig,
    noise_variance: float,
    *,
    normalized: bool = False,
) -> float:
    """Noise-averaged reconstruction error (the landscape objective).

    Per snapshot: (A h_m - A_hat mu_m)^H (A h_m - A_hat mu_m) + sigma^2 N
    + tr(A_hat Cov_m A_hat^H). Returned unnormalized by default;
    normalized=True divides by sigma^2.
    """
    clean = array_matrix(array, true_aoas) @ true_channel.gains
    m = true_channel.n_snapshots
    raw = _reconstruction_sum(clean, state, array) + noise_variance * array.n_antennas * m
    if not normalized:
        return raw
    if noise_variance == 0:
        raise ValueError("normalized population loss undefined at zero noise variance")
    return raw / noise_variance


def total_loss(obs: ObservationSet, state: VariationalState, prior: ChannelPrior) -> LossBreakdown:
    """Negative evidence bound: summed per-snapshot KL plus the normalized
    expected reconstruction error. This is the reference evaluator: it
    takes each snapshot's own covariance, so it also scores states whose
    covariances differ across snapshots."""
    kl = 0.0
    for m in range(state.n_snapshots):
        kl += kl_gaussian(state.channel_means[:, m], state.channel_covariances[m], prior)
    recon = expected_reconstruction_observed(obs, state)
    return LossBreakdown.from_parts(kl, recon)


def reparameterize_sample(
    state: VariationalState, snapshot: int, rng: np.random.Generator
) -> np.ndarray:
    """One posterior draw of snapshot m's gains: mu_m + L eps with L L^H the
    covariance and eps circular standard complex Gaussian."""
    cov = state.channel_covariances[snapshot]
    k = state.k_users
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # PSD but singular: eigenvalue square root, tiny negatives clipped
        eigvals, eigvecs = np.linalg.eigh(cov)
        factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    eps = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * np.sqrt(0.5)
    return state.channel_means[:, snapshot] + factor @ eps


def recover_path_parameters(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition of complex gains: magnitudes and two-argument
    angles in (-pi, pi]."""
    g = np.asarray(gains, dtype=complex)
    return np.abs(g), np.angle(g)
