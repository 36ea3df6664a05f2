"""Deterministic Cramér–Rao bound on the AoAs of a uniform linear array.

Stoica & Nehorai, "MUSIC, maximum likelihood, and Cramér–Rao bound",
IEEE Trans. ASSP 37(5), 1989. The gains are deterministic nuisance
parameters and the noise is circular complex Gaussian with variance
sigma^2 per entry, as in ``aoavi.signal_model.synthesize_observation``:

    CRB(theta)^-1 = (2 / sigma^2) Re{ (D^H P_A^perp D) ∘ (sum_m h_m h_m^H)^T }

with A the steering matrix, D its derivative with respect to each angle
and P_A^perp the projector onto the orthogonal complement of range(A).
"""

from __future__ import annotations

import numpy as np


def deterministic_crb(
    n_antennas: int,
    spacing_ratio: float,
    angles: np.ndarray,
    gains: np.ndarray,
    noise_variance: float,
) -> np.ndarray:
    """K x K bound on the AoA error covariance (radians^2) for one block
    with true angles (K,) and true gains (K x M)."""
    angles = np.asarray(angles, dtype=float)
    n = np.arange(n_antennas)[:, None]
    phase_rate = 2.0 * np.pi * spacing_ratio * n
    steer = np.exp(-1j * phase_rate * np.sin(angles)[None, :])
    deriv = steer * (-1j * phase_rate * np.cos(angles)[None, :])
    proj_perp = np.eye(n_antennas) - steer @ np.linalg.pinv(steer)
    curvature = deriv.conj().T @ proj_perp @ deriv
    gains = np.asarray(gains, dtype=complex)
    power = gains @ gains.conj().T
    fisher = (2.0 / noise_variance) * np.real(curvature * power.T)
    return np.linalg.inv(fisher)
