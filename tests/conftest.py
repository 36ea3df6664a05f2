"""Shared builders for the test suite.

Everything random is seeded; helpers return plain library types so tests
read like short derivations.
"""

import math

import numpy as np
import pytest

from aoavi.signal_model import (
    AoAVector,
    ArrayConfig,
    ChannelPrior,
    ChannelRealization,
    array_matrix,
    sample_channel,
    synthesize_observation,
)
from aoavi.loss import VariationalState, _reconstruction_sum_raw


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def steering_vector(array: ArrayConfig, theta: float) -> np.ndarray:
    """The array response to one plane wave from theta: array_matrix's
    only column."""
    return array_matrix(array, AoAVector([theta]))[:, 0]


def population_reconstruction(
    true_aoas: AoAVector,
    true_channel: ChannelRealization,
    state: VariationalState,
    array: ArrayConfig,
    noise_variance: float,
) -> float:
    """Noise-averaged reconstruction error (the landscape objective),
    unnormalized: the oracle of the landscape, loss and acceptance tests.

    Per snapshot: (A h_m - A_hat mu_m)^H (A h_m - A_hat mu_m) + sigma^2 N
    + tr(A_hat Cov A_hat^H).
    """
    clean = array_matrix(array, true_aoas) @ true_channel.gains
    m = true_channel.n_snapshots
    return (
        _reconstruction_sum_raw(
            clean,
            array,
            state.aoa_estimate.angles,
            state.channel_means,
            state.channel_covariance,
        )
        + noise_variance * array.n_antennas * m
    )


def random_pd(k: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian positive-definite K x K matrix with margin."""
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    m = a @ a.conj().T / k + 0.25 * np.eye(k)
    return scale * (m + m.conj().T) / 2.0


def random_prior(k: int, rng: np.random.Generator) -> ChannelPrior:
    mean = rng.normal(size=k) + 1j * rng.normal(size=k)
    return ChannelPrior(mean=mean, covariance=random_pd(k, rng))


def random_problem(
    rng: np.random.Generator,
    n: int = 16,
    k: int = 2,
    m: int = 5,
    snr_like_noise: float = 0.2,
    max_angle_deg: float = 60.0,
):
    """One synthetic observation plus a mismatched variational state.

    The state is a perturbation of the truth, not the optimum, so finite
    difference checks probe generic (non-stationary) points.
    """
    array = ArrayConfig(n_antennas=n, spacing_ratio=0.5)
    angles = np.sort(
        rng.uniform(-math.radians(max_angle_deg), math.radians(max_angle_deg), size=k)
    )
    aoas = AoAVector(angles)
    prior = random_prior(k, rng)
    channel = sample_channel(prior, m, rng)
    obs = synthesize_observation(array, aoas, channel, snr_like_noise, rng)

    est_angles = np.clip(
        angles + rng.normal(scale=math.radians(1.5), size=k),
        -math.pi / 2,
        math.pi / 2,
    )
    means = channel.gains + 0.3 * (
        rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    )
    # M draws, so callers that keep using rng see the same stream; every
    # snapshot shares the first
    covs = [random_pd(k, rng, scale=0.05) for _ in range(m)]
    state = VariationalState(
        aoa_estimate=AoAVector(np.sort(est_angles)),
        channel_means=means,
        channel_covariance=covs[0],
    )
    return obs, state, prior, aoas, channel


@pytest.fixture
def rng():
    return make_rng(20260818)
