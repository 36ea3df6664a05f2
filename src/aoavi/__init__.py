"""Unsupervised angle-of-arrival and channel-gain estimation for uplink
antenna arrays.

The package estimates user directions and per-snapshot complex channel gains
from a single block of received uplink signals, without labels, by minimizing
a variational free-energy objective (a Gaussian KL term plus an expected
reconstruction error) directly over the estimates. It also ships a
loss-landscape analyzer (global-optimum aliases, stationary points, surface
grids), classical baselines (MUSIC, least squares), and a deterministic
Monte Carlo benchmark harness with a CLI.
"""

__version__ = "0.1.0"

from .signal_model import (
    ArrayConfig,
    AoAVector,
    ChannelPrior,
    ChannelRealization,
    ObservationSet,
    array_response,
    array_matrix,
    sample_channel,
    synthesize_observation,
    snr_to_noise_variance,
)
from .preprocess import (
    AngleGrid,
    PseudoLabels,
    Sector,
    empirical_covariance,
    codebook_correlation,
    pseudo_labels,
    sector_grid,
)
from .loss import (
    VariationalState,
    LossBreakdown,
    kl_gaussian,
    expected_reconstruction_observed,
    population_reconstruction,
    total_loss,
    reparameterize_sample,
    recover_path_parameters,
)
from .estimator import (
    OptimizerConfig,
    EstimationResult,
    closed_form_channel_update,
    aoa_gradient_observed,
    estimate,
)
from .landscape import (
    GlobalOptimaSet,
    StationaryPointSet,
    LossSurface,
    AxisSpec,
    enumerate_global_optima,
    stationary_points,
    exact_population_gradient,
    stationary_condition_lhs,
    stationary_condition_finite_sum,
    evaluate_surface,
)
from .baselines import MusicSpectrum, music_estimate, ls_channel
from .harness import Scenario, MetricRow, run_benchmark, run_landscape_export

__all__ = [
    "__version__",
    "ArrayConfig",
    "AoAVector",
    "ChannelPrior",
    "ChannelRealization",
    "ObservationSet",
    "array_response",
    "array_matrix",
    "sample_channel",
    "synthesize_observation",
    "snr_to_noise_variance",
    "AngleGrid",
    "PseudoLabels",
    "Sector",
    "empirical_covariance",
    "codebook_correlation",
    "pseudo_labels",
    "sector_grid",
    "VariationalState",
    "LossBreakdown",
    "kl_gaussian",
    "expected_reconstruction_observed",
    "population_reconstruction",
    "total_loss",
    "reparameterize_sample",
    "recover_path_parameters",
    "OptimizerConfig",
    "EstimationResult",
    "closed_form_channel_update",
    "aoa_gradient_observed",
    "estimate",
    "GlobalOptimaSet",
    "StationaryPointSet",
    "LossSurface",
    "AxisSpec",
    "enumerate_global_optima",
    "stationary_points",
    "exact_population_gradient",
    "stationary_condition_lhs",
    "stationary_condition_finite_sum",
    "evaluate_surface",
    "MusicSpectrum",
    "music_estimate",
    "ls_channel",
    "Scenario",
    "MetricRow",
    "run_benchmark",
    "run_landscape_export",
]
