"""Finite-temperature contrastive learning on energy-based models.

The stochastic contrastive objective J(theta) = A(theta, 1) - A(theta, 0)
is the free-energy gap between the loss-nudged and free Gibbs
distributions of an energy model.  This package provides exact
enumeration oracles for J and both of its gradient representations, MCMC
estimators of those gradients, alignment/SNR diagnostics, and a trainer
for finite-nudge equilibrium propagation on a layered tanh network.
"""

from .core import (
    EPS_ABS,
    DivergenceError,
    EnergyModel,
    EvaluationError,
    NudgeStrength,
    ParamVector,
    StateKind,
    Temperature,
    check_grad_state,
    check_grad_theta,
    objective_kernel,
)
from .data import Dataset, load_idx, make_blobs, one_hot, save_idx, train_test_blobs
from .diagnostics import SweepResult, alignment_sweep, cosine, snr_of_perturbation
from .estimators import (
    EstimationError,
    EstimatorMethod,
    GradEstimate,
    QuadratureSpec,
    grad_classical_ep,
    grad_contrast_mc,
    grad_covariance_mc,
    grad_supervised_mc,
)
from .models import (
    FeedforwardBaseline,
    LayeredTanhEnergyNet,
    QuadraticEnergyModel,
    SpinGlassModel,
    TwoStateModel,
    random_spin_glass,
)
from .oracle import (
    EnumerationRefusedError,
    contrastive_objective,
    decomposition_residual,
    exact_dA_dbeta,
    exact_grad_J_contrast,
    exact_grad_J_covariance,
    free_energy,
    gibbs_table,
    kl_nudged_free,
    log_partition_function,
    run_consistency_suite,
    variational_free_energy,
)
from .sampler import (
    ChainConfig,
    Kernel,
    SampleBatch,
    effective_sample_size,
    run_chains,
    run_phases,
)
from .train import Checkpoint, TrainConfig, TrainResult, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "EPS_ABS",
    "ChainConfig",
    "Checkpoint",
    "Dataset",
    "DivergenceError",
    "EnergyModel",
    "EnumerationRefusedError",
    "EstimationError",
    "EstimatorMethod",
    "EvaluationError",
    "FeedforwardBaseline",
    "GradEstimate",
    "Kernel",
    "LayeredTanhEnergyNet",
    "NudgeStrength",
    "ParamVector",
    "QuadratureSpec",
    "QuadraticEnergyModel",
    "SampleBatch",
    "SpinGlassModel",
    "StateKind",
    "SweepResult",
    "Temperature",
    "TrainConfig",
    "TrainResult",
    "TwoStateModel",
    "alignment_sweep",
    "check_grad_state",
    "check_grad_theta",
    "contrastive_objective",
    "cosine",
    "decomposition_residual",
    "effective_sample_size",
    "exact_dA_dbeta",
    "exact_grad_J_contrast",
    "exact_grad_J_covariance",
    "free_energy",
    "gibbs_table",
    "grad_classical_ep",
    "grad_contrast_mc",
    "grad_covariance_mc",
    "grad_supervised_mc",
    "kl_nudged_free",
    "load_checkpoint",
    "load_idx",
    "log_partition_function",
    "make_blobs",
    "objective_kernel",
    "one_hot",
    "random_spin_glass",
    "run_chains",
    "run_phases",
    "run_consistency_suite",
    "save_checkpoint",
    "save_idx",
    "snr_of_perturbation",
    "train",
    "train_test_blobs",
    "variational_free_energy",
]
