"""Monte Carlo estimators of the contrastive gradient.

Four views of the same target:

- expectation contrast: E_rho_beta[dE] - E_rho0[dE], the exact two-phase
  form (grad J at beta = 1);
- classical EP: the contrast at beta divided by beta, the finite-nudge
  practical update (equal to the contrast at beta = 1);
- integrated covariance: -(1/T) * sum_k w_k Cov_rho_beta_k[l, dE] over a
  quadrature grid on [0, 1];
- supervised covariance: -(1/T) Cov_rho_0[l, dE], the gradient of the
  expected loss at the free phase.

Each estimate carries a per-coordinate standard error computed from the
scatter of independent chain means (n-1 normalisation), so "within k
standard errors of the oracle" is a well-posed acceptance check.  An
estimate samples all its phases (nudged and free, or every node) in one
sampler.run_phases call.  The per-chain sums of dE/dtheta (and
l * dE/dtheta) come from one EnergyModel.chain_sums call per batch, over
the stored free block; the layered net computes them in feature space
(models.py, feature_sums).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import EnergyModel, ParamVector, as_nudge, as_temperature
from .rng import FREE_PHASE, NODE_BASE, NUDGED_PHASE, SUPERVISED_PHASE, derive_seed
from .sampler import ChainConfig, SampleBatch, run_chains, run_phases


class EstimationError(ValueError):
    """The sampling budget cannot support the requested estimate."""


class EstimatorMethod(Enum):
    EXPECTATION_CONTRAST = "expectation_contrast"
    CLASSICAL_EP = "classical_ep"
    INTEGRATED_COVARIANCE = "integrated_covariance"
    SUPERVISED_COVARIANCE = "supervised_covariance"


@dataclass(frozen=True)
class QuadratureSpec:
    """Nodes and weights for integrating over beta in [0, 1].

    Weights are normalised to sum to 1 (the interval has unit length),
    strictly positive, with strictly increasing nodes inside [0, 1].
    """

    nodes: np.ndarray
    weights: np.ndarray
    scheme: str = "custom"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size < 1:
            raise ValueError("nodes and weights must be equal-length 1-D arrays")
        if np.any(nodes < 0.0) or np.any(nodes > 1.0):
            raise ValueError("quadrature nodes must lie in [0, 1]")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"quadrature weights must sum to 1, got {weights.sum()!r}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @classmethod
    def trapezoid(cls, n_nodes: int) -> "QuadratureSpec":
        """Composite trapezoid on a uniform grid including both endpoints."""
        if n_nodes < 2:
            raise ValueError("trapezoid rule needs at least 2 nodes")
        h = 1.0 / (n_nodes - 1)
        weights = np.full(n_nodes, h)
        weights[0] = weights[-1] = h / 2.0
        return cls(np.linspace(0.0, 1.0, n_nodes), weights, scheme="trapezoid")

    @classmethod
    def gauss_legendre(cls, n_nodes: int) -> "QuadratureSpec":
        """Gauss-Legendre nodes mapped from [-1, 1] onto [0, 1]."""
        if n_nodes < 1:
            raise ValueError("gauss_legendre needs at least 1 node")
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        return cls((x + 1.0) / 2.0, w / 2.0, scheme="gauss_legendre")


@dataclass(frozen=True)
class GradEstimate:
    grad: ParamVector
    std_err: np.ndarray
    method: EstimatorMethod
    meta: dict = field(default_factory=dict)


def _batch_meta(batch: SampleBatch) -> dict:
    return {
        "n_samples": batch.n_samples,
        "ess_total": float(batch.ess.sum()),
        "acceptance_rate": batch.acceptance_rate,
        "warnings": list(batch.warnings),
        "theta_hash": batch.theta_hash,
    }


def _chain_mean_grads(model: EnergyModel, theta, batch: SampleBatch) -> np.ndarray:
    """Per-chain means of dE/dtheta, shape (n_chains, param_dim)."""
    return model.chain_sums(theta, batch.init, batch.free_samples) / batch.n_kept


def _chain_covariances(model: EnergyModel, theta, batch: SampleBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per-chain Cov[l, dE/dtheta] with n-1 normalisation, plus mean losses.

    Products are centred on the pooled cross-chain means rather than each
    chain's own mean: own-mean centring biases every chain identically by
    O(autocorrelation time / n_kept), which chain scatter cannot see,
    while pooled centring divides that bias by the chain count.
    """
    k = batch.n_kept
    if k < 2:
        raise EstimationError(f"covariance needs >= 2 kept samples per chain, got {k}")
    g_sums, losses, lg_sums = model.chain_sums(theta, batch.init, batch.free_samples, weighted=True)
    l_sums = losses.sum(axis=1)
    pooled_l = l_sums.sum() / (batch.n_chains * k)
    pooled_g = g_sums.sum(axis=0) / (batch.n_chains * k)
    # (lg - pooled_l g - l pooled_g + k pooled_l pooled_g) / (k - 1), evaluated left to
    # right in place on lg: with g, at most three (n_chains, param_dim) arrays are live
    covs = lg_sums
    covs -= pooled_l * g_sums
    covs -= l_sums[:, None] * pooled_g
    covs += k * pooled_l * pooled_g
    covs /= k - 1
    return covs, l_sums / k


def _mean_and_stderr(per_chain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = per_chain.shape[0]
    if c < 2:
        raise EstimationError("std_err needs >= 2 independent chains")
    return per_chain.mean(axis=0), np.sqrt(per_chain.var(axis=0, ddof=1) / c)


def grad_contrast_mc(
    model: EnergyModel, theta, temperature, config: ChainConfig, init=None, beta=1.0
) -> GradEstimate:
    """Two-phase contrast at nudge beta: mean dE under rho_beta minus under rho_0.

    Estimates grad[A(theta, beta) - A(theta, 0)], which at the default
    beta = 1 is grad J.  The one-draw view of grad_contrast_draws.
    """
    return grad_contrast_draws(model, theta, temperature, config, [config.seed], init, beta)[0]


def grad_contrast_draws(
    model: EnergyModel, theta, temperature, config: ChainConfig, seeds, init=None, beta=1.0
) -> list[GradEstimate]:
    """grad_contrast_mc under config.with_seed(s) for each s in seeds, as one phase block."""
    b = as_nudge(beta)
    theta = model.validate_theta(theta)
    phases = [(phase_beta, derive_seed(seed, tag)) for seed in seeds
              for phase_beta, tag in ((b, NUDGED_PHASE), (0.0, FREE_PHASE))]
    batches = run_phases(model, theta, temperature, config, phases, init)
    estimates = []
    for nudged, free in zip(batches[::2], batches[1::2]):
        diffs = _chain_mean_grads(model, theta, nudged) - _chain_mean_grads(model, theta, free)
        mean, stderr = _mean_and_stderr(diffs)
        meta = {"beta": b, "temperature": as_temperature(temperature),
                "nudged": _batch_meta(nudged), "free": _batch_meta(free)}
        estimates.append(GradEstimate(
            model.param_vector(mean), stderr, EstimatorMethod.EXPECTATION_CONTRAST, meta
        ))
    return estimates


def grad_classical_ep(
    model: EnergyModel, theta, temperature, beta_nudge, config: ChainConfig, init=None
) -> GradEstimate:
    """Finite-nudge update (E_rho_beta[dE] - E_rho_0[dE]) / beta.

    The contrast at beta_nudge, rescaled by 1 / beta_nudge; with
    beta_nudge = 1 it equals grad_contrast_mc bit for bit.
    """
    b = as_nudge(beta_nudge)
    if b <= 0.0:
        raise EstimationError("classical EP needs beta_nudge > 0")
    est = grad_contrast_mc(model, theta, temperature, config, init, beta=b)
    scale = 1.0 / b
    return GradEstimate(
        model.param_vector(scale * est.grad.values), scale * est.std_err,
        EstimatorMethod.CLASSICAL_EP, est.meta,
    )


def grad_covariance_mc(
    model: EnergyModel,
    theta,
    temperature,
    quadrature: QuadratureSpec,
    config: ChainConfig,
    init=None,
) -> GradEstimate:
    """Quadrature over per-node covariance estimates:

    grad J ~= -(1/T) * sum_k w_k Cov_hat_rho_beta_k[l, dE/dtheta].
    """
    theta = model.validate_theta(theta)
    t = as_temperature(temperature)
    total = np.zeros(model.param_dim)
    total_var = np.zeros(model.param_dim)
    node_meta = []
    phases = [(node, derive_seed(config.seed, NODE_BASE + k))
              for k, node in enumerate(quadrature.nodes)]
    batches = run_phases(model, theta, t, config, phases, init)
    for node, weight, batch in zip(quadrature.nodes, quadrature.weights, batches):
        covs, mean_losses = _chain_covariances(model, theta, batch)
        mean, stderr = _mean_and_stderr(covs)
        total += weight * mean
        total_var += (weight * stderr) ** 2
        info = _batch_meta(batch)
        info.update({"beta": float(node), "weight": float(weight),
                     "mean_loss": float(mean_losses.mean())})
        node_meta.append(info)
    meta = {"temperature": t, "scheme": quadrature.scheme, "nodes": node_meta}
    return GradEstimate(
        model.param_vector(-total / t), np.sqrt(total_var) / t,
        EstimatorMethod.INTEGRATED_COVARIANCE, meta,
    )


def grad_supervised_mc(
    model: EnergyModel, theta, temperature, config: ChainConfig, init=None
) -> GradEstimate:
    """Gradient of the expected free-phase loss: -(1/T) Cov_rho_0[l, dE]."""
    theta = model.validate_theta(theta)
    t = as_temperature(temperature)
    batch = run_chains(
        model, theta, 0.0, t,
        config.with_seed(derive_seed(config.seed, SUPERVISED_PHASE)), init,
    )
    covs, mean_losses = _chain_covariances(model, theta, batch)
    mean, stderr = _mean_and_stderr(covs)
    meta = {
        "temperature": t,
        "free": _batch_meta(batch),
        "mean_loss": float(mean_losses.mean()),
    }
    return GradEstimate(
        model.param_vector(-mean / t), stderr / t, EstimatorMethod.SUPERVISED_COVARIANCE, meta
    )
