"""Exact reference values by brute-force enumeration of discrete models.

For a binary model with n sites the 2^n states, their energies and their
losses are tabulated once per (model, theta) in an EnergyTable, and all
Gibbs quantities (partition function, free energy, expectations, both
gradient representations of the contrastive objective, KL terms,
variational bounds) are computed in log space from that table.
These are the ground truth every estimator is measured against, so this
module deliberately stays simple: plain sums over the state table, with
a single max-shifted log-sum-exp for numerical safety.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    EPS_ABS,
    EnergyModel,
    EvaluationError,
    StateKind,
    as_nudge,
    as_temperature,
    central_difference_grad,
)
from .estimators import QuadratureSpec
from .models import random_spin_glass

# Enumeration is 2^n in time and memory; past 16 sites a "quick exact
# check" silently becomes a million-state scan, so refuse loudly.
DEFAULT_N_MAX = 16


class EnumerationRefusedError(ValueError):
    """Raised when a model is too large for exact enumeration."""


def enumerate_states(model: EnergyModel, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """All 2^n states of a binary model, one per row, in fixed order."""
    if model.state_kind is not StateKind.BINARY:
        raise EnumerationRefusedError("exact enumeration requires a binary state space")
    n = model.state_dim
    if n > n_max:
        raise EnumerationRefusedError(
            f"model has {n} sites; enumeration is capped at n_max={n_max} (2^{n} states)"
        )
    lo, hi = model.site_values
    codes = np.arange(2**n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.where(bits == 1, hi, lo).astype(np.float64)


def _logsumexp(logw: np.ndarray) -> float:
    m = np.max(logw)
    return float(m + np.log(np.sum(np.exp(logw - m))))


@dataclass(frozen=True)
class GibbsTable:
    """Full Gibbs distribution of the nudged kernel on the state table."""

    states: np.ndarray
    log_probs: np.ndarray
    log_z: float
    beta: float
    temperature: float

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def expectation(self, values: np.ndarray) -> np.ndarray:
        """E_rho[values], where values has one row (or scalar) per state."""
        return self.probs @ np.asarray(values, dtype=np.float64)


# Trapezoid grids nest (every node of a grid is a node of the next), so the
# ladder costs one covariance per node of its finest grid.
QUADRATURE_LADDER = (5, 9, 17, 33, 65, 129, 257)


@dataclass(frozen=True)
class EnergyTable:
    """Every state of a binary model with its energy and loss at one theta.

    Built once per (model, theta) from one energy_batch and one loss_batch
    call.  Every exact quantity, at any beta, temperature, quadrature node
    or trial distribution, reads this table instead of re-enumerating.
    """

    model: EnergyModel
    theta: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    losses: np.ndarray

    @classmethod
    def build(cls, model: EnergyModel, theta) -> "EnergyTable":
        theta = model.validate_theta(theta)
        states = enumerate_states(model)
        energies = model.energy_batch(theta, states)
        if not np.isfinite(energies).all():
            raise EvaluationError("energy evaluated to a non-finite value in a batch")
        return cls(model, theta, states, energies, model.loss_batch(states))

    @cached_property
    def _finite_losses(self) -> bool:
        return bool(np.isfinite(self.losses).all())

    def kernel(self, beta: float) -> np.ndarray:
        """F(theta, beta, s) per state.

        As in core.kernel_batch, the losses must be finite only when beta != 0.
        """
        if beta == 0.0:
            return self.energies
        if not self._finite_losses:
            raise EvaluationError("loss evaluated to a non-finite value in a batch")
        return self.energies + beta * self.losses

    def gibbs(self, beta, temperature=1.0) -> GibbsTable:
        beta = as_nudge(beta)
        t = as_temperature(temperature)
        logw = -self.kernel(beta) / t
        log_z = _logsumexp(logw)
        return GibbsTable(self.states, logw - log_z, log_z, beta, t)

    def free_energy(self, beta, temperature=1.0) -> float:
        t = as_temperature(temperature)
        return -t * self.gibbs(beta, t).log_z

    def objective(self, temperature=1.0) -> float:
        return self.free_energy(1.0, temperature) - self.free_energy(0.0, temperature)

    def expected_loss(self, beta, temperature=1.0) -> float:
        return float(self.gibbs(beta, temperature).expectation(self.losses))

    def _grad_sum(self, weights: np.ndarray) -> np.ndarray:
        return self.model.grad_theta_energy_sum(self.theta, self.states, weights=weights)

    def grad_contrast(self, temperature=1.0, beta=1.0) -> np.ndarray:
        g_b = self._grad_sum(self.gibbs(beta, temperature).probs)
        g_0 = self._grad_sum(self.gibbs(0.0, temperature).probs)
        return g_b - g_0

    def loss_energy_covariance(self, beta, temperature=1.0) -> np.ndarray:
        probs = self.gibbs(beta, temperature).probs
        mean_loss = float(probs @ self.losses)
        return self._grad_sum(probs * self.losses) - mean_loss * self._grad_sum(probs)

    def _grad_covariance(self, t: float, quad: QuadratureSpec, covariances: dict) -> np.ndarray:
        """-(1/T) sum_k w_k Cov_k, reusing the covariances already at hand by node."""
        total = np.zeros(self.model.param_dim)
        for node, weight in zip(quad.nodes, quad.weights):
            if node not in covariances:
                covariances[node] = self.loss_energy_covariance(node, t)
            total += weight * covariances[node]
        return -total / t

    def quadrature_order(self, temperature=1.0, node_counts=QUADRATURE_LADDER) -> float:
        t = as_temperature(temperature)
        reference = self.grad_contrast(t)
        covariances, spacings, errors = {}, [], []
        for k in node_counts:
            approx = self._grad_covariance(t, QuadratureSpec.trapezoid(k), covariances)
            err = float(np.max(np.abs(approx - reference)))
            if err < 1e-12:
                continue
            spacings.append(1.0 / (k - 1))
            errors.append(err)
        if len(errors) < 2:
            return np.inf
        return float(
            np.log(errors[-2] / errors[-1]) / np.log(spacings[-2] / spacings[-1])
        )

    def kl_nudged_free(self, temperature=1.0) -> float:
        t1 = self.gibbs(1.0, temperature)
        t0 = self.gibbs(0.0, temperature)
        return float(t1.expectation(t1.log_probs - t0.log_probs))

    def decomposition_residual(self, temperature=1.0) -> float:
        t = as_temperature(temperature)
        j = self.objective(t)
        return j - (self.expected_loss(1.0, t) + t * self.kl_nudged_free(t))

    def variational_free_energy(self, beta, temperature, q) -> float:
        beta = as_nudge(beta)
        t = as_temperature(temperature)
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (len(self.states),):
            raise ValueError(f"trial distribution must have one weight per state ({len(self.states)})")
        if np.any(q < 0.0) or abs(q.sum() - 1.0) > 1e-9:
            raise ValueError("trial distribution must be non-negative and sum to 1")
        mean_f = float(q @ self.kernel(beta))
        nonzero = q > 0.0
        entropy = float(-(q[nonzero] @ np.log(q[nonzero])))
        return mean_f - t * entropy


def gibbs_table(model: EnergyModel, theta, beta, temperature=1.0) -> GibbsTable:
    return EnergyTable.build(model, theta).gibbs(beta, temperature)


def log_partition_function(model, theta, beta, temperature=1.0) -> float:
    return gibbs_table(model, theta, beta, temperature).log_z


def free_energy(model, theta, beta, temperature=1.0) -> float:
    """A(theta, beta) = -T log Z_beta."""
    return EnergyTable.build(model, theta).free_energy(beta, temperature)


def contrastive_objective(model, theta, temperature=1.0) -> float:
    """J(theta) = A(theta, 1) - A(theta, 0)."""
    return EnergyTable.build(model, theta).objective(temperature)


def _objective_longdouble(table: EnergyTable, theta, temperature):
    """J(theta) with a long-double log-sum-exp, for finite-difference baselines.

    A float64 logsumexp carries ~1e-14 of rounding, which divided by the
    step 2h becomes an absolute noise floor around 5e-10 on any finite
    difference of J, enough to fail a 1e-6 relative comparison when the
    gradient is ~1e-4.  theta arrives as float64.  One energy_batch call
    over the table's states at a long-double theta gives every energy;
    each is rounded to float64 and widened back, as a per-state float64
    energy would be, and the losses are the table's float64 losses.  So
    only the log-sum-exp runs in long double.
    """
    theta = np.asarray(theta, dtype=np.longdouble)
    t = np.longdouble(as_temperature(temperature))
    e = table.model.energy_batch(theta, table.states).astype(np.float64).astype(np.longdouble)
    l = table.losses.astype(np.longdouble)

    def a(beta):
        logw = -(e + beta * l) / t
        m = logw.max()
        return -t * (m + np.log(np.exp(logw - m).sum()))

    return a(np.longdouble(1.0)) - a(np.longdouble(0.0))


def exact_dA_dbeta(model, theta, beta, temperature=1.0) -> float:
    """dA/dbeta, which by the identity is the expected loss E_rho_beta[l]."""
    return EnergyTable.build(model, theta).expected_loss(beta, temperature)


def exact_grad_J_contrast(model, theta, temperature=1.0, beta=1.0) -> np.ndarray:
    """Two-phase contrast E_rho_beta[dE/dtheta] - E_rho0[dE/dtheta].

    The gradient of A(theta, beta) - A(theta, 0); at the default beta = 1
    it is grad J.
    """
    return EnergyTable.build(model, theta).grad_contrast(temperature, beta)


def exact_loss_energy_covariance(model, theta, beta, temperature=1.0) -> np.ndarray:
    """Cov_rho_beta[l, dE/dtheta], one entry per parameter."""
    return EnergyTable.build(model, theta).loss_energy_covariance(beta, temperature)


def exact_grad_J_covariance(
    model, theta, temperature=1.0, quadrature: QuadratureSpec | None = None
) -> np.ndarray:
    """Integrated-covariance gradient, discretised on a quadrature grid:

    grad J = -(1/T) * integral_0^1 Cov_rho_beta[l, dE/dtheta] dbeta.
    """
    t = as_temperature(temperature)
    quad = quadrature if quadrature is not None else QuadratureSpec.trapezoid(33)
    return EnergyTable.build(model, theta)._grad_covariance(t, quad, {})


def quadrature_convergence_order(
    model, theta, temperature=1.0, node_counts=QUADRATURE_LADDER
) -> float:
    """Observed order of the trapezoid discretisation against the exact gradient.

    Takes the classic refinement estimate log(e_coarse/e_fine) / log(ratio)
    on the finest grid pair whose errors are still above round-off.  The
    trapezoid error is c2 h^2 + c4 h^4 + ...; when c2 is small the two
    terms cancel near some h and the error changes sign there, so a grid
    pair that straddles that crossover can read any order (one 3-spin
    instance reads -0.75 on 17/33 and 1.98 on 129/257).  The ladder
    therefore runs to 257 nodes, where h^2 dominates on every instance
    scanned.  A global fit would let such a pair drag the slope below the
    true order.  Returns inf when everything is already at round-off
    (order unmeasurable, counts as converged).
    """
    return EnergyTable.build(model, theta).quadrature_order(temperature, node_counts)


def kl_nudged_free(model, theta, temperature=1.0) -> float:
    """KL(rho_1 || rho_0), computed in log space from the two tables."""
    return EnergyTable.build(model, theta).kl_nudged_free(temperature)


def decomposition_residual(model, theta, temperature=1.0) -> float:
    """J - (E_rho1[l] + T * KL(rho1 || rho0)); exactly zero in theory."""
    return EnergyTable.build(model, theta).decomposition_residual(temperature)


def variational_free_energy(model, theta, beta, temperature=1.0, q=None) -> float:
    """E_q[E + beta * l] - T * S(q) for a trial distribution q on the table.

    Minimised (over all q) exactly at the Gibbs distribution, where it
    equals A(theta, beta).
    """
    return EnergyTable.build(model, theta).variational_free_energy(beta, temperature, q)


# ----------------------------------------------------------------------
# consistency suite over random instances
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: worst={self.worst:.3e} tol={self.tolerance:.3e} ({self.detail})"


def run_consistency_suite(
    n_instances: int = 100,
    n_spins: int = 8,
    seed: int = 0,
    temperature: float = 1.0,
    n_trial_dists: int = 100,
    fd_step: float = 1e-5,
) -> list[CheckResult]:
    """Exact-identity and inequality checks on random spin-glass instances.

    Every instance must satisfy, at enumeration precision:
    contrast_gradient (two-phase gradient vs finite differences of J),
    dA_dbeta (loss-expectation slope vs finite differences in beta),
    quadrature_order (trapezoid discretisation converges at order >= 2),
    supervised_bound (J <= E_rho0[l]), decomposition_residual
    (J = E_rho1[l] + T * KL), and variational_bound (Gibbs minimises the
    variational free energy, with equality there).
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    if not (1 <= n_spins <= DEFAULT_N_MAX):
        raise ValueError(f"n_spins must lie in [1, {DEFAULT_N_MAX}]")
    t = as_temperature(temperature)
    rng = np.random.default_rng(seed)

    worst_contrast = worst_slope = worst_residual = worst_equality = -np.inf
    min_order = np.inf
    worst_bound_margin = worst_var_margin = np.inf
    for i in range(n_instances):
        n = int(rng.integers(3, n_spins + 1))
        loss_kind = "signed" if i % 4 == 3 else "output_spin"
        model, theta_vec = random_spin_glass(n, int(rng.integers(0, 2**32)), loss=loss_kind)
        theta = theta_vec.values

        table = EnergyTable.build(model, theta)
        grad = table.grad_contrast(t)
        fd = central_difference_grad(
            lambda th: _objective_longdouble(table, th, t), theta, fd_step
        )
        worst_contrast = max(
            worst_contrast,
            float(np.max(np.abs(grad - fd)) / (np.max(np.abs(fd)) + EPS_ABS)),
        )

        beta = float(rng.uniform(0.1, 0.9))
        slope = table.expected_loss(beta, t)
        fd_slope = (
            table.free_energy(beta + fd_step, t) - table.free_energy(beta - fd_step, t)
        ) / (2.0 * fd_step)
        worst_slope = max(worst_slope, abs(slope - fd_slope) / (abs(fd_slope) + EPS_ABS))

        min_order = min(min_order, table.quadrature_order(t))

        j = table.objective(t)
        worst_bound_margin = min(worst_bound_margin, table.expected_loss(0.0, t) - j)

        worst_residual = max(worst_residual, abs(table.decomposition_residual(t)))

        a = table.free_energy(beta, t)
        for _ in range(n_trial_dists):
            q = rng.exponential(size=2**n)
            q /= q.sum()
            worst_var_margin = min(
                worst_var_margin, table.variational_free_energy(beta, t, q) - a
            )
        worst_equality = max(
            worst_equality,
            abs(table.variational_free_energy(beta, t, table.gibbs(beta, t).probs) - a),
        )

    checks = [
        CheckResult(
            "contrast_gradient", worst_contrast <= 1e-6, worst_contrast, 1e-6,
            "max relative error of two-phase gradient vs central differences of J",
        ),
        CheckResult(
            "dA_dbeta", worst_slope <= 1e-6, worst_slope, 1e-6,
            "max relative error of expected loss vs finite differences of A in beta",
        ),
        CheckResult(
            "quadrature_order", min_order >= 1.9, min_order, 1.9,
            "min observed trapezoid convergence order (threshold is a floor)",
        ),
        CheckResult(
            "supervised_bound", worst_bound_margin >= -1e-12, worst_bound_margin, -1e-12,
            "min of E_rho0[l] - J across instances (must be non-negative)",
        ),
        CheckResult(
            "decomposition_residual", worst_residual <= 1e-10, worst_residual, 1e-10,
            "max |J - E_rho1[l] - T*KL(rho1||rho0)|",
        ),
        CheckResult(
            "variational_bound",
            worst_var_margin >= -1e-10 and worst_equality <= 1e-10,
            min(worst_var_margin, -worst_equality), -1e-10,
            "min margin of trial distributions over A, and |equality gap| at Gibbs",
        ),
    ]
    return checks
