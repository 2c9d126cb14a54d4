"""Exact identities on random spin glasses, spelled out one at a time.

The library's verify command batches these checks; this script runs
each identity on a single random 6-spin instance with all the
intermediate numbers visible, then runs the batched suite on a few
instances for the one-line summaries.

Run: python3 demos/identity_suite.py
"""

import numpy as np

from thermoep.core import central_difference_grad
from thermoep.estimators import QuadratureSpec
from thermoep.models import random_spin_glass
from thermoep.oracle import (
    EnergyTable,
    contrastive_objective,
    decomposition_residual,
    exact_dA_dbeta,
    exact_grad_J_contrast,
    exact_grad_J_covariance,
    free_energy,
    gibbs_table,
    run_consistency_suite,
    variational_free_energy,
)

model, theta_vec = random_spin_glass(6, seed=4, loss="output_spin")
theta = theta_vec.values
T = 1.0

print("One 6-spin glass, enumeration over 64 states")
print("=============================================")
j = contrastive_objective(model, theta, T)
print(f"J = A(1) - A(0) = {j:.8f}")

# Identity 1: the gradient of J is a difference of phase expectations.
grad = exact_grad_J_contrast(model, theta, T)
fd = central_difference_grad(lambda th: contrastive_objective(model, th, T), theta, 1e-5)
print(f"two-phase gradient vs FD:   max |diff| = {np.max(np.abs(grad - fd)):.2e}")

# Identity 2: the same gradient as an integral of loss/energy-gradient
# covariances over the nudge, discretised by a trapezoid rule.  Watch
# the discretisation error fall by ~4x per grid doubling (order 2).
print("integrated-covariance route, trapezoid refinement:")
for k in (3, 5, 9, 17):
    approx = exact_grad_J_covariance(model, theta, T, QuadratureSpec.trapezoid(k))
    print(f"  {k:3d} nodes   max error vs contrast form = {np.max(np.abs(approx - grad)):.3e}")

# Slope identity: dA/dbeta equals the expected loss under rho_beta.
beta = 0.4
slope = exact_dA_dbeta(model, theta, beta, T)
h = 1e-6
fd_slope = (free_energy(model, theta, beta + h, T) - free_energy(model, theta, beta - h, T)) / (2 * h)
print(f"dA/dbeta at beta={beta}: exact {slope:.8f}, FD {fd_slope:.8f}")

# The bound and the decomposition.
loss_0 = EnergyTable.build(model, theta).expected_loss(0.0, T)
print(f"J = {j:.6f} <= E_rho0[l] = {loss_0:.6f}")
print(f"decomposition residual = {decomposition_residual(model, theta, T):.2e}")

# Gibbs variational principle: any trial distribution pays at least A,
# with equality exactly at the Gibbs weights.
table = gibbs_table(model, theta, beta, T)
a = free_energy(model, theta, beta, T)
rng = np.random.default_rng(0)
margins = []
for _ in range(200):
    q = rng.exponential(size=64)
    q /= q.sum()
    margins.append(variational_free_energy(model, theta, beta, T, q=q) - a)
at_gibbs = variational_free_energy(model, theta, beta, T, q=table.probs) - a
print(f"variational margin over 200 trials: min = {min(margins):.4f} (>= 0)")
print(f"variational gap at the Gibbs weights = {at_gibbs:.2e}")

print("\nBatched suite on 10 fresh instances")
print("===================================")
for check in run_consistency_suite(n_instances=10, n_spins=8, seed=1):
    print(check.line())
