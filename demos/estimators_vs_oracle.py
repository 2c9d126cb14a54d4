"""Sampling estimators against the enumeration oracle, with error bars.

An 8-spin glass is small enough to enumerate, so the exact gradient is
known and every Monte Carlo estimate can be scored in units of its own
standard error.  Both gradient routes are run: the two-phase contrast
of energy-gradient expectations and the integrated loss/energy-gradient
covariance.

Run: python3 demos/estimators_vs_oracle.py  (about ten seconds)
"""

import numpy as np

from thermoep.estimators import (
    QuadratureSpec,
    grad_classical_ep,
    grad_contrast_mc,
    grad_covariance_mc,
)
from thermoep.models import random_spin_glass
from thermoep.oracle import exact_grad_J_contrast, exact_grad_J_covariance
from thermoep.sampler import ChainConfig, Kernel

model, theta_vec = random_spin_glass(8, seed=7, loss="output_spin")
theta = theta_vec.values
T = 1.0
exact = exact_grad_J_contrast(model, theta, T)

cfg = ChainConfig(
    n_steps=700, n_chains=32, burn_in=300, kernel=Kernel.GIBBS_SWEEP, seed=0
)
kept = cfg.n_kept * cfg.n_chains
print(f"8-spin glass, {theta.size} parameters, {kept} kept samples per phase")
print("=" * 62)

est = grad_contrast_mc(model, theta, T, cfg)
z = np.abs(est.grad.values - exact) / est.std_err
print("two-phase contrast estimator:")
print(f"  worst |error|/std_err = {z.max():.2f}   mean = {z.mean():.2f}")
print(f"  coords within 3 sigma: {np.mean(z <= 3):.1%}")

# The covariance route is scored against the SAME trapezoid grid it
# uses, so discretisation bias cancels and only sampling noise remains.
quad = QuadratureSpec.trapezoid(5)
ref_quad = exact_grad_J_covariance(model, theta, T, quad)
est_cov = grad_covariance_mc(model, theta, T, quad, cfg)
z_cov = np.abs(est_cov.grad.values - ref_quad) / est_cov.std_err
print("integrated-covariance estimator (5-node trapezoid):")
print(f"  worst |error|/std_err = {z_cov.max():.2f}   mean = {z_cov.mean():.2f}")
print(f"  grid bias vs true gradient = {np.max(np.abs(ref_quad - exact)):.2e}")

# The classical two-phase update at reduced beta estimates a rotated,
# noisier direction: same per-phase budget, growing error bars.
print("classical finite-nudge update g_hat(beta) at fixed budget:")
for beta in (1.0, 0.3, 0.1, 0.03):
    g = grad_classical_ep(model, theta, T, beta, cfg)
    cos = float(g.grad.values @ exact / (np.linalg.norm(g.grad.values) * np.linalg.norm(exact)))
    print(
        f"  beta = {beta:4.2f}   mean std_err = {g.std_err.mean():.4f}"
        f"   cosine vs exact gradient = {cos:+.3f}"
    )

# Error bars should shrink like 1/sqrt(samples): quadruple the chains,
# halve the standard errors.
print("std_err scaling with chain count:")
for chains in (8, 32, 128):
    est_n = grad_contrast_mc(
        model, theta, T,
        ChainConfig(n_steps=700, n_chains=chains, burn_in=300,
                    kernel=Kernel.GIBBS_SWEEP, seed=1),
    )
    print(f"  {chains:4d} chains   mean std_err = {est_n.std_err.mean():.5f}")
