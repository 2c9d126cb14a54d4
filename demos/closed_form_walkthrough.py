"""The whole theory on the smallest possible system.

A single binary unit s in {0, 1} with energy E = theta * s and loss
l = s is small enough to do every quantity by hand: the free energies,
the contrastive objective J, its gradient, and the KL decomposition.
This script walks the closed forms next to the enumeration oracle so
you can see that they are the same numbers.

Run: python3 demos/closed_form_walkthrough.py
"""

import numpy as np

from thermoep.models import TwoStateModel
from thermoep.oracle import (
    EnergyTable,
    contrastive_objective,
    decomposition_residual,
    exact_grad_J_contrast,
    free_energy,
    kl_nudged_free,
    log_partition_function,
)

model = TwoStateModel()
theta = np.array([0.0])  # both states equally likely in the free phase
T = 1.0

print("Two-state system, theta = 0, T = 1")
print("==================================")

# Free phase: Z_0 = 1 + exp(-theta/T) = 2, so A(0) = -T log 2.
log_z0 = log_partition_function(model, theta, 0.0, T)
print(f"log Z_0      enumeration {log_z0:.16f}   by hand {np.log(2.0):.16f}")

# Nudged phase: the kernel adds beta * l, so Z_1 = 1 + exp(-(theta+1)/T).
log_z1 = log_partition_function(model, theta, 1.0, T)
print(f"log Z_1      enumeration {log_z1:.16f}   by hand {np.log(1 + np.exp(-1)):.16f}")

# J is the free-energy gap: the work the nudge extracts from the system.
j = contrastive_objective(model, theta, T)
j_hand = T * (np.log(2.0) - np.log(1.0 + np.exp(-1.0)))
print(f"J            enumeration {j:.16f}   by hand {j_hand:.16f}")

# Its gradient is the contrast of E_rho[dE/dtheta] = E_rho[s] between
# phases.  Nudging pushes probability off s = 1, so the sign is negative.
grad = exact_grad_J_contrast(model, theta, T)
sigma = lambda x: 1.0 / (1.0 + np.exp(-x))
grad_hand = sigma(-1.0) - 0.5
print(f"dJ/dtheta    enumeration {grad[0]:.16f}  by hand {grad_hand:.16f}")

# The decomposition J = E_rho1[l] + T * KL(rho1 || rho0) splits the
# objective into achieved loss plus the entropic price of the nudge.
table = EnergyTable.build(model, theta)  # both states' energies and losses
loss_1 = table.expected_loss(1.0, T)
kl = kl_nudged_free(model, theta, T)
print(f"E_rho1[l]    enumeration {loss_1:.16f}   by hand {sigma(-1.0):.16f}")
print(f"KL(1||0)     enumeration {kl:.16f}")
print(f"residual J - (E_rho1[l] + T*KL) = {decomposition_residual(model, theta, T):.3e}")

# The supervised bound J <= E_rho0[l]: the free phase can only do worse.
loss_0 = table.expected_loss(0.0, T)
print(f"bound        J = {j:.6f} <= E_rho0[l] = {loss_0:.6f}")

# Temperature interpolates between the hard minimum gap (T -> 0) and an
# ensemble average; watch J move with T.
print("\nJ(theta=0) across temperatures")
for t in (0.1, 0.5, 1.0, 2.0, 5.0):
    a1 = free_energy(model, theta, 1.0, t)
    a0 = free_energy(model, theta, 0.0, t)
    print(f"  T = {t:4.1f}   J = {a1 - a0:.6f}")
print("(T -> 0 recovers min-kernel contrast: here min E + l - min E = 0)")
