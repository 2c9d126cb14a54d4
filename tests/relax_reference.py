"""Generic gradient descent on the nudged kernel: the reference that
LayeredTanhEnergyNet.relax_free_batch is checked against."""

import numpy as np

from thermoep.core import DivergenceError, StateKind, _kernel_grad_rows, as_nudge
from thermoep.models import RelaxResult


def relax_deterministic(model, theta, beta, init, step_size=0.1, max_iters=1000, tol=1e-8):
    """Noise-free gradient descent on F(theta, beta, .) over free coordinates."""
    beta = as_nudge(beta)
    theta = model.validate_theta(theta)
    if model.state_kind is not StateKind.CONTINUOUS:
        raise ValueError("deterministic relaxation requires a continuous state space")
    s = np.array(init, dtype=np.float64, copy=True)
    free = ~model.clamp_mask
    gnorm, iters = np.inf, 0
    for iters in range(1, max_iters + 1):
        g = _kernel_grad_rows(model, theta, beta, s[None, :])[0]
        gnorm = float(np.max(np.abs(g[free])))
        if not np.isfinite(gnorm):
            raise DivergenceError(f"relaxation diverged at iteration {iters}")
        if gnorm <= tol:
            break
        s[free] -= step_size * g[free]
    return RelaxResult(s, gnorm <= tol, iters, gnorm)
