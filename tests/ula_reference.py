"""Unadjusted Langevin (ULA): the known-wrong sampler that the MALA checks
are tested against.

ULA is MALA without the Metropolis-Hastings test, so it is biased at any
finite step (Roberts & Tweedie 1996).  sampler.langevin runs it when every
accept uniform is zero: log 0 = -inf accepts every proposal whose
acceptance ratio is finite, and a non-finite one is rejected.
"""

import numpy as np

from thermoep.core import as_nudge, as_temperature
from thermoep.rng import make_generator
from thermoep.sampler import _init_rows, langevin


def run_ula(model, theta, beta, temperature, config, init=None) -> np.ndarray:
    """Kept free block (chains x n_kept x free coordinates) of a ULA run.

    Chain c draws from stream (config.seed, c): its init row when init is
    None, as run_chains does, then one noise vector per step and no accept
    uniform (the layout of the removed unadjusted kernel, which the
    fingerprints in test_sampler.py pin).
    """
    theta = model.validate_theta(theta)
    gens = [make_generator(config.seed, c) for c in range(config.n_chains)]
    rows = _init_rows(model, config, init, gens)
    z = rows[:, ~model.clamp_mask]
    zeros = np.zeros(config.n_chains)

    def draw(step):
        return np.stack([g.standard_normal(z.shape[1]) for g in gens]), zeros

    kernel = model.free_kernel(theta, as_nudge(beta), rows)
    with np.errstate(divide="ignore"):
        kept, _ = langevin(kernel, z, draw, config, as_temperature(temperature))
    return kept
