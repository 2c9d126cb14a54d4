import numpy as np
import pytest

from thermoep import sampler
from thermoep.models import random_spin_glass
from thermoep.sampler import ChainConfig, Kernel


@pytest.fixture
def small_glass():
    """A fixed 4-spin instance with the output-site loss."""
    model, theta = random_spin_glass(4, seed=11, loss="output_spin")
    return model, theta.values


@pytest.fixture
def gibbs_config():
    """A modest binary-sweep budget for estimator smoke checks."""
    return ChainConfig(
        n_steps=400, n_chains=16, burn_in=200, kernel=Kernel.GIBBS_SWEEP, seed=3
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def langevin_calls(monkeypatch):
    """Row counts of every sampler.langevin call made while the test runs."""
    calls = []
    real = sampler.langevin

    def spy(kernel, z, *args):
        calls.append(len(z))
        return real(kernel, z, *args)

    monkeypatch.setattr(sampler, "langevin", spy)
    return calls
