import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermoep.core import (
    EnergyModel,
    EvaluationError,
    NudgeStrength,
    ParamVector,
    StateKind,
    Temperature,
    as_nudge,
    as_temperature,
    central_difference_grad,
    check_grad_theta,
    kernel_batch,
    max_relative_error,
    objective_kernel,
    theta_fingerprint,
)
from thermoep.models import SpinGlassModel, TwoStateModel, random_spin_glass
from thermoep.oracle import (
    contrastive_objective,
    enumerate_states,
    exact_grad_J_contrast,
    gibbs_table,
)
from thermoep.sampler import ChainConfig, Kernel, run_chains


def test_temperature_must_be_positive():
    assert Temperature(0.5).value == 0.5
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            Temperature(bad)


def test_nudge_strength_range():
    assert NudgeStrength(0.0).value == 0.0
    assert NudgeStrength(1.0).value == 1.0
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            NudgeStrength(bad)


def test_as_temperature_accepts_wrapper_and_float():
    assert as_temperature(Temperature(2.0)) == 2.0
    assert as_temperature(2.0) == 2.0
    with pytest.raises(ValueError):
        as_temperature(-1.0)


def test_as_nudge_accepts_wrapper_and_float():
    assert as_nudge(NudgeStrength(0.25)) == 0.25
    assert as_nudge(0.25) == 0.25
    with pytest.raises(ValueError):
        as_nudge(2.0)


class TestParamVector:
    layout = (("a", 0, 2), ("b", 2, 3))

    def test_segment_views(self):
        pv = ParamVector(np.arange(5.0), self.layout)
        assert pv.dim == 5
        np.testing.assert_array_equal(pv.segment("a"), [0.0, 1.0])
        np.testing.assert_array_equal(pv.segment("b"), [2.0, 3.0, 4.0])
        with pytest.raises(KeyError):
            pv.segment("c")

    def test_values_are_read_only(self):
        pv = ParamVector(np.arange(5.0), self.layout)
        with pytest.raises(ValueError):
            pv.values[0] = 9.0
        with pytest.raises(ValueError):
            pv.segment("a")[0] = 9.0

    def test_with_values_keeps_layout(self):
        pv = ParamVector(np.arange(5.0), self.layout)
        pv2 = pv.with_values(np.ones(5))
        assert pv2.layout == pv.layout
        np.testing.assert_array_equal(pv2.values, np.ones(5))

    def test_layout_must_tile_exactly(self):
        with pytest.raises(ValueError):
            ParamVector(np.arange(5.0), (("a", 0, 2),))  # gap at the end
        with pytest.raises(ValueError):
            ParamVector(np.arange(5.0), (("a", 0, 3), ("b", 2, 3)))  # overlap
        with pytest.raises(ValueError):
            ParamVector(np.arange(5.0), (("a", 1, 4),))  # hole at the start

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ParamVector(np.array([1.0, np.nan]), (("a", 0, 2),))


def test_objective_kernel_is_energy_plus_beta_loss(small_glass):
    model, theta = small_glass
    s = np.array([1.0, -1.0, 1.0, 1.0])
    e = model.energy(theta, s)
    l = model.loss(s)
    assert objective_kernel(model, theta, 0.0, s) == pytest.approx(e, abs=1e-14)
    assert objective_kernel(model, theta, 0.7, s) == pytest.approx(e + 0.7 * l, abs=1e-14)


@given(
    beta=st.floats(min_value=0.0, max_value=1.0),
    bits=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_objective_kernel_affine_in_beta(beta, bits):
    model, theta = random_spin_glass(4, seed=11, loss="output_spin")
    s = np.where(np.array(bits), 1.0, -1.0)
    f0 = objective_kernel(model, theta.values, 0.0, s)
    f1 = objective_kernel(model, theta.values, 1.0, s)
    fb = objective_kernel(model, theta.values, beta, s)
    assert fb == pytest.approx((1.0 - beta) * f0 + beta * f1, abs=1e-10)


def test_kernel_batch_matches_scalar(small_glass):
    model, theta = small_glass
    rng = np.random.default_rng(1)
    states = np.where(rng.random((6, 4)) < 0.5, 1.0, -1.0)
    batch = kernel_batch(model, theta, 0.4, states)
    ref = [objective_kernel(model, theta, 0.4, s) for s in states]
    np.testing.assert_allclose(batch, ref, atol=1e-14)


def test_central_difference_is_exact_on_quadratics():
    a = np.array([2.0, -1.0, 0.5])

    def f(x):
        return float(x @ (a * x))

    x0 = np.array([0.3, 1.2, -0.7])
    grad = central_difference_grad(f, x0, h=1e-5)
    np.testing.assert_allclose(grad, 2 * a * x0, rtol=1e-9)


def test_max_relative_error_is_per_coordinate():
    ref = np.array([1.0, 2.0])
    approx = np.array([1.003, 2.0])
    assert max_relative_error(approx, ref) == pytest.approx(0.003, rel=1e-9)
    assert max_relative_error(np.zeros(2), np.zeros(2)) == 0.0


class _SpinPair(EnergyModel):
    """Two +/-1 spins, E = -theta_0 s_0 s_1 - theta_1 s_0, l = (1 - s_1) / 2.

    Defines only the three abstract batch methods, so every other method
    it is driven through comes from the EnergyModel base.
    """

    param_dim = 2
    state_dim = 2
    state_kind = StateKind.BINARY

    def _features(self, states):
        return np.stack([states[:, 0] * states[:, 1], states[:, 0]], axis=1)

    def energy_batch(self, theta, states):
        return -(self._features(states) @ theta)

    def loss_batch(self, states):
        return (1.0 - states[:, 1]) / 2.0

    def grad_theta_energy_sum(self, theta, states, weights=None):
        f = -self._features(states)
        return f.sum(axis=0) if weights is None else weights @ f


def test_batch_only_model_runs_through_oracle_and_sampler():
    model, theta = _SpinPair(), np.array([0.8, -0.3])
    s = np.array([1.0, -1.0])
    assert model.energy(theta, s) == pytest.approx(0.8 + 0.3)
    assert model.loss(s) == 1.0
    np.testing.assert_array_equal(model.grad_theta_energy(theta, s), [1.0, -1.0])

    fd = central_difference_grad(lambda t: contrastive_objective(model, t), theta)
    np.testing.assert_allclose(exact_grad_J_contrast(model, theta), fd, rtol=1e-7)

    cfg = ChainConfig(n_steps=600, n_chains=8, burn_in=100, kernel=Kernel.GIBBS_SWEEP, seed=5)
    batch = run_chains(model, theta, 1.0, 1.0, cfg)
    assert set(np.unique(batch.samples)) <= {-1.0, 1.0}
    per_chain = np.stack(
        [model.grad_theta_energy_sum(theta, c) / batch.n_kept for c in batch.per_chain()]
    )
    table = gibbs_table(model, theta, 1.0, 1.0)
    exact = model.grad_theta_energy_sum(theta, table.states, weights=table.probs)
    stderr = per_chain.std(axis=0, ddof=1) / np.sqrt(batch.n_chains)
    assert np.max(np.abs(per_chain.mean(axis=0) - exact) / stderr) < 4.0


def test_scalar_energy_passes_long_double_theta_through(small_glass):
    # the oracle's long-double objective evaluates energy(theta_ld, s)
    model, theta = small_glass
    theta_ld = theta.astype(np.longdouble)
    states = enumerate_states(model)
    scalar = [model.energy(theta_ld, s) for s in states]
    assert scalar == [float(model.energy_batch(theta_ld, s[None])[0]) for s in states]
    assert scalar != [model.energy(theta, s) for s in states]


def test_grad_theta_energy_sum_weights(small_glass):
    model, theta = small_glass
    rng = np.random.default_rng(3)
    states = np.where(rng.random((5, 4)) < 0.5, 1.0, -1.0)
    w = rng.random(5)
    expected = sum(wi * model.grad_theta_energy(theta, s) for wi, s in zip(w, states))
    np.testing.assert_allclose(
        model.grad_theta_energy_sum(theta, states, weights=w), expected, atol=1e-12
    )
    np.testing.assert_allclose(
        model.grad_theta_energy_sum(theta, states),
        sum(model.grad_theta_energy(theta, s) for s in states),
        atol=1e-12,
    )


def test_site_delta_override_matches_generic(small_glass):
    model, theta = small_glass
    rng = np.random.default_rng(4)
    states = np.where(rng.random((8, 4)) < 0.5, 1.0, -1.0)
    for site in range(4):
        fast = model.kernel_site_delta(theta, 0.6, states, site)
        generic = EnergyModel.kernel_site_delta(model, theta, 0.6, states, site)
        np.testing.assert_allclose(fast, generic, atol=1e-11)


def test_check_grad_theta_small_on_correct_model(small_glass):
    model, theta = small_glass
    s = np.array([1.0, 1.0, -1.0, 1.0])
    assert check_grad_theta(model, theta, s) < 1e-7


def test_validate_theta_rejects_wrong_shape(small_glass):
    model, theta = small_glass
    with pytest.raises(ValueError):
        model.validate_theta(theta[:-1])
    with pytest.raises(ValueError):
        model.validate_state(np.ones(3))


def test_objective_kernel_names_non_finite_term():
    model = TwoStateModel()
    with pytest.raises(EvaluationError, match="energy"):
        objective_kernel(model, np.array([np.inf]), 0.0, np.array([1.0]))


def test_theta_fingerprint_is_stable_and_value_sensitive():
    theta = np.array([1.0, 2.0, 3.0])
    fp = theta_fingerprint(theta)
    assert fp == theta_fingerprint(theta.copy())
    assert len(fp) == 16
    assert int(fp, 16) >= 0
    assert fp != theta_fingerprint(theta + 1e-12)
