import numpy as np
import pytest

from thermoep.core import central_difference_grad
from thermoep.estimators import QuadratureSpec
from thermoep.models import QuadraticEnergyModel, TwoStateModel, random_spin_glass
from thermoep.oracle import (
    EnumerationRefusedError,
    contrastive_objective,
    decomposition_residual,
    enumerate_states,
    exact_dA_dbeta,
    exact_grad_J_contrast,
    exact_grad_J_covariance,
    expected_loss,
    free_energy,
    gibbs_table,
    kl_nudged_free,
    log_partition_function,
    quadrature_convergence_order,
    run_consistency_suite,
    variational_free_energy,
)

# Closed forms for the single {0,1} site with E = theta*s and l(s) = s at
# theta=0, T=1, derived by hand:
#   log Z_beta = log(1 + exp(-(theta+beta)/T))  (+ contributions of s=0)
#   J = log 2 - log(1 + e^-1)
#   dJ/dtheta = -(1/2 - sigma(-1))
#   E_rho1[l] = sigma(-1)
TWO_STATE_LOG_Z0 = 0.6931471805599453
TWO_STATE_J = 0.3798854930417224
TWO_STATE_DJ = -0.2310585786300049
TWO_STATE_NUDGED_LOSS = 0.2689414213699951
TWO_STATE_KL = 0.11094407167172732


class TestTwoStateClosedForms:
    model = TwoStateModel()
    theta = np.array([0.0])

    def test_log_partition_free_phase_is_log_two(self):
        z = log_partition_function(self.model, self.theta, 0.0, 1.0)
        assert z == pytest.approx(TWO_STATE_LOG_Z0, abs=1e-14)

    def test_contrastive_objective(self):
        j = contrastive_objective(self.model, self.theta, 1.0)
        assert j == pytest.approx(TWO_STATE_J, abs=1e-14)

    def test_contrast_gradient(self):
        g = exact_grad_J_contrast(self.model, self.theta, 1.0)
        assert g[0] == pytest.approx(TWO_STATE_DJ, abs=1e-14)

    def test_nudged_loss_and_kl(self):
        assert expected_loss(self.model, self.theta, 1.0, 1.0) == pytest.approx(
            TWO_STATE_NUDGED_LOSS, abs=1e-14
        )
        assert kl_nudged_free(self.model, self.theta, 1.0) == pytest.approx(
            TWO_STATE_KL, abs=1e-14
        )

    def test_decomposition_residual_is_zero(self):
        assert abs(decomposition_residual(self.model, self.theta, 1.0)) < 1e-14

    @pytest.mark.parametrize("theta0", [-1.3, 0.0, 0.8])
    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
    def test_closed_form_log_partition_matches_enumeration(self, theta0, beta):
        th = np.array([theta0])
        closed = self.model.log_partition(th, beta, 0.7)
        enum = log_partition_function(self.model, th, beta, 0.7)
        assert closed == pytest.approx(enum, abs=1e-13)


def test_enumerate_states_covers_all_configurations(small_glass):
    model, _ = small_glass
    states = enumerate_states(model)
    assert states.shape == (16, 4)
    assert np.all(np.isin(states, (-1.0, 1.0)))
    assert len({tuple(s) for s in states}) == 16


def test_enumeration_refuses_large_and_continuous_models():
    model, _ = random_spin_glass(4, seed=0)
    with pytest.raises(EnumerationRefusedError):
        enumerate_states(model, n_max=3)
    with pytest.raises(EnumerationRefusedError):
        enumerate_states(QuadraticEnergyModel(2))


def test_gibbs_table_probabilities_normalize(small_glass):
    model, theta = small_glass
    table = gibbs_table(model, theta, 0.6, 1.3)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(table.probs >= 0)
    # log_z consistent with the log-space weights
    dense = -np.array(
        [0.6 * model.loss(s) + model.energy(theta, s) for s in table.states]
    ) / 1.3
    assert table.log_z == pytest.approx(
        np.log(np.exp(dense - dense.max()).sum()) + dense.max(), abs=1e-12
    )


def test_objective_is_free_energy_difference(small_glass):
    model, theta = small_glass
    j = contrastive_objective(model, theta, 0.9)
    a1 = free_energy(model, theta, 1.0, 0.9)
    a0 = free_energy(model, theta, 0.0, 0.9)
    assert j == pytest.approx(a1 - a0, abs=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contrast_gradient_matches_finite_differences(seed):
    model, theta_vec = random_spin_glass(5, seed=seed, loss="output_spin")
    theta = theta_vec.values
    grad = exact_grad_J_contrast(model, theta, 1.0)
    fd = central_difference_grad(lambda th: contrastive_objective(model, th, 1.0), theta)
    assert np.max(np.abs(grad - fd)) / (np.max(np.abs(fd)) + 1e-12) < 1e-7


@pytest.mark.parametrize("beta", [0.15, 0.5, 0.85])
def test_free_energy_slope_in_beta_is_expected_loss(small_glass, beta):
    model, theta = small_glass
    slope = exact_dA_dbeta(model, theta, beta, 1.0)
    assert slope == pytest.approx(expected_loss(model, theta, beta, 1.0), abs=1e-12)
    h = 1e-6
    fd = (free_energy(model, theta, beta + h, 1.0) - free_energy(model, theta, beta - h, 1.0)) / (2 * h)
    assert slope == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_contrast_at_beta_interpolates_endpoints(small_glass):
    model, theta = small_glass
    g0 = exact_grad_J_contrast(model, theta, 1.0, beta=0.0)
    np.testing.assert_allclose(g0, np.zeros_like(g0), atol=1e-14)
    g1 = exact_grad_J_contrast(model, theta, 1.0, beta=1.0)
    np.testing.assert_allclose(g1, exact_grad_J_contrast(model, theta, 1.0), atol=1e-14)


def test_covariance_route_converges_to_contrast_route(small_glass):
    model, theta = small_glass
    exact = exact_grad_J_contrast(model, theta, 1.0)
    coarse = exact_grad_J_covariance(model, theta, 1.0, QuadratureSpec.trapezoid(5))
    fine = exact_grad_J_covariance(model, theta, 1.0, QuadratureSpec.trapezoid(65))
    err_coarse = np.max(np.abs(coarse - exact))
    err_fine = np.max(np.abs(fine - exact))
    assert err_fine < err_coarse
    assert err_fine < 1e-4
    gl = exact_grad_J_covariance(model, theta, 1.0, QuadratureSpec.gauss_legendre(8))
    assert np.max(np.abs(gl - exact)) < 1e-9


def test_trapezoid_order_near_two(small_glass):
    model, theta = small_glass
    order = quadrature_convergence_order(model, theta, 1.0)
    assert order >= 1.9


def test_supervised_bound_and_kl_nonnegative():
    for seed in range(5):
        model, theta_vec = random_spin_glass(5, seed=seed)
        theta = theta_vec.values
        j = contrastive_objective(model, theta, 1.0)
        assert j <= expected_loss(model, theta, 0.0, 1.0) + 1e-12
        assert kl_nudged_free(model, theta, 1.0) >= -1e-14


def test_variational_bound_and_tightness(small_glass, rng):
    model, theta = small_glass
    a = free_energy(model, theta, 0.5, 1.0)
    table = gibbs_table(model, theta, 0.5, 1.0)
    for _ in range(20):
        q = rng.exponential(size=16)
        q /= q.sum()
        assert variational_free_energy(model, theta, 0.5, 1.0, q=q) >= a - 1e-10
    at_gibbs = variational_free_energy(model, theta, 0.5, 1.0, q=table.probs)
    assert at_gibbs == pytest.approx(a, abs=1e-10)


def test_variational_rejects_invalid_distributions(small_glass):
    model, theta = small_glass
    bad = np.full(16, 1.0 / 16)
    with pytest.raises(ValueError):
        variational_free_energy(model, theta, 0.5, 1.0, q=bad * 1.5)
    bad2 = bad.copy()
    bad2[0] = -bad2[0]
    bad2[1] += 2 * bad[0]
    with pytest.raises(ValueError):
        variational_free_energy(model, theta, 0.5, 1.0, q=bad2)


def test_consistency_suite_shape_and_report_lines():
    checks = run_consistency_suite(n_instances=5, n_spins=5, seed=1, n_trial_dists=10)
    names = [c.name for c in checks]
    assert names == [
        "contrast_gradient",
        "dA_dbeta",
        "quadrature_order",
        "supervised_bound",
        "decomposition_residual",
        "variational_bound",
    ]
    assert all(c.passed for c in checks)
    for c in checks:
        assert c.line().startswith("PASS ")
        assert f"tol={c.tolerance:.3e}" in c.line()


def test_consistency_suite_validates_arguments():
    with pytest.raises(ValueError):
        run_consistency_suite(n_instances=0)
    with pytest.raises(ValueError):
        run_consistency_suite(n_instances=1, n_spins=40)
