import numpy as np
import pytest

from thermoep import oracle
from thermoep.core import EvaluationError, central_difference_grad, kernel_batch
from thermoep.estimators import QuadratureSpec
from thermoep.models import (
    QuadraticEnergyModel,
    RowLoss,
    SpinGlassModel,
    TwoStateModel,
    random_spin_glass,
)
from thermoep.oracle import (
    EnergyTable,
    EnumerationRefusedError,
    _objective_longdouble,
    contrastive_objective,
    decomposition_residual,
    enumerate_states,
    exact_dA_dbeta,
    exact_grad_J_contrast,
    exact_grad_J_covariance,
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
        assert EnergyTable.build(self.model, self.theta).expected_loss(1.0, 1.0) == pytest.approx(
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
        assert j <= EnergyTable.build(model, theta).expected_loss(0.0, 1.0) + 1e-12
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


def _per_state_objective_longdouble(model, theta, t, losses=None):
    """The long-double J as it was first written: one energy and one loss call per state.

    losses, when given, replaces the per-state loss calls.
    """
    states = enumerate_states(model)
    theta = np.asarray(theta, dtype=np.longdouble)
    t = np.longdouble(t)
    e = np.array([model.energy(theta, s) for s in states], dtype=np.longdouble)
    if losses is None:
        losses = [model.loss(s) for s in states]
    l = np.array(losses, dtype=np.longdouble)

    def a(beta):
        logw = -(e + beta * l) / t
        m = logw.max()
        return -t * (m + np.log(np.exp(logw - m).sum()))

    return a(np.longdouble(1.0)) - a(np.longdouble(0.0))


@pytest.mark.parametrize("loss", ["output_spin", "signed"])
@pytest.mark.parametrize("n", range(3, 9))
def test_batched_longdouble_objective_equals_per_state_loop(n, loss):
    model, theta_vec = random_spin_glass(n, seed=40 + n, loss=loss)
    theta = theta_vec.values
    table = EnergyTable.build(model, theta)
    step = np.zeros_like(theta)
    step[n // 2] = 1e-5
    for th in (theta, theta + step, theta - step):
        for t in (1.0, 0.7):
            batched = _objective_longdouble(table, th, t)
            assert batched.dtype == np.longdouble
            # the energies are exactly the per-state ones for both loss kinds
            assert batched == _per_state_objective_longdouble(model, th, t, table.losses)
            # a per-row signed loss is a BLAS dot product that rounds
            # differently from the batch's, so only the indicator loss
            # reproduces the per-state loop in full
            if loss == "output_spin":
                assert batched == _per_state_objective_longdouble(model, th, t)


@pytest.mark.parametrize("beta, t", [(0.0, 1.0), (0.35, 1.0), (1.0, 0.6)])
@pytest.mark.parametrize("loss", ["output_spin", "signed"])
def test_gibbs_table_equals_kernel_batch_route(beta, t, loss):
    model, theta_vec = random_spin_glass(6, seed=3, loss=loss)
    theta = theta_vec.values
    logw = -kernel_batch(model, theta, beta, enumerate_states(model)) / t
    m = np.max(logw)
    log_z = float(m + np.log(np.sum(np.exp(logw - m))))
    table = gibbs_table(model, theta, beta, t)
    assert table.log_z == log_z
    assert table.log_probs.tobytes() == (logw - log_z).tobytes()


def test_gibbs_table_keeps_kernel_batch_finiteness_errors():
    huge = np.array([1e308, 1e308, 1e308, 0.0, 0.0, 0.0])
    glass = SpinGlassModel(3)
    states = enumerate_states(glass)
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="energy"):
        kernel_batch(glass, huge, 0.0, states)
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="energy"):
        gibbs_table(glass, huge, 0.0)

    # a non-finite loss matters only once the nudge weighs it in
    bad_loss = SpinGlassModel(3, loss=RowLoss(lambda s: np.where(s[:, 0] > 0, np.inf, 0.0)))
    theta = np.linspace(-0.5, 0.5, 6)
    assert gibbs_table(bad_loss, theta, 0.0).log_z == gibbs_table(glass, theta, 0.0).log_z
    with pytest.raises(EvaluationError, match="loss"):
        kernel_batch(bad_loss, theta, 0.5, states)
    with pytest.raises(EvaluationError, match="loss"):
        gibbs_table(bad_loss, theta, 0.5)


# At the 17/33-node pair these read -0.75, 1.04, 1.46 and 1.48: the pair
# straddles the grid spacing where the h^2 and h^4 error terms cancel.
@pytest.mark.parametrize("seed", [2755815641, 1034515673, 3972081377, 1978875374])
def test_suite_passes_where_the_33_node_ladder_misread_the_order(seed):
    checks = run_consistency_suite(n_instances=1, n_spins=8, seed=seed)
    assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]


class _SkewedTrapezoid(QuadratureSpec):
    """A first-order rule on the trapezoid grid: endpoint weights h/4 and 3h/4."""

    @classmethod
    def trapezoid(cls, n_nodes):
        h = 1.0 / (n_nodes - 1)
        weights = np.full(n_nodes, h)
        weights[0], weights[-1] = h / 4.0, 3.0 * h / 4.0
        return QuadratureSpec(np.linspace(0.0, 1.0, n_nodes), weights)


def test_order_check_fails_a_first_order_rule(monkeypatch, small_glass):
    model, theta = small_glass
    assert quadrature_convergence_order(model, theta, 1.0) >= 1.9
    monkeypatch.setattr(oracle, "QuadratureSpec", _SkewedTrapezoid)
    order = quadrature_convergence_order(model, theta, 1.0)
    assert 0.9 < order < 1.1
    checks = run_consistency_suite(n_instances=2, n_spins=5, seed=1, n_trial_dists=5)
    quad = next(c for c in checks if c.name == "quadrature_order")
    assert not quad.passed and quad.worst < 1.1
