import importlib

import numpy as np
import pytest

from thermoep.core import EnergyModel
from thermoep.estimators import (
    EstimationError,
    EstimatorMethod,
    QuadratureSpec,
    grad_classical_ep,
    grad_contrast_draws,
    grad_contrast_mc,
    grad_covariance_mc,
    grad_supervised_mc,
)
from thermoep.models import (
    LayeredTanhEnergyNet,
    QuadraticEnergyModel,
    init_layer_params,
    pack_layers,
    random_spin_glass,
)
from thermoep.oracle import (
    exact_grad_J_contrast,
    exact_grad_J_covariance,
    exact_loss_energy_covariance,
)
from thermoep.sampler import ChainConfig, Kernel, run_chains


class TestQuadratureSpec:
    def test_trapezoid_two_nodes(self):
        q = QuadratureSpec.trapezoid(2)
        np.testing.assert_allclose(q.nodes, [0.0, 1.0])
        np.testing.assert_allclose(q.weights, [0.5, 0.5])

    def test_trapezoid_interior_weights_uniform(self):
        q = QuadratureSpec.trapezoid(5)
        np.testing.assert_allclose(q.weights, [0.125, 0.25, 0.25, 0.25, 0.125])
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_gauss_legendre_integrates_cubics_exactly(self):
        q = QuadratureSpec.gauss_legendre(2)
        value = float(np.sum(q.weights * q.nodes**3))
        assert value == pytest.approx(0.25, abs=1e-14)
        assert np.all((q.nodes > 0) & (q.nodes < 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=np.array([0.5, 0.5]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=np.array([0.0, 1.5]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=np.array([0.0, 1.0]), weights=np.array([0.9, 0.2]))
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=np.array([0.0, 1.0]), weights=np.array([1.2, -0.2]))
        with pytest.raises(ValueError):
            QuadratureSpec.trapezoid(1)


class TestContrastEstimator:
    def test_within_errors_of_enumeration(self, small_glass, gibbs_config):
        model, theta = small_glass
        exact = exact_grad_J_contrast(model, theta, 1.0)
        est = grad_contrast_mc(model, theta, 1.0, gibbs_config)
        z = np.abs(est.grad.values - exact) / est.std_err
        assert np.max(z) < 4.0
        assert est.method is EstimatorMethod.EXPECTATION_CONTRAST

    def test_gaussian_model_matches_closed_form(self):
        model = QuadraticEnergyModel(3, loss_vector=[1.0, -0.5, 2.0])
        theta = np.array([1.5])
        cfg = ChainConfig(
            n_steps=2500, n_chains=16, burn_in=500, step_size=0.3,
            kernel=Kernel.LANGEVIN_ADJUSTED, seed=5,
        )
        est = grad_contrast_mc(model, theta, 1.0, cfg)
        exact = model.grad_contrast_exact(theta)
        z = np.abs(est.grad.values - exact) / est.std_err
        assert np.max(z) < 4.0

    def test_estimate_carries_model_layout(self, small_glass, gibbs_config):
        model, theta = small_glass
        est = grad_contrast_mc(model, theta, 1.0, gibbs_config)
        assert est.grad.segment("fields").shape == (4,)
        assert est.grad.segment("couplings").shape == (6,)
        assert est.std_err.shape == (model.param_dim,)

    def test_deterministic_given_seed(self, small_glass, gibbs_config):
        model, theta = small_glass
        e1 = grad_contrast_mc(model, theta, 1.0, gibbs_config)
        e2 = grad_contrast_mc(model, theta, 1.0, gibbs_config)
        assert e1.grad.values.tobytes() == e2.grad.values.tobytes()

    def test_stderr_shrinks_with_chain_count(self, small_glass, gibbs_config):
        model, theta = small_glass
        from dataclasses import replace

        few = grad_contrast_mc(model, theta, 1.0, replace(gibbs_config, n_chains=8))
        many = grad_contrast_mc(model, theta, 1.0, replace(gibbs_config, n_chains=32))
        ratio = few.std_err.mean() / many.std_err.mean()
        assert 1.3 < ratio < 3.2  # expect ~2 for a 4x chain count


class TestPhaseBlocks:
    """Each estimate samples all its MALA phases with one langevin call."""

    model = QuadraticEnergyModel(3, loss_vector=[1.0, -0.5, 2.0])
    theta = np.array([1.5])
    cfg = ChainConfig(n_steps=60, n_chains=4, burn_in=20, step_size=0.3, seed=5)

    def test_contrast_samples_both_phases_in_one_call(self, langevin_calls):
        grad_contrast_mc(self.model, self.theta, 1.0, self.cfg)
        assert langevin_calls == [2 * self.cfg.n_chains]

    def test_covariance_samples_every_node_in_one_call(self, langevin_calls):
        grad_covariance_mc(self.model, self.theta, 1.0, QuadratureSpec.trapezoid(3), self.cfg)
        assert langevin_calls == [3 * self.cfg.n_chains]

    def test_draws_are_byte_equal_to_one_draw_calls(self, langevin_calls):
        seeds = [3, 4, 5]
        draws = grad_contrast_draws(self.model, self.theta, 1.0, self.cfg, seeds, beta=0.4)
        assert langevin_calls == [2 * len(seeds) * self.cfg.n_chains]
        for seed, est in zip(seeds, draws):
            ref = grad_contrast_mc(self.model, self.theta, 1.0, self.cfg.with_seed(seed), beta=0.4)
            assert est.grad.values.tobytes() == ref.grad.values.tobytes()
            assert est.std_err.tobytes() == ref.std_err.tobytes()
            assert est.meta == ref.meta


class TestClassicalEP:
    def test_beta_one_is_bitwise_contrast(self, small_glass, gibbs_config):
        model, theta = small_glass
        contrast = grad_contrast_mc(model, theta, 1.0, gibbs_config)
        ep = grad_classical_ep(model, theta, 1.0, 1.0, gibbs_config)
        assert ep.grad.values.tobytes() == contrast.grad.values.tobytes()
        assert ep.method is EstimatorMethod.CLASSICAL_EP
        # at any other beta it is the beta-contrast rescaled by 1 / beta, bit for bit
        beta = 0.3
        contrast = grad_contrast_mc(model, theta, 1.0, gibbs_config, beta=beta)
        ep = grad_classical_ep(model, theta, 1.0, beta, gibbs_config)
        assert ep.grad.values.tobytes() == ((1.0 / beta) * contrast.grad.values).tobytes()
        assert ep.std_err.tobytes() == ((1.0 / beta) * contrast.std_err).tobytes()
        assert contrast.method is EstimatorMethod.EXPECTATION_CONTRAST

    def test_rejects_zero_nudge(self, small_glass, gibbs_config):
        model, theta = small_glass
        with pytest.raises(EstimationError):
            grad_classical_ep(model, theta, 1.0, 0.0, gibbs_config)

    def test_small_beta_scales_up_noise(self, small_glass, gibbs_config):
        model, theta = small_glass
        big = grad_classical_ep(model, theta, 1.0, 1.0, gibbs_config)
        tiny = grad_classical_ep(model, theta, 1.0, 0.01, gibbs_config)
        assert tiny.std_err.mean() > 20 * big.std_err.mean()


class TestCovarianceEstimator:
    def test_within_errors_of_matched_quadrature_oracle(self, small_glass, gibbs_config):
        model, theta = small_glass
        quad = QuadratureSpec.trapezoid(5)
        ref = exact_grad_J_covariance(model, theta, 1.0, quad)
        est = grad_covariance_mc(model, theta, 1.0, quad, gibbs_config)
        z = np.abs(est.grad.values - ref) / est.std_err
        assert np.max(z) < 4.0
        assert est.method is EstimatorMethod.INTEGRATED_COVARIANCE

    def test_requires_two_kept_samples_per_chain(self, small_glass):
        model, theta = small_glass
        cfg = ChainConfig(
            n_steps=4, n_chains=4, burn_in=3, kernel=Kernel.GIBBS_SWEEP, seed=0
        )
        with pytest.raises(EstimationError):
            grad_covariance_mc(model, theta, 1.0, QuadratureSpec.trapezoid(3), cfg)

    def test_requires_two_chains(self, small_glass):
        model, theta = small_glass
        cfg = ChainConfig(
            n_steps=50, n_chains=1, burn_in=10, kernel=Kernel.GIBBS_SWEEP, seed=0
        )
        with pytest.raises(EstimationError):
            grad_covariance_mc(model, theta, 1.0, QuadratureSpec.trapezoid(3), cfg)

    def test_node_metadata_records_grid(self, small_glass, gibbs_config):
        model, theta = small_glass
        quad = QuadratureSpec.trapezoid(3)
        est = grad_covariance_mc(model, theta, 1.0, quad, gibbs_config)
        betas = [node["beta"] for node in est.meta["nodes"]]
        np.testing.assert_allclose(betas, [0.0, 0.5, 1.0])


class TestSupervisedEstimator:
    def test_matches_free_phase_covariance_oracle(self, small_glass, gibbs_config):
        model, theta = small_glass
        exact = -exact_loss_energy_covariance(model, theta, 0.0, 1.0) / 1.0
        est = grad_supervised_mc(model, theta, 1.0, gibbs_config)
        z = np.abs(est.grad.values - exact) / est.std_err
        assert np.max(z) < 4.0
        assert est.method is EstimatorMethod.SUPERVISED_COVARIANCE


def legacy_chain_mean_grads(model, theta, batch):
    """The per-chain loop over full rows that chain_sums replaced."""
    return np.stack([
        model.grad_theta_energy_sum(theta, batch.chain(c)) / batch.n_kept
        for c in range(batch.n_chains)
    ])


def legacy_chain_covariances(model, theta, batch):
    k = batch.n_kept
    losses = np.empty((batch.n_chains, k))
    g_sums = np.empty((batch.n_chains, model.param_dim))
    lg_sums = np.empty_like(g_sums)
    for c in range(batch.n_chains):
        chain = batch.chain(c)
        losses[c] = model.loss_batch(chain)
        g_sums[c] = model.grad_theta_energy_sum(theta, chain)
        lg_sums[c] = model.grad_theta_energy_sum(theta, chain, weights=losses[c])
    l_sums = losses.sum(axis=1)
    pooled_l = l_sums.sum() / (batch.n_chains * k)
    pooled_g = g_sums.sum(axis=0) / (batch.n_chains * k)
    covs = lg_sums
    covs -= pooled_l * g_sums
    covs -= l_sums[:, None] * pooled_g
    covs += k * pooled_l * pooled_g
    covs /= k - 1
    return covs, l_sums / k


def packed_chain_sums(net, init, free, weighted=False):
    """The layered net's chain_sums with each chain's outer products packed by hand."""
    target = net.target if weighted else np.zeros(net.n_out)
    sums, losses, l_sums = [], [], []
    for c in range(len(free)):
        s = net.feature_sums(free[c : c + 1], target[None, :], need_cov=weighted)
        x = init[c, : net.n_in]
        sums.append(pack_layers(-np.outer(x, s.sum_th), -s.sum_cross, -s.sum_th, -s.sum_to))
        if weighted:
            losses.append(s.losses[0])
            l_sums.append(pack_layers(-np.outer(x, s.sum_lth), -s.sum_lcross, -s.sum_lth,
                                      -s.sum_lto))
    return (np.stack(sums), np.stack(losses), np.stack(l_sums)) if weighted else np.stack(sums)


class GenericSumsNet(LayeredTanhEnergyNet):
    """The layered net reduced through the base class's full-row chain sums."""

    chain_sums = EnergyModel.chain_sums


class TestChainSums:
    def test_glass_estimates_are_byte_equal_to_the_full_row_loop(self, small_glass, monkeypatch):
        model, theta = small_glass
        cfg = ChainConfig(n_steps=120, n_chains=8, burn_in=40, kernel=Kernel.GIBBS_SWEEP, seed=5)
        quad = QuadratureSpec.trapezoid(3)
        fast = [grad_contrast_mc(model, theta, 1.0, cfg),
                grad_covariance_mc(model, theta, 1.0, quad, cfg)]
        estimators = importlib.import_module("thermoep.estimators")
        monkeypatch.setattr(estimators, "_chain_mean_grads", legacy_chain_mean_grads)
        monkeypatch.setattr(estimators, "_chain_covariances", legacy_chain_covariances)
        legacy = [grad_contrast_mc(model, theta, 1.0, cfg),
                  grad_covariance_mc(model, theta, 1.0, quad, cfg)]
        for mine, ref in zip(fast, legacy):
            assert mine.grad.values.tobytes() == ref.grad.values.tobytes()
            assert mine.std_err.tobytes() == ref.std_err.tobytes()

    @pytest.mark.parametrize("n_chains", [1, 8])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_layered_net_feature_sums_match_full_rows(self, n_chains, beta, weighted):
        target = np.eye(10)[3]
        net = LayeredTanhEnergyNet(784, 32, 10, target=target)
        theta = init_layer_params(784, 32, 10, seed=0).values
        rng = np.random.default_rng(8)
        init = np.stack([net.init_state(rng.uniform(0.0, 1.0, 784)) for _ in range(n_chains)])
        cfg = ChainConfig(n_steps=60, n_chains=n_chains, burn_in=20, step_size=0.02, seed=9)
        batch = run_chains(net, theta, beta, 0.1, cfg, init)
        mine = net.chain_sums(theta, batch.init, batch.free_samples, weighted=weighted)
        ref = GenericSumsNet(784, 32, 10, target=target).chain_sums(
            theta, batch.init, batch.free_samples, weighted=weighted
        )
        for a, b in zip(*((mine, ref) if weighted else ((mine,), (ref,)))):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_chains", [1, 8])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_layered_net_sums_are_byte_equal_to_packed_outer_products(self, n_chains, weighted):
        """feature_grad over one chain's input is the hand-packed (-x (x) sum th, ...) sum."""
        net = LayeredTanhEnergyNet(784, 32, 10, target=np.eye(10)[3])
        rng = np.random.default_rng(8)
        theta = init_layer_params(784, 32, 10, seed=0).values.copy()
        theta[-42:] = rng.normal(scale=0.3, size=42)  # non-zero biases
        init = np.stack([net.init_state(rng.uniform(0.0, 1.0, 784)) for _ in range(n_chains)])
        cfg = ChainConfig(n_steps=60, n_chains=n_chains, burn_in=20, step_size=0.02, seed=9)
        batch = run_chains(net, theta, 0.5, 0.1, cfg, init)
        mine = net.chain_sums(theta, batch.init, batch.free_samples, weighted=weighted)
        ref = packed_chain_sums(net, batch.init, batch.free_samples, weighted)
        for a, b in zip(*((mine, ref) if weighted else ((mine,), (ref,)))):
            assert a.tobytes() == b.tobytes()
