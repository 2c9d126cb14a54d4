import numpy as np
import pytest

from thermoep.core import (
    DivergenceError,
    EnergyModel,
    StateKind,
    check_grad_state,
    check_grad_theta,
)
from thermoep.data import one_hot
from thermoep.models import (
    FeedforwardBaseline,
    LayeredTanhEnergyNet,
    QuadraticEnergyModel,
    SpinGlassModel,
    TwoStateModel,
    init_layer_params,
    linear_state_loss,
    output_spin_mismatch_loss,
    pack_layers,
    random_spin_glass,
    unpack_layers,
)

from relax_reference import relax_deterministic


def random_spins(rng, m, n):
    return np.where(rng.random((m, n)) < 0.5, 1.0, -1.0)


class TestRowLosses:
    def test_output_spin_mismatch_is_zero_one(self):
        loss = output_spin_mismatch_loss(site=2, target=1)
        states = np.array([[1.0, 1, 1, 1], [1.0, 1, -1, 1]])
        np.testing.assert_allclose(loss(states), [0.0, 1.0])
        flipped = output_spin_mismatch_loss(site=2, target=-1)
        np.testing.assert_allclose(flipped(states), [1.0, 0.0])

    def test_linear_state_loss(self):
        loss = linear_state_loss([1.0, -2.0])
        states = np.array([[1.0, 1.0], [0.5, 0.25]])
        np.testing.assert_allclose(loss(states), [-1.0, 0.0])


class TestTwoState:
    def test_energy_and_gradients(self):
        m = TwoStateModel()
        th = np.array([1.7])
        assert m.energy(th, np.array([1.0])) == pytest.approx(1.7)
        assert m.energy(th, np.array([0.0])) == 0.0
        assert m.site_values == (0.0, 1.0)
        assert check_grad_theta(m, th, np.array([1.0])) < 1e-9


class TestSpinGlass:
    def test_energy_formula_on_small_case(self):
        m = SpinGlassModel(3)
        # theta = [h1 h2 h3, J12 J13 J23]
        theta = np.array([0.5, -1.0, 0.25, 2.0, -0.5, 1.0])
        s = np.array([1.0, -1.0, 1.0])
        fields = -(0.5 - 1.0 * -1.0 + 0.25)
        pairs = -(2.0 * (1 * -1) - 0.5 * (1 * 1) + 1.0 * (-1 * 1))
        assert m.energy(theta, s) == pytest.approx(fields + pairs)

    def test_layout_names(self):
        m = SpinGlassModel(4)
        names = [name for name, _, _ in m.default_layout()]
        assert names == ["fields", "couplings"]
        assert m.param_dim == 4 + 6

    def test_coupling_matrix_symmetric_zero_diagonal(self, small_glass):
        model, theta = small_glass
        w = model.coupling_matrix(theta)
        np.testing.assert_allclose(w, w.T)
        np.testing.assert_allclose(np.diag(w), 0.0)

    def test_grad_theta_against_finite_differences(self, small_glass, rng):
        model, theta = small_glass
        for s in random_spins(rng, 3, 4):
            assert check_grad_theta(model, theta, s) < 1e-7

    def test_loss_kinds(self):
        for kind, expect in [("output_spin", {0.0, 1.0}), ("zero", {0.0})]:
            model, _ = random_spin_glass(4, seed=5, loss=kind)
            vals = set(model.loss_batch(random_spins(np.random.default_rng(0), 8, 4)))
            assert vals <= expect
        model, _ = random_spin_glass(4, seed=5, loss="signed")
        states = random_spins(np.random.default_rng(0), 8, 4)
        assert np.any(model.loss_batch(states) < 0)
        with pytest.raises(ValueError):
            random_spin_glass(4, seed=5, loss="nope")

    def test_instances_are_seed_deterministic(self):
        m1, t1 = random_spin_glass(6, seed=9)
        m2, t2 = random_spin_glass(6, seed=9)
        np.testing.assert_array_equal(t1.values, t2.values)
        _, t3 = random_spin_glass(6, seed=10)
        assert not np.array_equal(t1.values, t3.values)


class TestQuadraticModel:
    def test_stationary_moments(self):
        m = QuadraticEnergyModel(3, loss_vector=[1.0, 0.0, -2.0])
        theta = np.array([0.8])
        mean = m.stationary_mean(theta, beta=0.6, temperature=1.2)
        np.testing.assert_allclose(mean, -0.6 * np.array([1.0, 0.0, -2.0]) / 0.8)
        cov = m.stationary_cov(theta, temperature=1.2)
        np.testing.assert_allclose(cov, (1.2 / 0.8) * np.eye(3))

    def test_exact_objective_and_gradient(self):
        m = QuadraticEnergyModel(3, loss_vector=[1.0, 0.0, -2.0])
        theta = np.array([0.8])
        assert m.contrastive_objective_exact(theta) == pytest.approx(-5.0 / (2 * 0.8))
        h = 1e-6
        fd = (
            m.contrastive_objective_exact(np.array([0.8 + h]))
            - m.contrastive_objective_exact(np.array([0.8 - h]))
        ) / (2 * h)
        assert m.grad_contrast_exact(theta)[0] == pytest.approx(fd, rel=1e-6)

    def test_state_gradients(self, rng):
        m = QuadraticEnergyModel(3, loss_vector=[0.5, -1.0, 2.0])
        theta = np.array([1.1])
        s = rng.normal(size=3)
        assert check_grad_state(m, theta, s) < 1e-7
        np.testing.assert_allclose(m.grad_state_loss(s), [0.5, -1.0, 2.0])


def test_quadratic_per_row_beta_kernel_equals_scalar_kernel_row_for_row(rng):
    model = QuadraticEnergyModel(3, loss_vector=[1.0, -0.5, 0.2])
    theta = np.array([1.3])
    rows = rng.normal(size=(4, 3))
    betas = np.array([0.5, 0.0, 0.0, 0.5])
    f, g = model.free_kernel(theta, betas, rows)(rows.copy())
    for beta in (0.0, 0.5):
        f_b, g_b = model.free_kernel(theta, beta, rows)(rows.copy())
        same = betas == beta
        assert np.array_equal(f[same], f_b[same])
        assert np.array_equal(g[same], g_b[same])


class TestLayeredNet:
    def make(self, target=True):
        net = LayeredTanhEnergyNet(5, 4, 3)
        theta = init_layer_params(5, 4, 3, seed=2).values
        if target:
            net = net.with_target(np.array([1.0, 0.0, 0.0]))
        return net, theta

    def random_states(self, net, rng, m):
        states = rng.normal(size=(m, net.state_dim)) * 0.5
        return states

    def test_pack_unpack_round_trip(self, rng):
        w1 = rng.normal(size=(5, 4))
        w2 = rng.normal(size=(4, 3))
        b_h = rng.normal(size=4)
        b_o = rng.normal(size=3)
        theta = pack_layers(w1, w2, b_h, b_o)
        u1, u2, ub_h, ub_o = unpack_layers(theta, 5, 4, 3)
        for a, b in [(w1, u1), (w2, u2), (b_h, ub_h), (b_o, ub_o)]:
            np.testing.assert_array_equal(a, b)

    def test_init_layer_params_deterministic_with_zero_biases(self):
        p1 = init_layer_params(5, 4, 3, seed=7)
        p2 = init_layer_params(5, 4, 3, seed=7)
        np.testing.assert_array_equal(p1.values, p2.values)
        np.testing.assert_array_equal(p1.segment("b_h"), np.zeros(4))
        np.testing.assert_array_equal(p1.segment("b_o"), np.zeros(3))
        bound = np.sqrt(6.0 / (5 + 4))
        assert np.max(np.abs(p1.segment("W1"))) <= bound

    def test_clamp_mask_covers_inputs_only(self):
        net, _ = self.make()
        assert net.clamp_mask[:5].all()
        assert not net.clamp_mask[5:].any()

    def test_energy_batch_matches_scalar(self, rng):
        net, theta = self.make()
        states = self.random_states(net, rng, 4)
        np.testing.assert_allclose(
            net.energy_batch(theta, states),
            [net.energy(theta, s) for s in states],
            atol=1e-12,
        )

    def test_state_and_theta_gradients(self, rng):
        net, theta = self.make()
        s = self.random_states(net, rng, 1)[0]
        assert check_grad_state(net, theta, s) < 1e-6
        assert check_grad_theta(net, theta, s) < 1e-6

    def test_grad_theta_sum_matches_row_loop(self, rng):
        net, theta = self.make()
        states = self.random_states(net, rng, 6)
        w = rng.random(6)
        ref = sum(wi * net.grad_theta_energy(theta, s) for wi, s in zip(w, states))
        np.testing.assert_allclose(
            net.grad_theta_energy_sum(theta, states, weights=w), ref, atol=1e-10
        )

    def test_loss_requires_target(self, rng):
        net, theta = self.make(target=False)
        s = self.random_states(net, rng, 1)[0]
        with pytest.raises(ValueError):
            net.loss(s)
        with_target = net.with_target(np.array([0.0, 1.0, 0.0]))
        _, _, o = with_target.split_state(s[None, :])
        assert with_target.loss(s) == pytest.approx(0.5 * np.sum((o[0] - [0, 1, 0]) ** 2))

    def test_init_state_clamps_input_block(self):
        net, _ = self.make()
        x = np.linspace(0, 1, 5)
        s = net.init_state(x)
        np.testing.assert_array_equal(s[:5], x)
        np.testing.assert_array_equal(s[5:], np.zeros(7))

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_free_kernel_is_bit_equal_to_generic_kernel(self, rng, beta):
        """The hoisted kernel returns the generic adapter's F and dF/dz byte for byte.

        The zero-theta rows at -0.0 give dE/dh = -0.0; the generic kernel
        adds beta * dl/dh = +0.0 to it at beta != 0, which flips the sign.
        """
        net, theta = self.make()
        rows = self.random_states(net, rng, 6)
        z = self.random_states(net, rng, 6)[:, 5:]
        cases = [(theta, z), (np.zeros_like(theta), np.full_like(z, -0.0))]
        for th, zz in cases:
            f, g = net.free_kernel(th, beta, rows)(zz.copy())
            f_ref, g_ref = EnergyModel.free_kernel(net, th, beta, rows)(zz.copy())
            assert f.tobytes() == f_ref.tobytes()
            assert g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize(
        "free_kernel", [LayeredTanhEnergyNet.free_kernel, EnergyModel.free_kernel],
        ids=["layered", "generic"],
    )
    def test_per_row_beta_kernel_equals_scalar_kernel_row_for_row(self, rng, free_kernel):
        net, theta = self.make()
        rows = self.random_states(net, rng, 6)
        z = self.random_states(net, rng, 6)[:, 5:]
        betas = np.array([0.0, 0.3, 1.0, 1.0, 0.0, 0.3])
        f, g = free_kernel(net, theta, betas, rows)(z.copy())
        for beta in (0.0, 0.3, 1.0):
            f_b, g_b = free_kernel(net, theta, beta, rows)(z.copy())
            same = betas == beta
            assert np.array_equal(f[same], f_b[same])
            assert np.array_equal(g[same], g_b[same])

    def test_free_kernel_tiled_targets_are_the_bound_target(self, rng):
        net, theta = self.make()
        rows = self.random_states(net, rng, 6)
        z = self.random_states(net, rng, 6)[:, 5:]
        f, g = net.free_kernel(theta, 0.5, rows)(z.copy())
        f_t, g_t = net.free_kernel(theta, 0.5, rows, np.tile(net.target, (6, 1)))(z.copy())
        assert f_t.tobytes() == f.tobytes()
        assert g_t.tobytes() == g.tobytes()

    @pytest.mark.parametrize("beta", [0.0, 0.7])
    def test_free_kernel_per_row_targets_match_generic_per_example(self, rng, beta):
        """Row i under targets[i] is the generic kernel on net.with_target(targets[i])."""
        net, theta = self.make(target=False)
        theta = np.concatenate([theta[:-7], rng.normal(size=7)])  # non-zero biases
        rows = np.repeat(self.random_states(net, rng, 3), 2, axis=0)  # 3 examples x 2 chains
        targets = np.repeat(one_hot([2, 0, 1], 3), 2, axis=0)
        z = self.random_states(net, rng, 6)[:, 5:]
        f, g = net.free_kernel(theta, beta, rows, targets)(z.copy())
        for i in range(6):
            model = net.with_target(targets[i])
            f_ref, g_ref = EnergyModel.free_kernel(model, theta, beta, rows[i : i + 1])(z[i : i + 1])
            np.testing.assert_allclose(f[i : i + 1], f_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g[i : i + 1], g_ref, rtol=0, atol=1e-12)

    def test_batched_relaxation_matches_generic_minimizer(self, rng):
        net, theta = self.make(target=False)
        inputs = rng.random((3, 5))
        result = net.relax_free_batch(theta, inputs, tol=1e-10, max_iters=2000)
        assert result.converged
        for i in range(3):
            ref = relax_deterministic(
                net, theta, 0.0, net.init_state(inputs[i]),
                step_size=0.5, max_iters=2000, tol=1e-10,
            )
            np.testing.assert_allclose(result.state[i], ref.state, atol=1e-6)

    def test_batched_relaxation_divergence_is_typed(self, rng):
        # every step in (0, 2) keeps the state bounded, so only an overflowing theta diverges
        net, theta = self.make(target=False)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="diverged"):
                net.relax_free_batch(np.full_like(theta, 1e308), rng.random((3, 5)), max_iters=1000)

    @pytest.mark.parametrize("step", [0.0, -0.1, 2.0, 10.0])
    def test_batched_relaxation_rejects_unstable_step(self, rng, step):
        net, theta = self.make(target=False)
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            net.relax_free_batch(theta, rng.random((3, 5)), step=step)
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            net.predict(theta, rng.random((3, 5)), step=step)

    def test_predict_returns_class_indices(self, rng):
        net, theta = self.make(target=False)
        inputs = rng.random((4, 5))
        pred = net.predict(theta, inputs)
        assert pred.shape == (4,)
        assert set(pred) <= {0, 1, 2}


class TestFeedforwardBaseline:
    def test_backprop_matches_finite_differences(self, rng):
        ff = FeedforwardBaseline(5, 4, 3)
        theta = init_layer_params(5, 4, 3, seed=3).values
        x = rng.random((6, 5))
        t = one_hot(rng.integers(0, 3, size=6), 3)
        g = ff.backprop_grad_batch(theta, x, t)
        h = 1e-6
        idx = rng.integers(0, theta.size, size=8)
        for i in idx:
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (ff.loss_mean(tp, x, t) - ff.loss_mean(tm, x, t)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_forward_shape_and_predict(self, rng):
        ff = FeedforwardBaseline(5, 4, 3)
        theta = init_layer_params(5, 4, 3, seed=3).values
        x = rng.random((6, 5))
        out = ff.forward(theta, x)
        assert out.shape == (6, 3)
        np.testing.assert_array_equal(ff.predict(theta, x), np.argmax(out, axis=1))


def test_quadratic_rejects_nonpositive_stiffness():
    m = QuadraticEnergyModel(2, loss_vector=[1.0, 1.0])
    with pytest.raises(ValueError):
        m.stationary_mean(np.array([-0.5]), beta=1.0)
    with pytest.raises(ValueError):
        m.stationary_cov(np.array([0.0]))


def test_state_kind_tags():
    assert SpinGlassModel(3).state_kind is StateKind.BINARY
    assert QuadraticEnergyModel(2).state_kind is StateKind.CONTINUOUS
    assert LayeredTanhEnergyNet(2, 2, 2).state_kind is StateKind.CONTINUOUS
