import hashlib
from dataclasses import replace

import numpy as np
import pytest

import thermoep.sampler as sampler_module
from thermoep.core import EnergyModel, EvaluationError, kernel_batch
from thermoep.models import (
    LayeredTanhEnergyNet,
    QuadraticEnergyModel,
    init_layer_params,
    random_spin_glass,
)
from thermoep.oracle import gibbs_table
from thermoep.rng import make_generator
from thermoep.sampler import (
    ChainConfig,
    Kernel,
    column_ess,
    effective_sample_size,
    langevin,
    run_chains,
    run_phases,
)

from relax_reference import relax_deterministic
from ula_reference import run_ula


def standard_gaussian_config(**overrides):
    base = dict(
        n_steps=1500, n_chains=8, burn_in=300, step_size=0.4,
        kernel=Kernel.LANGEVIN_ADJUSTED, seed=0,
    )
    base.update(overrides)
    return ChainConfig(**base)


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_steps=0)
        with pytest.raises(ValueError):
            ChainConfig(n_steps=10, n_chains=0)
        with pytest.raises(ValueError):
            ChainConfig(n_steps=10, burn_in=10)
        with pytest.raises(ValueError):
            ChainConfig(n_steps=10, thin=0)
        with pytest.raises(ValueError):
            ChainConfig(n_steps=10, step_size=0.0)

    def test_kernel_must_be_a_kernel_member(self):
        with pytest.raises(ValueError, match="Kernel member"):
            ChainConfig(n_steps=200, n_chains=4, kernel="langevin_adjusted")

    def test_default_burn_in_is_one_fifth(self):
        assert ChainConfig(n_steps=100).resolved_burn_in == 20
        assert ChainConfig(n_steps=100, burn_in=37).resolved_burn_in == 37

    def test_n_kept_counts_thinned_slots(self):
        cfg = ChainConfig(n_steps=100, burn_in=20, thin=1)
        assert cfg.n_kept == 80
        cfg = ChainConfig(n_steps=100, burn_in=20, thin=3)
        assert cfg.n_kept == 27  # ceil(80 / 3)

    def test_with_seed_replaces_only_seed(self):
        cfg = ChainConfig(n_steps=10, seed=1, thin=2)
        cfg2 = cfg.with_seed(99)
        assert cfg2.seed == 99
        assert cfg2.thin == 2 and cfg2.n_steps == 10


class TestGibbsSweeps:
    def test_matches_enumeration_distribution(self, small_glass):
        model, theta = small_glass
        cfg = ChainConfig(
            n_steps=3000, n_chains=8, burn_in=500, kernel=Kernel.GIBBS_SWEEP, seed=7
        )
        batch = run_chains(model, theta, 0.7, 1.0, cfg)
        table = gibbs_table(model, theta, 0.7, 1.0)
        bits = (batch.samples > 0).astype(np.int64)
        codes = bits @ (1 << np.arange(4))
        table_bits = (table.states > 0).astype(np.int64)
        table_codes = table_bits @ (1 << np.arange(4))
        empirical = np.bincount(codes, minlength=16) / codes.size
        exact = np.zeros(16)
        exact[table_codes] = table.probs
        tv = 0.5 * np.abs(empirical - exact).sum()
        assert tv < 0.02

    def test_deterministic_given_seed(self, small_glass, gibbs_config):
        model, theta = small_glass
        b1 = run_chains(model, theta, 0.5, 1.0, gibbs_config)
        b2 = run_chains(model, theta, 0.5, 1.0, gibbs_config)
        assert b1.samples.tobytes() == b2.samples.tobytes()
        b3 = run_chains(model, theta, 0.5, 1.0, gibbs_config.with_seed(4))
        assert b1.samples.tobytes() != b3.samples.tobytes()

    def test_rejects_continuous_state(self):
        model = QuadraticEnergyModel(2, loss_vector=[1.0, 0.0])
        cfg = ChainConfig(n_steps=10, kernel=Kernel.GIBBS_SWEEP)
        with pytest.raises(ValueError):
            run_chains(model, np.array([1.0]), 0.0, 1.0, cfg)

    def test_sample_values_are_valid_spins(self, small_glass, gibbs_config):
        model, theta = small_glass
        batch = run_chains(model, theta, 0.0, 1.0, gibbs_config)
        assert np.all(np.isin(batch.samples, (-1.0, 1.0)))
        assert batch.acceptance_rate is None


class TestAdjustedLangevin:
    def test_recovers_standard_gaussian_moments(self):
        model = QuadraticEnergyModel(3)
        cfg = standard_gaussian_config()
        batch = run_chains(model, np.array([1.0]), 0.0, 1.0, cfg)
        n = batch.samples.shape[0]
        mean = batch.samples.mean(axis=0)
        cov = np.cov(batch.samples.T)
        assert np.all(np.abs(mean) < 4.0 / np.sqrt(batch.ess.sum()))
        assert np.max(np.abs(cov - np.eye(3))) < 0.08
        assert 0.4 < batch.acceptance_rate < 0.9
        assert batch.warnings == ()

    def test_acceptance_warning_on_bad_step(self):
        model = QuadraticEnergyModel(2)
        cfg = standard_gaussian_config(n_steps=300, burn_in=50, step_size=8.0)
        batch = run_chains(model, np.array([1.0]), 0.0, 1.0, cfg)
        assert any("acceptance rate" in w for w in batch.warnings)

    def test_rejects_binary_state(self, small_glass):
        model, theta = small_glass
        cfg = standard_gaussian_config(n_steps=10, burn_in=2)
        with pytest.raises(ValueError):
            run_chains(model, theta, 0.0, 1.0, cfg)

    def test_nudged_phase_shifts_mean(self):
        model = QuadraticEnergyModel(2, loss_vector=[2.0, -1.0])
        theta = np.array([1.0])
        cfg = standard_gaussian_config()
        nudged = run_chains(model, theta, 1.0, 1.0, cfg)
        expected = model.stationary_mean(theta, beta=1.0)
        err = np.abs(nudged.samples.mean(axis=0) - expected)
        assert np.all(err < 0.1)


class TestUnadjustedReference:
    """tests/ula_reference.py: unadjusted Langevin as MALA with zero accept uniforms."""

    def test_approximates_gaussian_at_small_step(self):
        model = QuadraticEnergyModel(2)
        cfg = standard_gaussian_config(step_size=0.05, n_steps=4000, burn_in=500)
        kept = run_ula(model, np.array([1.0]), 0.0, 1.0, cfg)
        assert kept.shape == (8, 3500, 2)
        cov = np.cov(kept.reshape(-1, 2).T)
        assert np.max(np.abs(cov - np.eye(2))) < 0.15

    @pytest.mark.parametrize("layered, step, expected", [
        (False, 0.1, "9c5de73a7a01b95a"),
        (False, 0.4, "009dc5d3ae17f350"),
        (True, 0.02, "b2ad28bbb26c897f"),
    ])
    def test_kept_block_is_byte_equal_to_the_removed_kernel(self, layered, step, expected):
        # sha256 prefixes of run_chains' free_samples under the removed
        # Kernel.LANGEVIN_UNADJUSTED: 5 chains x 400 steps, burn-in 100, seed 3
        cfg = ChainConfig(n_steps=400, n_chains=5, burn_in=100, step_size=step, seed=3)
        if layered:
            net = LayeredTanhEnergyNet(20, 6, 3, target=np.eye(3)[1])
            init = net.init_state(np.random.default_rng(4).uniform(0.0, 1.0, 20))
            kept = run_ula(net, init_layer_params(20, 6, 3, seed=0).values, 0.5, 0.1, cfg, init)
        else:
            model = QuadraticEnergyModel(4, loss_vector=[0.3, -0.2, 0.1, 0.5])
            kept = run_ula(model, [1.0], 0.5, 1.0, cfg)
        assert hashlib.sha256(kept.tobytes()).hexdigest()[:16] == expected


class TestUncheckedProposalKernel:
    def test_overflowing_proposals_are_rejections(self):
        # The sampler's kernel has no finiteness check on purpose: a MALA
        # proposal whose F overflows is rejected, where core.kernel_batch
        # raises on the same kind of row.
        model, theta = QuadraticEnergyModel(3), np.array([1.0])
        cfg = standard_gaussian_config(n_steps=20, n_chains=2, burn_in=5, step_size=1e200)
        batch = run_chains(model, theta, 0.0, 1.0, cfg)
        assert batch.acceptance_rate == 0.0
        assert np.all(np.isfinite(batch.samples))
        assert any("acceptance rate 0.00" in w for w in batch.warnings)

        start = batch.samples[:1]  # no proposal was accepted, so the chain never moved
        proposal = start - cfg.step_size * model.grad_state_energy_batch(theta, start)
        with pytest.raises(EvaluationError, match="non-finite"):
            kernel_batch(model, theta, 0.0, proposal)


class TestClamping:
    def net_and_init(self):
        net = LayeredTanhEnergyNet(4, 3, 2, target=np.array([1.0, 0.0]))
        theta = init_layer_params(4, 3, 2, seed=0).values
        x = np.array([0.1, 0.9, 0.4, 0.7])
        return net, theta, net.init_state(x), x

    def test_clamped_model_requires_explicit_init(self):
        net, theta, _, _ = self.net_and_init()
        cfg = standard_gaussian_config(n_steps=20, burn_in=4, step_size=0.05)
        with pytest.raises(ValueError):
            run_chains(net, theta, 0.0, 0.5, cfg)

    def test_clamped_coordinates_never_move(self):
        net, theta, init, x = self.net_and_init()
        cfg = standard_gaussian_config(n_steps=200, burn_in=20, step_size=0.05)
        batch = run_chains(net, theta, 0.3, 0.5, cfg, init)
        np.testing.assert_array_equal(
            batch.samples[:, :4], np.broadcast_to(x, (batch.samples.shape[0], 4))
        )
        assert batch.samples[:, 4:].std() > 0


class TestInitValidation:
    """Bad inits are refused before sampling, instead of returning NaN or off-lattice chains."""

    def test_non_finite_1d_init_is_rejected(self):
        cfg = standard_gaussian_config(n_steps=10, burn_in=2)
        with pytest.raises(ValueError, match="finite"):
            run_chains(QuadraticEnergyModel(3), np.array([1.0]), 0.0, 1.0, cfg,
                       np.array([0.0, np.nan, 0.0]))

    def test_non_finite_2d_init_is_rejected(self):
        cfg = standard_gaussian_config(n_steps=10, burn_in=2)
        init = np.zeros((8, 3))
        init[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            run_chains(QuadraticEnergyModel(3), np.array([1.0]), 0.0, 1.0, cfg, init)

    def test_binary_2d_init_off_the_site_values_is_rejected(self, small_glass):
        model, theta = small_glass
        cfg = ChainConfig(n_steps=10, n_chains=8, burn_in=2, kernel=Kernel.GIBBS_SWEEP, seed=1)
        init = np.ones((8, 4))
        init[5, 0] = 0.5
        with pytest.raises(ValueError, match="must lie in"):
            run_chains(model, theta, 0.0, 1.0, cfg, init)
        init[5, 0] = -1.0
        assert run_chains(model, theta, 0.0, 1.0, cfg, init).samples.shape == (64, 4)


class TestChainCount:
    """Chain c draws from stream (seed, c), so a k-chain run is a prefix of a larger one."""

    @staticmethod
    def prefix(batch, k):
        return batch.per_chain()[:k].reshape(-1, batch.samples.shape[1])

    def test_quadratic_and_gibbs_prefixes_are_byte_equal(self, small_glass):
        quad = QuadraticEnergyModel(4, loss_vector=[1.0, -0.5, 0.0, 0.2])
        glass, glass_theta = small_glass
        runs = [
            (quad, np.array([1.3]), standard_gaussian_config(n_steps=200, burn_in=50, seed=9)),
            (glass, glass_theta, ChainConfig(
                n_steps=60, n_chains=8, burn_in=10, kernel=Kernel.GIBBS_SWEEP, seed=9)),
        ]
        for model, theta, cfg in runs:
            full = run_chains(model, theta, 0.5, 1.0, cfg)
            for k in (1, 3):
                small = run_chains(model, theta, 0.5, 1.0, replace(cfg, n_chains=k))
                assert small.samples.tobytes() == self.prefix(full, k).tobytes()

    def test_layered_net_prefix_agrees_to_rounding(self):
        # the input drive is a BLAS product over the rows, whose rounding
        # depends on the row count
        net = LayeredTanhEnergyNet(784, 32, 10, target=np.eye(10)[3])
        theta = init_layer_params(784, 32, 10, seed=0).values
        init = net.init_state(np.random.default_rng(4).uniform(0.0, 1.0, 784))
        cfg = standard_gaussian_config(n_steps=60, burn_in=20, step_size=0.02, seed=9)
        full = run_chains(net, theta, 0.5, 0.1, cfg, init)
        for k in (1, 3):
            small = run_chains(net, theta, 0.5, 0.1, replace(cfg, n_chains=k), init)
            np.testing.assert_allclose(small.samples, self.prefix(full, k), rtol=0, atol=1e-12)


class TestRunChainsStreamLayout:
    def test_row_zero_replays_block_draws_by_hand(self):
        """Pins run_chains' layout: chain c's stream (seed, c) gives its init row,
        then its n_steps accept uniforms as one block, then its noise."""
        model = QuadraticEnergyModel(3, loss_vector=[1.0, -0.5, 0.2])
        theta = np.array([1.3])
        cfg = standard_gaussian_config(n_steps=80, n_chains=4, burn_in=20, seed=6)
        batch = run_chains(model, theta, 0.5, 1.0, cfg)

        g = make_generator(6, 0)
        init = g.standard_normal(3)[None, :]
        uniforms = g.random(cfg.n_steps)
        noise = g.standard_normal((cfg.n_steps, 3))
        kept, n_accept = langevin(
            model.free_kernel(theta, 0.5, init), init.copy(),
            lambda step: (noise[step : step + 1], uniforms[step : step + 1]), cfg, 1.0,
        )
        assert 0 < n_accept < cfg.n_steps
        assert batch.init[:1].tobytes() == init.tobytes()
        assert kept[0].tobytes() == batch.free_samples[0].tobytes()

    @pytest.mark.parametrize("chunk", [7, 80, 500])
    def test_noise_chunk_moves_no_bit(self, monkeypatch, chunk):
        """The noise chunk bounds a buffer, never the stream: 80 steps in chunks of 7
        (a partial last chunk), of exactly 80, or of more than 80 give the same run."""
        model = QuadraticEnergyModel(3, loss_vector=[1.0, -0.5, 0.2])
        theta = np.array([1.3])
        cfg = standard_gaussian_config(n_steps=80, n_chains=4, burn_in=20, seed=6)
        ref = run_chains(model, theta, 0.5, 1.0, cfg)
        monkeypatch.setattr(sampler_module, "_NOISE_CHUNK", chunk)
        batch = run_chains(model, theta, 0.5, 1.0, cfg)
        assert batch.free_samples.tobytes() == ref.free_samples.tobytes()
        assert batch.acceptance_rate == ref.acceptance_rate


class TestRunPhases:
    """Phase p of a run_phases block is the run_chains call with its (beta, seed)."""

    PHASES = [(0.0, 11), (0.5, 12), (0.5, 13), (0.0, 14)]

    @staticmethod
    def assert_byte_equal(batch, ref):
        assert batch.free_samples.tobytes() == ref.free_samples.tobytes()
        assert batch.init.tobytes() == ref.init.tobytes()
        assert batch.ess.tobytes() == ref.ess.tobytes()
        assert batch.acceptance_rate == ref.acceptance_rate
        assert batch.warnings == ref.warnings

    @pytest.mark.parametrize("step", [0.4, 2.5])
    @pytest.mark.parametrize("init", [None, [0.3, -0.1, 0.2]])
    def test_mixed_mala_block_is_byte_equal_to_run_chains(self, init, step):
        model = QuadraticEnergyModel(3, loss_vector=[1.0, -0.5, 0.2])
        theta = np.array([1.3])
        cfg = standard_gaussian_config(n_steps=200, n_chains=4, burn_in=50, step_size=step)
        batches = run_phases(model, theta, 1.0, cfg, self.PHASES, init)
        for (beta, seed), batch in zip(self.PHASES, batches):
            ref = run_chains(model, theta, beta, 1.0, cfg.with_seed(seed), init)
            self.assert_byte_equal(batch, ref)
        assert any(b.warnings for b in batches) == (step > 1.0)  # the large step warns

    @pytest.mark.parametrize("init", [None, [1.0, -1.0, 1.0, 1.0, -1.0, -1.0]])
    def test_gibbs_phases_are_byte_equal_to_run_chains(self, init):
        model, theta = random_spin_glass(6, seed=1, loss="output_spin")
        cfg = ChainConfig(n_steps=120, n_chains=5, burn_in=40, kernel=Kernel.GIBBS_SWEEP)
        batches = run_phases(model, theta.values, 1.0, cfg, self.PHASES, init)
        for (beta, seed), batch in zip(self.PHASES, batches):
            ref = run_chains(model, theta.values, beta, 1.0, cfg.with_seed(seed), init)
            self.assert_byte_equal(batch, ref)

    def test_layered_net_phases_agree_with_run_chains_to_rounding(self):
        net = LayeredTanhEnergyNet(20, 6, 3, target=np.eye(3)[0])
        theta = init_layer_params(20, 6, 3, seed=0).values
        init = net.init_state(np.random.default_rng(4).uniform(0.0, 1.0, 20))
        cfg = ChainConfig(n_steps=150, n_chains=4, burn_in=50, step_size=0.02)
        phases = [(0.0, 5), (0.3, 6), (1.0, 7)]
        for (beta, seed), batch in zip(phases, run_phases(net, theta, 0.1, cfg, phases, init)):
            ref = run_chains(net, theta, beta, 0.1, cfg.with_seed(seed), init)
            np.testing.assert_allclose(batch.free_samples, ref.free_samples, rtol=0, atol=1e-12)
            assert batch.acceptance_rate == ref.acceptance_rate

    def test_unnudged_block_never_reads_a_target(self):
        net = LayeredTanhEnergyNet(20, 6, 3)  # no target: any nudged row would raise
        theta = init_layer_params(20, 6, 3, seed=0).values
        init = net.init_state(np.random.default_rng(4).uniform(0.0, 1.0, 20))
        cfg = ChainConfig(n_steps=40, n_chains=3, step_size=0.02)
        batches = run_phases(net, theta, 0.1, cfg, [(0.0, 1), (0.0, 2)], init)
        assert [b.n_chains for b in batches] == [3, 3]
        with pytest.raises(ValueError, match="target"):
            run_phases(net, theta, 0.1, cfg, [(0.0, 1), (0.5, 2)], init)


class GenericKernelNet(LayeredTanhEnergyNet):
    """The layered net sampled through the base class's full-state kernel adapter."""

    free_kernel = EnergyModel.free_kernel


class TestLayeredNetChains:
    @staticmethod
    def setup_run():
        net = LayeredTanhEnergyNet(784, 32, 10, target=np.eye(10)[3])
        theta = init_layer_params(784, 32, 10, seed=0).values
        init = net.init_state(np.random.default_rng(4).uniform(0.0, 1.0, 784))
        cfg = standard_gaussian_config(n_steps=60, n_chains=4, burn_in=20, step_size=0.02, seed=9)
        return net, theta, init, cfg

    def test_batch_stores_only_the_free_block(self):
        net, theta, init, cfg = self.setup_run()
        batch = run_chains(net, theta, 0.5, 0.1, cfg, init)
        assert batch.free_samples.shape == (cfg.n_chains, cfg.n_kept, 32 + 10)
        assert batch.samples.shape == (cfg.n_chains * cfg.n_kept, net.state_dim)
        rows = batch.chain(2)
        assert rows.flags.c_contiguous and rows.shape == (cfg.n_kept, net.state_dim)
        assert rows.tobytes() == batch.per_chain()[2].tobytes()
        rows[:] = 0.0  # a fresh array: the batch is untouched
        clamped = np.broadcast_to(init[:784], (cfg.n_kept, 784))
        np.testing.assert_array_equal(batch.chain(2)[:, :784], clamped)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_model_kernel_samples_like_the_generic_kernel(self, beta):
        net, theta, init, cfg = self.setup_run()
        generic = GenericKernelNet(784, 32, 10, target=np.eye(10)[3])
        fast = run_chains(net, theta, beta, 0.1, cfg, init)
        ref = run_chains(generic, theta, beta, 0.1, cfg, init)
        assert fast.free_samples.tobytes() == ref.free_samples.tobytes()
        assert fast.ess.tobytes() == ref.ess.tobytes()
        assert fast.acceptance_rate == ref.acceptance_rate


class TestSampleBatch:
    def test_per_chain_is_chain_major(self, small_glass):
        model, theta = small_glass
        cfg = ChainConfig(
            n_steps=30, n_chains=3, burn_in=10, kernel=Kernel.GIBBS_SWEEP, seed=1
        )
        batch = run_chains(model, theta, 0.0, 1.0, cfg)
        per = batch.per_chain()
        assert per.shape == (3, 20, 4)
        np.testing.assert_array_equal(per.reshape(-1, 4), batch.samples)
        assert batch.ess.shape == (3,)


class TestEffectiveSampleSize:
    def test_iid_series_close_to_length(self, rng):
        x = rng.normal(size=4000)
        assert effective_sample_size(x) > 2000

    def test_ar1_series_shrinks_by_mixing_time(self, rng):
        phi = 0.9
        n = 20000
        x = np.zeros(n)
        eps = rng.normal(size=n)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        ess = effective_sample_size(x)
        expected = n * (1 - phi) / (1 + phi)
        assert expected / 2 < ess < expected * 2

    def test_constant_series_counts_as_one_sample(self):
        assert effective_sample_size(np.full(100, 2.5)) == 1.0

    def test_short_series_returns_length(self):
        assert effective_sample_size(np.array([1.0, 2.0])) == 2.0


def reference_ess(series, prefix=False) -> float:
    """The scalar, one-FFT-per-column ESS that column_ess batches.

    column_ess sums each column's whole row of pair sums with those from
    the cutoff on masked to zero; prefix=True sums only the slice before
    the cutoff instead, as column_ess's former per-column loop did.  The
    two orders round differently.
    """
    x = np.asarray(series, dtype=np.float64)
    k = x.size
    if k < 4:
        return float(k)
    x = x - x.mean()
    if not np.any(x):
        return 1.0
    nfft = 1 << (2 * k - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:k] / k
    rho = acov / acov[0]
    if rho.size % 2:
        rho = np.append(rho, 0.0)
    pair_sums = rho[0::2] + rho[1::2]
    positive = np.nonzero(pair_sums <= 0.0)[0]
    cutoff = positive[0] if positive.size else pair_sums.size
    if prefix:
        head = pair_sums[:cutoff].sum()
    else:
        head = np.where(np.arange(pair_sums.size) < cutoff, pair_sums, 0.0).sum()
    tau = max(-1.0 + 2.0 * float(head), 1.0 / k)
    return float(k / tau)


# column_ess's masked row sum reorders a float64 sum that the per-column
# loop took over the prefix alone, so ESS may move by a few ulps: the
# largest relative gap over 1,800 blocks of 24 AR(1) columns (k = 5 to 801)
# was 4 eps.
RTOL_ESS = 8 * np.finfo(np.float64).eps


class TestColumnEss:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 17, 200, 801, 1085])
    def test_byte_equal_to_the_scalar_algorithm(self, rng, k):
        # iid, AR(1) at phi = 0.9, 0.97 and 0.99 (long pair-sum prefixes), a walk, a constant
        noise = rng.normal(size=(k, 5))
        ar = noise[:, 1:4].copy()
        for i in range(1, k):
            ar[i] += np.array([0.9, 0.97, 0.99]) * ar[i - 1]
        block = np.concatenate(
            [noise[:, :1], ar, noise[:, 4:].cumsum(axis=0), np.full((k, 1), 2.5)], axis=1
        )
        ess = column_ess(block)
        assert ess.shape == (6,)
        for j in range(6):
            expected = reference_ess(block[:, j])
            assert ess[j].tobytes() == np.float64(expected).tobytes()
            assert effective_sample_size(block[:, j]) == expected
        if k >= 4:
            assert ess[5] == 1.0

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 17, 200, 801, 1085])
    def test_masked_cutoff_sum_is_the_per_column_loop_to_rounding(self, rng, k):
        # AR(1) columns over a spread of phi, so the cutoffs differ from
        # column to column, and a constant column
        phi = np.linspace(0.0, 0.99, 24)
        ar = rng.normal(size=(k, 24))
        for i in range(1, k):
            ar[i] += phi * ar[i - 1]
        block = np.concatenate([ar, np.full((k, 1), -1.5)], axis=1)
        ess = column_ess(block)
        loop = np.array([reference_ess(block[:, j], prefix=True) for j in range(25)])
        np.testing.assert_allclose(ess, loop, rtol=RTOL_ESS, atol=0.0)
        if k < 4:
            assert np.all(ess == k)
        else:
            assert ess[-1] == 1.0


class TestRelaxation:
    def test_finds_quadratic_minimum(self):
        model = QuadraticEnergyModel(3, loss_vector=[1.0, -2.0, 0.5])
        theta = np.array([2.0])
        res = relax_deterministic(
            model, theta, 1.0, np.zeros(3), step_size=0.3, max_iters=500, tol=1e-10
        )
        assert res.converged
        np.testing.assert_allclose(res.state, -np.array([1.0, -2.0, 0.5]) / 2.0, atol=1e-8)
