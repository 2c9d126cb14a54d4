from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoep.diagnostics import (
    SweepResult,
    _free_mean,
    alignment_sweep,
    cosine,
    snr_of_perturbation,
    spearman_rho,
)
from thermoep.estimators import grad_supervised_mc
from thermoep.models import LayeredTanhEnergyNet, init_layer_params, random_spin_glass
from thermoep.rng import (
    FREE_PHASE,
    NUDGED_PHASE,
    SWEEP_REFERENCE,
    SWEEP_STREAM,
    SWEEP_UPDATE_BASE,
    derive_seed,
)
from thermoep.sampler import ChainConfig, Kernel, run_chains


class TestCosine:
    def test_parallel_antiparallel_orthogonal(self):
        u = np.array([1.0, 2.0, -1.0])
        assert cosine(u, 3.0 * u) == pytest.approx(1.0)
        assert cosine(u, -u) == pytest.approx(-1.0)
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_zero_vector_reports_zero(self):
        assert cosine(np.zeros(3), [1.0, 0.0, 0.0]) == 0.0
        assert cosine([1e-13, 0.0], [1.0, 0.0]) == 0.0

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.floats(0.1, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, values, scale):
        u = np.array(values)
        # scale invariance only holds above the degenerate-norm cutoff
        assume(np.linalg.norm(u) > 1e-6)
        v = np.linspace(1.0, 2.0, len(u))
        assert cosine(u, v) == pytest.approx(cosine(scale * u, v), abs=1e-9)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = cosine(rng.normal(size=5), rng.normal(size=5))
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestSpearman:
    def test_monotone_is_one(self):
        x = [0.001, 0.01, 0.1, 1.0]
        assert spearman_rho(x, [0.1, 0.5, 0.7, 0.9]) == pytest.approx(1.0)
        assert spearman_rho(x, [0.9, 0.7, 0.5, 0.1]) == pytest.approx(-1.0)

    def test_rank_based(self):
        # one swapped pair out of five drops rho below 1 but keeps it high
        rho = spearman_rho([1, 2, 3, 4, 5], [1.0, 2.0, 4.0, 3.0, 5.0])
        assert 0.8 < rho < 1.0


class TestSnr:
    def setup_method(self):
        self.model, self.theta = _probe()

    def test_validation(self):
        cfg = ChainConfig(n_steps=40, n_chains=4, kernel=Kernel.GIBBS_SWEEP, seed=0)
        with pytest.raises(ValueError, match="n_repeats"):
            snr_of_perturbation(self.model, self.theta, 1.0, 1.0, cfg, n_repeats=1)

    def test_strong_nudge_beats_weak_nudge(self):
        cfg = ChainConfig(n_steps=220, n_chains=16, burn_in=60,
                          kernel=Kernel.GIBBS_SWEEP, seed=3)
        strong = snr_of_perturbation(self.model, self.theta, 1.0, 1.0, cfg, n_repeats=6)
        weak = snr_of_perturbation(self.model, self.theta, 0.01, 1.0, cfg, n_repeats=6)
        assert strong > weak


@pytest.mark.parametrize("n_chains", [8, 64])
def test_free_mean_equals_the_masked_full_mean(n_chains):
    """The SNR reads the free block; its column means are the full-state ones, byte for byte."""
    net = LayeredTanhEnergyNet(784, 32, 10, target=np.eye(10)[1])
    theta = init_layer_params(784, 32, 10, seed=1).values
    init = net.init_state(np.random.default_rng(5).uniform(0.0, 1.0, 784))
    cfg = ChainConfig(n_steps=40, n_chains=n_chains, burn_in=10, step_size=0.02, seed=2)
    batch = run_chains(net, theta, 0.5, 0.1, cfg, init)
    full = batch.samples.mean(axis=0)[~net.clamp_mask]
    assert _free_mean(batch).tobytes() == full.tobytes()


def _probe():
    model, theta = random_spin_glass(4, seed=11, loss="output_spin")
    return model, theta.values


@pytest.fixture(scope="module")
def sweep():
    model, theta = _probe()
    cfg = ChainConfig(n_steps=300, n_chains=16, burn_in=100,
                      kernel=Kernel.GIBBS_SWEEP, seed=7)
    return model, theta, alignment_sweep(
        model, theta, 1.0, [0.05, 0.3, 1.0], cfg,
        snr_repeats=4, snr_probes=1, n_repeats=4,
    )


class TestAlignmentSweep:
    def test_validation(self):
        model, theta = _probe()
        cfg = ChainConfig(n_steps=40, n_chains=4, kernel=Kernel.GIBBS_SWEEP, seed=0)
        with pytest.raises(ValueError, match="strictly increasing"):
            alignment_sweep(model, theta, 1.0, [0.5, 0.5], cfg)
        with pytest.raises(ValueError, match="strictly increasing"):
            alignment_sweep(model, theta, 1.0, [], cfg)
        with pytest.raises(ValueError, match="n_repeats"):
            alignment_sweep(model, theta, 1.0, [0.5, 1.0], cfg, n_repeats=0)
        with pytest.raises(ValueError, match="one init per probe"):
            alignment_sweep([model, model], theta, 1.0, [1.0], cfg,
                            inits=[np.ones(4)])

    def test_shapes_and_meta(self, sweep):
        _, _, result = sweep
        assert result.cosine_vs_supervised.shape == (3,)
        assert result.meta["reference"] == "exact_enumeration"
        assert result.meta["n_probes"] == 1
        assert result.meta["n_repeats"] == 4
        assert not result.degenerate.any()

    def test_enumerable_contrast_reference_tracks_ep(self, sweep):
        # on an enumerable probe, g_hat(beta) estimates exactly the
        # contrast direction it is compared against, so the cosine is high
        _, _, result = sweep
        assert result.cosine_vs_contrast[-1] > 0.9

    def test_alignment_grows_with_beta(self, sweep):
        _, _, result = sweep
        cos = result.cosine_vs_supervised
        assert cos[-1] > 0.8
        assert cos[-1] > cos[0]

    def test_to_rows_long_format(self, sweep):
        _, _, result = sweep
        rows = result.to_rows()
        assert len(rows) == 12
        assert rows[0][:2] == (0.05, "cosine_vs_supervised")
        assert {r[1] for r in rows} == {
            "cosine_vs_supervised", "cosine_vs_contrast", "snr", "degenerate"
        }

    def test_skip_flags_write_nan(self):
        model, theta = _probe()
        cfg = ChainConfig(n_steps=120, n_chains=8, burn_in=40,
                          kernel=Kernel.GIBBS_SWEEP, seed=1)
        result = alignment_sweep(
            model, theta, 1.0, [1.0], cfg,
            snr_probes=0, include_contrast=False,
        )
        assert np.isnan(result.snr[0])
        assert np.isnan(result.cosine_vs_contrast[0])
        assert result.meta["reference"] == "none"

    def test_deterministic(self):
        model, theta = _probe()
        cfg = ChainConfig(n_steps=100, n_chains=8, burn_in=30,
                          kernel=Kernel.GIBBS_SWEEP, seed=2)
        a = alignment_sweep(model, theta, 1.0, [0.5, 1.0], cfg,
                            snr_probes=0, n_repeats=2)
        b = alignment_sweep(model, theta, 1.0, [0.5, 1.0], cfg,
                            snr_probes=0, n_repeats=2)
        np.testing.assert_array_equal(a.cosine_vs_supervised, b.cosine_vs_supervised)
        np.testing.assert_array_equal(a.cosine_vs_contrast, b.cosine_vs_contrast)


def _net_probes(n_probes):
    net = LayeredTanhEnergyNet(20, 6, 3)
    theta = init_layer_params(20, 6, 3, seed=0).values
    rng = np.random.default_rng(4)
    models = [net.with_target(np.eye(3)[i % 3]) for i in range(n_probes)]
    inits = [net.init_state(rng.uniform(0.0, 1.0, 20)) for _ in range(n_probes)]
    cfg = ChainConfig(n_steps=60, n_chains=4, burn_in=20, step_size=0.02, seed=3)
    return models, theta, inits, cfg, replace(cfg, n_steps=120, n_chains=8)


def per_phase_cosines(models, theta, t, betas, cfg, inits, ref_cfg, n_repeats):
    """alignment_sweep's supervised cosines with one run_chains call per phase."""
    supervised = np.mean([
        grad_supervised_mc(
            m, theta, t,
            ref_cfg.with_seed(derive_seed(cfg.seed, SWEEP_STREAM, SWEEP_REFERENCE, i)), init,
        ).grad.values
        for i, (m, init) in enumerate(zip(models, inits))
    ], axis=0)
    cosines = []
    for k, beta in enumerate(betas):
        g_hats = []
        for r in range(n_repeats):
            per_probe = []
            for i, (m, init) in enumerate(zip(models, inits)):
                seed = derive_seed(cfg.seed, SWEEP_STREAM, SWEEP_UPDATE_BASE + k, i, r)
                mean_grads = []
                for phase_beta, tag in ((beta, NUDGED_PHASE), (0.0, FREE_PHASE)):
                    phase_cfg = cfg.with_seed(derive_seed(seed, tag))
                    b = run_chains(m, theta, phase_beta, t, phase_cfg, init)
                    sums = m.chain_sums(theta, b.init, b.free_samples)
                    mean_grads.append(sums.mean(axis=0) / b.n_kept)
                per_probe.append((mean_grads[0] - mean_grads[1]) / beta)
            g_hats.append(np.mean(per_probe, axis=0))
        cosines.append(np.mean([cosine(g, supervised) for g in g_hats]))
    return np.array(cosines)


class TestSweepPhaseBlocks:
    def test_one_langevin_call_per_probe_reference_and_beta(self, langevin_calls):
        models, theta, inits, cfg, ref_cfg = _net_probes(2)
        betas = [0.1, 0.5, 1.0]
        alignment_sweep(models, theta, 0.1, betas, cfg, inits=inits, reference_config=ref_cfg,
                        snr_probes=0, include_contrast=False, n_repeats=2)
        assert len(langevin_calls) == len(models) * (1 + len(betas))
        block = 2 * 2 * cfg.n_chains  # two phases of two repeats
        assert langevin_calls == [ref_cfg.n_chains] * 2 + [block] * (2 * len(betas))

    def test_cosines_match_the_per_phase_loop(self):
        models, theta, inits, cfg, ref_cfg = _net_probes(2)
        betas = [0.1, 0.5, 1.0]
        result = alignment_sweep(models, theta, 0.1, betas, cfg, inits=inits,
                                 reference_config=ref_cfg, snr_probes=0,
                                 include_contrast=False, n_repeats=2)
        expected = per_phase_cosines(models, theta, 0.1, betas, cfg, inits, ref_cfg, 2)
        np.testing.assert_allclose(result.cosine_vs_supervised, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("snr", [dict(snr_repeats=1), dict(snr_probes=-1)],
                             ids=["one_repeat", "negative_probes"])
    def test_bad_snr_arguments_raise_before_sampling(self, langevin_calls, snr):
        models, theta, inits, cfg, ref_cfg = _net_probes(1)
        with pytest.raises(ValueError, match="snr_"):
            alignment_sweep(models, theta, 0.1, [0.5, 1.0], cfg, inits=inits,
                            reference_config=ref_cfg, include_contrast=False, **snr)
        assert langevin_calls == []


class TestSweepResultDegenerate:
    def test_degenerate_flag_for_flat_landscape(self):
        # a glass with a constant loss has zero supervised signal: all
        # cosines collapse and the sweep must say so rather than guess
        model, theta = random_spin_glass(4, seed=11, loss="zero")
        cfg = ChainConfig(n_steps=80, n_chains=8, burn_in=20,
                          kernel=Kernel.GIBBS_SWEEP, seed=0)
        result = alignment_sweep(model, theta.values, 1.0, [1.0], cfg,
                                 snr_probes=0, include_contrast=False)
        assert bool(result.degenerate[0])
        assert result.cosine_vs_supervised[0] == 0.0
