import numpy as np
import pytest

import thermoep.diagnostics as diagnostics_module
from thermoep.diagnostics import alignment_sweep
from thermoep.models import QuadraticEnergyModel
from thermoep.rng import (
    FREE_PHASE,
    INIT_STREAM,
    NODE_BASE,
    NUDGED_PHASE,
    PHASE_STREAM,
    SHUFFLE_STREAM,
    SWEEP_CONTRAST_BASE,
    SWEEP_REFERENCE,
    SWEEP_SNR_BASE,
    SWEEP_STREAM,
    SWEEP_UPDATE_BASE,
    derive_seed,
    make_generator,
    seed_sequence,
)
from thermoep.sampler import ChainConfig


class TestStreamDerivation:
    def test_same_path_same_stream(self):
        a = make_generator(7, 1, 2).standard_normal(5)
        b = make_generator(7, 1, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        draws = {
            make_generator(7, *path).standard_normal(4).tobytes()
            for path in [(0,), (1,), (0, 1), (2, 0, 3), (2, 3)]
        }
        assert len(draws) == 5

    def test_trailing_zeros_collide(self):
        # numpy SeedSequence right-pads entropy with zeros, so a path and
        # its trailing-zero extensions are one stream; tag assignment in
        # this package relies on knowing that (see rng module docstring)
        a = make_generator(7, 4).standard_normal(3)
        b = make_generator(7, 4, 0).standard_normal(3)
        c = make_generator(7, 4, 0, 0).standard_normal(3)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_path_is_not_flattened(self):
        # (1, 23) and (12, 3) must be distinct units of work
        a = make_generator(0, 1, 23).random()
        b = make_generator(0, 12, 3).random()
        assert a != b

    def test_derive_seed_stable_and_64bit(self):
        s = derive_seed(42, 3, 1)
        assert s == derive_seed(42, 3, 1)
        assert 0 <= s < 2**64
        assert derive_seed(42, 3, 1) != derive_seed(42, 3, 2)

    def test_derived_seed_spawns_fresh_master(self):
        # common pattern: derive a child seed, use it as a new master
        child = derive_seed(5, 9)
        a = make_generator(child, 0).random()
        b = make_generator(child, 0).random()
        assert a == b

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            seed_sequence(3, -1)
        with pytest.raises(ValueError, match="non-negative"):
            make_generator(-2)


POOL_WORDS = 4  # numpy's SeedSequence pool size


def padded_entropy(master, *path):
    """The 32-bit words SeedSequence hashes for (master, *path), zero-padded to
    its pool: two paths give one stream exactly when these tuples match."""
    words = []
    for value in (master, *path):
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return tuple(words + [0] * (POOL_WORDS - len(words)))


def trainer_paths(epochs=15, n_train=1000, batch_size=50, n_chains=2, n_nodes=3):
    """Every path the trainer (and the CLI's parameter init) derives under its
    master, at the gate's training config, for both sampling methods."""
    rows = batch_size * n_chains
    phases = [NUDGED_PHASE, FREE_PHASE] + [NODE_BASE + k for k in range(n_nodes)]
    paths = [(INIT_STREAM,)]
    for epoch in range(1, epochs + 1):
        paths.append((SHUFFLE_STREAM, epoch))
        paths += [(PHASE_STREAM, epoch, b, phase, r)
                  for b in range(0, n_train, batch_size) for phase in phases for r in range(rows)]
    return paths


def sweep_paths(n_betas=7, n_probes=8, n_repeats=16, snr_probes=8):
    """Every path alignment_sweep derives under its master, at the gate's grid
    (SNR over every probe, the most a sweep can ask for)."""
    paths = [(SWEEP_STREAM, SWEEP_REFERENCE, i) for i in range(n_probes)]
    for k in range(n_betas):
        paths += [(SWEEP_STREAM, SWEEP_UPDATE_BASE + k, i, r)
                  for i in range(n_probes) for r in range(n_repeats)]
        paths += [(SWEEP_STREAM, SWEEP_CONTRAST_BASE + k, i) for i in range(n_probes)]
        paths += [(SWEEP_STREAM, SWEEP_SNR_BASE + k, i) for i in range(snr_probes)]
    return paths


class TestTagAssignment:
    MASTER = 7

    def test_padded_entropy_predicts_shared_streams(self):
        pairs = [((4,), (4, 0, 0)), ((4,), (4, 1)), ((2**32,), (0, 1)), ((1, 23), (12, 3)),
                 ((SWEEP_UPDATE_BASE + 1, 0, 0), (INIT_STREAM,))]
        for a, b in pairs:
            same_key = padded_entropy(self.MASTER, *a) == padded_entropy(self.MASTER, *b)
            same_pool = np.array_equal(seed_sequence(self.MASTER, *a).pool,
                                       seed_sequence(self.MASTER, *b).pool)
            assert same_key == same_pool, (a, b)

    def test_trainer_and_sweep_paths_never_share_a_stream(self):
        paths = trainer_paths() + sweep_paths()
        assert len(set(paths)) == len(paths)
        keys = {padded_entropy(self.MASTER, *path) for path in paths}
        assert len(keys) == len(paths)

    def test_the_former_sweep_paths_shared_trainer_streams(self):
        # before every sweep path led with SWEEP_STREAM, the update draws at
        # beta index 1 and 3 reused the trainer's init and shuffle streams
        trainer = {padded_entropy(self.MASTER, *path): path for path in trainer_paths()}
        shared = {(path[1:], trainer[key]) for path in sweep_paths()
                  if (key := padded_entropy(self.MASTER, *path[1:])) in trainer}
        assert ((SWEEP_UPDATE_BASE + 1, 0, 0), (INIT_STREAM,)) in shared
        assert ((SWEEP_UPDATE_BASE + 3, 1, 0), (SHUFFLE_STREAM, 1)) in shared
        for master in (0, 7, 42):
            assert derive_seed(master, SWEEP_UPDATE_BASE + 1, 0, 0) == derive_seed(master, INIT_STREAM)
            assert (derive_seed(master, SWEEP_STREAM, SWEEP_UPDATE_BASE + 1, 0, 0)
                    != derive_seed(master, INIT_STREAM))

    def test_sweep_derives_only_the_enumerated_paths(self, monkeypatch):
        """alignment_sweep's own derivations, spied at a small grid, are sweep_paths'."""
        seen = []

        def spy(master, *path):
            seen.append((master, path))
            return derive_seed(master, *path)

        monkeypatch.setattr(diagnostics_module, "derive_seed", spy)
        model = QuadraticEnergyModel(2, loss_vector=[1.0, -0.5])
        cfg = ChainConfig(n_steps=20, n_chains=2, burn_in=5, step_size=0.3, seed=self.MASTER)
        alignment_sweep([model, model], [1.0], 1.0, [0.5, 1.0], cfg, inits=[None, None],
                        snr_repeats=2, snr_probes=1, n_repeats=3)
        under_master = {path for master, path in seen if master == self.MASTER}
        expected = set(sweep_paths(n_betas=2, n_probes=2, n_repeats=3, snr_probes=1))
        assert under_master == expected
