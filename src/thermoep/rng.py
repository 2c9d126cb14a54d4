"""Deterministic stream derivation from a single master seed.

Every stochastic component draws from a generator derived as
``make_generator(master, *path)`` where the path is a fixed tuple of
small integers identifying the unit of work (phase, chain, quadrature
node, epoch, batch, slot).  Identical (seed, path) always yields the
identical stream, independent of execution order, which is what makes
run outputs byte-reproducible.

One numpy quirk matters when assigning tags: SeedSequence right-pads
its entropy with zeros, so paths that differ only by trailing zeros
collide ((7,), (7, 0) and (7, 0, 0) are the same stream).  Callers
therefore never mix a bare master with tagged paths under that master,
and two call sites sharing a master always differ in a non-trailing
entry.  The trainer's paths lead with INIT_STREAM, SHUFFLE_STREAM or
PHASE_STREAM and every alignment_sweep path leads with SWEEP_STREAM, so
`thermoep sweep`, which hands one master to both the parameter init and
the sweep, never draws a sweep chain from the init's stream.  The
property is pinned in the test suite.
"""

from __future__ import annotations

import numpy as np

# Path tags used by the estimators and the trainer.  Free/nudged refer to
# the two sampling phases of a contrastive estimate; NODE_BASE + k tags
# the k-th quadrature node of an integrated estimate.
FREE_PHASE = 0
NUDGED_PHASE = 1
NODE_BASE = 100
SUPERVISED_PHASE = 2

# Trainer streams: parameter init, per-epoch shuffle, per-minibatch phases.
INIT_STREAM = 11
SHUFFLE_STREAM = 13
PHASE_STREAM = 17
# alignment_sweep streams: SWEEP_STREAM leads every path, then the
# supervised reference, or a base offset by the beta index k for the
# updates, the MC contrast and the SNR probes.
SWEEP_STREAM = 19
SWEEP_REFERENCE = 90
SWEEP_UPDATE_BASE = 10
SWEEP_CONTRAST_BASE = 50
SWEEP_SNR_BASE = 70


def seed_sequence(master: int, *path: int) -> np.random.SeedSequence:
    entropy = [_as_entropy(master)] + [_as_entropy(p) for p in path]
    return np.random.SeedSequence(entropy)


def make_generator(master: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(master, *path))


def derive_seed(master: int, *path: int) -> int:
    """Collapse (master, path) to a single 64-bit child seed."""
    return int(seed_sequence(master, *path).generate_state(1, np.uint64)[0])


def _as_entropy(value: int) -> int:
    v = int(value)
    if v < 0:
        raise ValueError(f"seed-path entries must be non-negative, got {value!r}")
    return v
