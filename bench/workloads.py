"""The four benchmark workloads, each a slice of tests/test_acceptance.py.

A workload builds its inputs once in ``setup`` and then runs units: a
fixed, stated amount of work whose inputs are derived from the workload
seed and the unit index.  ``prepare`` (untimed) makes a unit's inputs,
``run`` (timed) does the work through calls into thermoep's modules, and
``check`` (untimed) applies the unit's correctness criteria and returns
the values its fingerprint is taken over.  ``expected_calls`` gives the
traced call counts the configuration implies, for set-up and per unit;
traced names missing from those dicts are expected to be 0.

Module handles come in as ``tp``, a namespace of thermoep's submodules,
so the tracer's patched names are looked up at call time.
"""

from __future__ import annotations

import hashlib
import itertools
import tempfile
from dataclasses import dataclass, field

import numpy as np

BETAS = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0)  # the gate's alignment grid
N_CLASSES = 10
IMAGE_SHAPE = (28, 28)


def subseed(*path: int) -> int:
    """A 32-bit seed derived from a path of non-negative integers."""
    return int(np.random.SeedSequence(list(path)).generate_state(1, np.uint32)[0])


def fingerprint(values: dict) -> str:
    """sha256 over the named arrays and numbers, in sorted name order."""
    h = hashlib.sha256()
    for name in sorted(values):
        h.update(name.encode())
        h.update(np.ascontiguousarray(np.asarray(values[name], dtype=np.float64)).tobytes())
    return h.hexdigest()[:16]


@dataclass
class UnitCheck:
    passed: bool
    checks: dict  # named check values, reported in the record
    values: dict  # named outputs the fingerprint covers (includes the checks)
    notes: list = field(default_factory=list)


def _image_sets(tp, seed, workdir, n_train_per_class, n_test_per_class):
    """Blob train/test images round-tripped through IDX files, as in the gate."""
    raw_train, raw_test = tp.data.train_test_blobs(
        N_CLASSES, n_train_per_class, n_test_per_class,
        dim=IMAGE_SHAPE[0] * IMAGE_SHAPE[1], noise=0.08, seed=subseed(seed, 1),
    )
    out = []
    with tempfile.TemporaryDirectory(dir=workdir) as d:
        for ds, tag in ((raw_train, "train"), (raw_test, "test")):
            paths = (f"{d}/{tag}-images.idx", f"{d}/{tag}-labels.idx")
            tp.data.save_idx(ds.inputs, ds.labels, *paths, image_shape=IMAGE_SHAPE)
            out.append(tp.data.load_idx(*paths, n_classes=N_CLASSES, split=tag))
    return out


class TrainWorkload:
    """One EP epoch (beta = 1) and one path-integral epoch (3 nodes) per unit.

    Both run at the gate's config and resume from a theta pretrained in
    set-up by 15 backprop epochs (energy-net test accuracy >= 0.99): one
    epoch from scratch ends at 0.10-0.23, indistinguishable from chance.
    From the warm theta a working trainer ended at 0.67-1.0 over 18 seeds,
    so the accuracy floor is three times chance.  The epoch's update
    |theta - theta_warm| / |theta_warm| was 0.016-0.027 for a working
    trainer over 8 seeds, 0 with a zero gradient and 0.10-0.62 with the
    gradient's sign flipped (one such epoch still ended at accuracy 0.30),
    so it must fall in [update_floor, update_ceiling].
    """

    name = "train"
    accuracy_floor = 0.3
    update_floor = 0.005
    update_ceiling = 0.05

    def __init__(self, n_train_per_class=100, n_test_per_class=50, n_hidden=32,
                 batch_size=50, pretrain_epochs=15):
        self.n_train_per_class = n_train_per_class
        self.n_test_per_class = n_test_per_class
        self.n_hidden = n_hidden
        self.batch_size = batch_size
        self.pretrain_epochs = pretrain_epochs

    def _base(self):
        return dict(batch_size=self.batch_size, learning_rate=0.005, momentum=0.9,
                    n_hidden=self.n_hidden)

    def setup(self, tp, seed, workdir):
        train_ds, test_ds = _image_sets(
            tp, seed, workdir, self.n_train_per_class, self.n_test_per_class)
        cfg = tp.train.TrainConfig(method="backprop", epochs=self.pretrain_epochs,
                                   seed=subseed(seed, 2), **self._base())
        theta = tp.train.train(train_ds, test_ds, cfg).theta
        return {"tp": tp, "seed": seed, "train": train_ds, "test": test_ds, "theta": theta}

    def prepare(self, ctx, unit):
        return subseed(ctx["seed"], 3, unit)

    def run(self, ctx, seed):
        tp = ctx["tp"]
        sizes = (ctx["train"].dim, self.n_hidden, ctx["train"].n_classes)
        results = {}
        for method, extra in (("ep", {"beta": 1.0}), ("path_integral", {"n_nodes": 3})):
            cfg = tp.train.TrainConfig(method=method, epochs=2, seed=seed, **extra, **self._base())
            start = tp.train.Checkpoint(
                method=method, epoch=1, layer_sizes=sizes, master_seed=seed,
                theta=ctx["theta"].copy(), velocity=np.zeros_like(ctx["theta"]),
                config=cfg.to_dict(), history=[],
            )
            results[method] = tp.train.train(ctx["train"], ctx["test"], cfg, resume=start)
        return results

    def check(self, ctx, seed, results):
        checks, values = {}, {}
        passed = True
        warm = ctx["theta"]
        for method, res in results.items():
            acc = res.history[-1]["test_accuracy"]
            finite = bool(np.all(np.isfinite(res.theta)))
            update = float(np.linalg.norm(res.theta - warm) / np.linalg.norm(warm))
            checks[f"{method}.test_accuracy"] = acc
            checks[f"{method}.theta_finite"] = finite
            checks[f"{method}.relative_update"] = update
            values[f"{method}.theta"] = res.theta
            passed = (passed and finite and acc >= self.accuracy_floor
                      and self.update_floor <= update <= self.update_ceiling)
        values.update(checks)
        return UnitCheck(passed, checks, values)

    def expected_calls(self, ctx):
        batches = len(ctx["train"]) // self.batch_size  # all minibatches are full
        phases = 2 * batches + 3 * batches  # EP: free + nudged; path integral: 3 nodes
        rows = self.batch_size * 2  # 2 chains per example
        steps = 60
        unit = {
            "train.train": 2,
            "train._ep_minibatch": batches,
            "train._path_minibatch": batches,
            "train._sample_phase": phases,
            "train._stats_grad": 2 * batches,
            "train.evaluate_energy": 4,
            "models.relax_free_batch": 4,
            "rng.make_generator": phases * rows + 2,  # one per row, one shuffle per epoch
            "rng.draw": phases * rows * steps * 2 + 2,  # noise + accept per row step
        }
        setup = {
            "data.train_test_blobs": 1, "data.save_idx": 2, "data.load_idx": 2,
            "train.train": 1,
            "rng.make_generator": self.pretrain_epochs,
            "rng.draw": self.pretrain_epochs,
        }
        return setup, unit


class GibbsCoverageWorkload:
    """grad_contrast_mc plus grad_covariance_mc (9-node trapezoid) per unit.

    8-spin glass (seed 7, output_spin loss), 64 chains x 1356 sweeps with
    burn-in 1200, checked against the exact gradients from set-up.
    """

    name = "gibbs_coverage"
    # The gate asks >= 99% over 20 seeds x 36 coordinates.  One seed's
    # coordinates share chain-level fluctuations (up to 4 of 36 outside
    # 3 sigma were seen on one seed), so a single unit is held to >= 80%
    # within 3 sigma and every coordinate within 6 sigma.
    coverage_floor = 0.8
    max_z = 6.0

    def __init__(self, n_spins=8, n_chains=64, n_steps=1356, burn_in=1200, n_nodes=9):
        self.n_spins = n_spins
        self.n_chains = n_chains
        self.n_steps = n_steps
        self.burn_in = burn_in
        self.n_nodes = n_nodes

    def setup(self, tp, seed, workdir):
        model, theta_vec = tp.models.random_spin_glass(self.n_spins, seed=7, loss="output_spin")
        theta = theta_vec.values
        quad = tp.estimators.QuadratureSpec.trapezoid(self.n_nodes)
        return {
            "tp": tp, "seed": seed, "model": model, "theta": theta, "quad": quad,
            "ref_contrast": tp.oracle.exact_grad_J_contrast(model, theta, 1.0),
            "ref_covariance": tp.oracle.exact_grad_J_covariance(model, theta, 1.0, quad),
        }

    def prepare(self, ctx, unit):
        return ctx["tp"].sampler.ChainConfig(
            n_steps=self.n_steps, n_chains=self.n_chains, burn_in=self.burn_in, thin=1,
            kernel=ctx["tp"].sampler.Kernel.GIBBS_SWEEP, seed=subseed(ctx["seed"], 3, unit),
        )

    def run(self, ctx, cfg):
        est = ctx["tp"].estimators
        return {
            "contrast": est.grad_contrast_mc(ctx["model"], ctx["theta"], 1.0, cfg),
            "covariance": est.grad_covariance_mc(ctx["model"], ctx["theta"], 1.0, ctx["quad"], cfg),
        }

    def check(self, ctx, cfg, estimates):
        checks, values = {}, {}
        passed = True
        for kind, est in estimates.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.abs(est.grad.values - ctx[f"ref_{kind}"]) / est.std_err
            coverage = float(np.mean(z <= 3.0))
            checks[f"{kind}.coverage_3sigma"] = coverage
            checks[f"{kind}.max_z"] = float(z.max())
            values[f"{kind}.grad"] = est.grad.values
            values[f"{kind}.std_err"] = est.std_err
            passed = passed and coverage >= self.coverage_floor and z.max() <= self.max_z
        values.update(checks)
        return UnitCheck(passed, checks, values)

    def expected_calls(self, ctx):
        n, c, steps = self.n_spins, self.n_chains, self.n_steps
        runs = 2 + self.n_nodes
        unit = {
            "estimators.grad_contrast_mc": 1,
            "estimators.grad_covariance_mc": 1,
            "sampler.run_chains": runs,
            "rng.make_generator": runs * c,
            "rng.draw": runs * c * (steps + 1),  # random init row, then one row per sweep
            "models.kernel_site_delta": runs * steps * n,
            "models.coupling_matrix": runs * steps * n,
            "sampler.effective_sample_size": runs * c * n,
            "models.grad_theta_energy_sum": 2 * c + 2 * c * self.n_nodes,
        }
        tables = 2 + self.n_nodes
        setup = {
            "oracle.gibbs_table": tables,
            "oracle.enumerate_states": tables,
            "models.energy_batch": tables,
            "models.grad_theta_energy_sum": 2 + 2 * self.n_nodes,
        }
        return setup, unit


class MalaSweepWorkload:
    """alignment_sweep on the layered tanh net over the gate's 7-beta grid.

    Each g_hat(beta) draw is 8 chains x 200 MALA steps, the supervised
    reference 64 chains x 1000 steps, per probe; probes and repeats are
    reduced from the gate's 8 x 16.
    """

    name = "mala_sweep"
    # The gate's floor on cosine(beta = 1); over 48 one-probe, two-repeat
    # draws (8 seeds) it was never below 0.46.  The gate's other criterion,
    # Spearman rho >= 0.8, needs the gate's budget: rho fell below 0.8 on
    # 30 of those 48 draws (cosines at beta <= 3e-2 scatter by ~0.45 per
    # repeat), so rho is recorded and fingerprinted but fails no unit.
    cosine_floor = 0.3

    def __init__(self, n_probes=1, n_repeats=2, n_chains=8, n_steps=200,
                 ref_chains=64, ref_steps=1000, n_train_per_class=100, n_test_per_class=50):
        self.n_probes = n_probes
        self.n_repeats = n_repeats
        self.n_chains = n_chains
        self.n_steps = n_steps
        self.ref_chains = ref_chains
        self.ref_steps = ref_steps
        self.n_train_per_class = n_train_per_class
        self.n_test_per_class = n_test_per_class

    def setup(self, tp, seed, workdir):
        train_ds, _ = _image_sets(tp, seed, workdir, self.n_train_per_class, self.n_test_per_class)
        net = tp.models.LayeredTanhEnergyNet(train_ds.dim, 32, N_CLASSES)
        theta = tp.models.init_layer_params(train_ds.dim, 32, N_CLASSES, seed=subseed(seed, 2)).values
        targets = tp.data.one_hot(train_ds.labels[: self.n_probes], N_CLASSES)
        return {
            "tp": tp, "seed": seed, "theta": theta,
            "probes": [net.with_target(t) for t in targets],
            "inits": [net.init_state(x) for x in train_ds.inputs[: self.n_probes]],
            "free_dim": net.n_hidden + net.n_out,
        }

    def prepare(self, ctx, unit):
        sampler = ctx["tp"].sampler
        seed = subseed(ctx["seed"], 3, unit)
        common = dict(step_size=0.02, kernel=sampler.Kernel.LANGEVIN_ADJUSTED, seed=seed)
        return (
            sampler.ChainConfig(n_steps=self.n_steps, n_chains=self.n_chains,
                                burn_in=self.n_steps // 2, **common),
            sampler.ChainConfig(n_steps=self.ref_steps, n_chains=self.ref_chains,
                                burn_in=self.ref_steps // 5, **common),
        )

    def run(self, ctx, cfgs):
        cfg, ref_cfg = cfgs
        return ctx["tp"].diagnostics.alignment_sweep(
            ctx["probes"], ctx["theta"], 0.1, list(BETAS), cfg, inits=ctx["inits"],
            reference_config=ref_cfg, snr_probes=0, include_contrast=False,
            n_repeats=self.n_repeats,
        )

    def check(self, ctx, cfgs, result):
        cos = result.cosine_vs_supervised
        rho = ctx["tp"].diagnostics.spearman_rho(list(BETAS), cos)
        checks = {
            "degenerate_betas": int(result.degenerate.sum()),
            "cosine_beta1": float(cos[-1]),
            "spearman_rho": rho,
        }
        passed = checks["degenerate_betas"] == 0 and cos[-1] >= self.cosine_floor
        values = {"cosine_curve": cos, **checks}
        return UnitCheck(passed, checks, values)

    def expected_calls(self, ctx):
        p, r, k = self.n_probes, self.n_repeats, len(BETAS)
        phases = 2 * k * r * p  # free + nudged per g_hat draw
        c, s = self.n_chains, self.n_steps
        rc, rs = self.ref_chains, self.ref_steps
        free = ctx["free_dim"]
        unit = {
            "diagnostics.alignment_sweep": 1,
            "estimators.grad_supervised_mc": p,
            "estimators.grad_classical_ep": k * r * p,
            "sampler.run_chains": p + phases,
            "rng.make_generator": p * rc + phases * c,
            "rng.draw": 2 * (p * rc * rs + phases * c * s),  # noise + accept per row step
            "sampler.effective_sample_size": free * (p * rc + phases * c),
            "models.energy_batch": p * (rs + 1) + phases * (s + 1),
            "models.grad_state_energy_batch": p * (rs + 1) + phases * (s + 1),
            "models.grad_theta_energy_sum": 2 * rc * p + c * phases,
        }
        setup = {"data.train_test_blobs": 1, "data.save_idx": 2, "data.load_idx": 2}
        return setup, unit


class IdentitySuiteWorkload:
    """run_consistency_suite on single instances, one of each size 3..8 spins.

    The suite draws each instance's size uniformly from 3..8, so the
    cost of a random seed varies ~2^n.  A unit fixes the size mix
    instead: for each slot it takes the first seed (derived from the
    workload seed) whose first draw, the suite's size draw, gives that
    size.  100 trial distributions per instance, fd_step 1e-5.
    """

    name = "identity_suite"
    max_spins = 8

    def __init__(self, slot_sizes=tuple(range(3, 9)), n_trial_dists=100):
        self.slot_sizes = tuple(slot_sizes)
        self.n_trial_dists = n_trial_dists

    def setup(self, tp, seed, workdir):
        return {"tp": tp, "seed": seed}

    def prepare(self, ctx, unit):
        seeds = []
        for slot, size in enumerate(self.slot_sizes):
            candidates = (subseed(ctx["seed"], 3, unit, slot, j) for j in itertools.count())
            seeds.append(next(s for s in candidates if _suite_size(s, self.max_spins) == size))
        return seeds

    def run(self, ctx, seeds):
        oracle = ctx["tp"].oracle
        return [
            oracle.run_consistency_suite(
                n_instances=1, n_spins=self.max_spins, seed=s, temperature=1.0,
                n_trial_dists=self.n_trial_dists, fd_step=1e-5,
            )
            for s in seeds
        ]

    def check(self, ctx, seeds, suites):
        values, notes = {}, []
        passed = True
        for slot, (seed, results) in enumerate(zip(seeds, suites)):
            for c in results:
                ok = c.passed
                recheck = None if ok else _recheck(ctx["tp"], seed, self.max_spins, c)
                if recheck is not None:
                    ok, note = recheck
                    notes.append(f"slot {slot} seed {seed}: {note}")
                passed = passed and ok
                values[f"{slot}.{c.name}.worst"] = c.worst
        checks = _worst_per_check(suites)
        values.update(checks)
        return UnitCheck(passed, checks, values, notes)

    def expected_calls(self, ctx):
        unit = {"oracle.run_consistency_suite": len(self.slot_sizes)}
        # gibbs_table calls per instance: contrast gradient 2, dA/dbeta 1 plus
        # its finite difference 2, quadrature order 2 + (5 + 9 + 17 + 33),
        # J 2, E_rho0[l] 1, decomposition residual 5, variational table 1, A 1
        tables = 2 + 3 + 66 + 2 + 1 + 5 + 1 + 1
        trials = self.n_trial_dists + 1
        for n in self.slot_sizes:
            params = n + n * (n - 1) // 2
            fd_evals = 2 * params  # long-double J per central difference
            _add(unit, "oracle.gibbs_table", tables)
            _add(unit, "oracle.variational_free_energy", trials)
            _add(unit, "oracle.enumerate_states", tables + trials + fd_evals)
            _add(unit, "models.energy", fd_evals * 2**n)
            _add(unit, "models.energy_batch", tables + trials + fd_evals * 2**n)
            _add(unit, "models.grad_theta_energy_sum", 2 + 2 + 2 * 64)
        return {}, unit


def _add(counts, name, amount):
    counts[name] = counts.get(name, 0) + amount


def _suite_size(seed: int, max_spins: int) -> int:
    """Size of the first instance run_consistency_suite draws from this seed."""
    return int(np.random.default_rng(seed).integers(3, max_spins + 1))


def _worst_per_check(suites) -> dict:
    """Per check name, the worst value over the unit's instances."""
    out = {}
    for results in suites:
        for c in results:
            key = f"{c.name}.worst"
            low_is_bad = c.name in ("quadrature_order", "supervised_bound", "variational_bound")
            if key not in out:
                out[key] = c.worst
            else:
                out[key] = min(out[key], c.worst) if low_is_bad else max(out[key], c.worst)
    return out


def _rebuild_instance(tp, seed, max_spins):
    """The instance a one-instance run_consistency_suite draws from seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, max_spins + 1))
    model, theta_vec = tp.models.random_spin_glass(n, int(rng.integers(0, 2**32)), loss="output_spin")
    return model, theta_vec.values, float(rng.uniform(0.1, 0.9))


def _recheck(tp, seed, max_spins, result):
    """Re-run a failed suite check where the suite's own baseline is too coarse.

    Returns (passed, note), or None for checks that are not re-run.  The
    instance is rebuilt from the suite's draws, and the rebuild is
    verified by reproducing the reported value exactly.

    dA_dbeta: the suite compares E_beta[l] with a float64 central
    difference of A(beta), whose rounding floor (~1e-10 absolute) exceeds
    the 1e-6 relative tolerance once E_beta[l] drops below ~1e-4.  The
    re-check uses a long-double difference at the same step.

    quadrature_order: the suite takes the order from the 17/33-node
    trapezoid pair, which can still be pre-asymptotic when the largest
    error switches coordinates between grids.  The re-check takes the
    next pair, 33/65, at the same floor.
    """
    if result.name not in ("dA_dbeta", "quadrature_order"):
        return None
    model, theta, beta = _rebuild_instance(tp, seed, max_spins)
    if result.name == "dA_dbeta":
        h = 1e-5
        slope = tp.oracle.exact_dA_dbeta(model, theta, beta, 1.0)
        fd64 = (tp.oracle.free_energy(model, theta, beta + h, 1.0)
                - tp.oracle.free_energy(model, theta, beta - h, 1.0)) / (2.0 * h)
        reproduced = abs(slope - fd64) / (abs(fd64) + 1e-12)
        fd = _long_double_slope(tp, model, theta, beta, h)
        value = float(abs(np.longdouble(slope) - fd) / (abs(fd) + np.longdouble(1e-12)))
        ok = value <= result.tolerance
        how = f"E[l] = {slope:.3e}; against a long-double difference the error is {value:.3e}"
    else:
        reproduced = tp.oracle.quadrature_convergence_order(model, theta, 1.0)
        value = tp.oracle.quadrature_convergence_order(
            model, theta, 1.0, node_counts=(5, 9, 17, 33, 65))
        ok = value >= result.tolerance
        how = f"{model.n_spins} spins; on the 33/65-node pair the order is {value:.3f}"
    if reproduced != result.worst:
        return False, (f"{result.name} failed ({result.worst!r}) and the instance could not "
                       f"be rebuilt ({reproduced!r})")
    return ok, (f"suite reports {result.name} {result.worst:.3e} (tol {result.tolerance:.1e}); "
                f"{how}: {'false alarm' if ok else 'real failure'}")


def _long_double_slope(tp, model, theta, beta, h):
    """Central difference of A(beta) = -log Z_beta in long double (T = 1)."""
    states = tp.oracle.enumerate_states(model).astype(np.longdouble)
    th = theta.astype(np.longdouble)
    e = np.array([model.energy(th, s) for s in states], dtype=np.longdouble)
    loss = np.array([model.loss(s) for s in states], dtype=np.longdouble)

    def free_energy(b):
        logw = -(e + b * loss)
        m = logw.max()
        return -(m + np.log(np.exp(logw - m).sum()))

    hl, b = np.longdouble(h), np.longdouble(beta)
    return (free_energy(b + hl) - free_energy(b - hl)) / (2 * hl)


WORKLOADS = {
    w.name: w for w in (TrainWorkload, GibbsCoverageWorkload, MalaSweepWorkload, IdentitySuiteWorkload)
}
