"""Release acceptance gate.

One test per release criterion, in a fixed order, each printing a single
PASS/FAIL line with the measured values, the stated tolerance, and the
runtime where a cap applies.  These run the production code paths at
full stated scale (the unit suites cover the same code at toy scale), so
the whole module takes a few minutes.

The image data is a deterministic synthetic 10-class 784-dim set that is
written to and read back from real IDX files, so every data-dependent
criterion exercises the production loader byte-for-byte.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from thermoep.data import load_idx, one_hot, save_idx, train_test_blobs
from thermoep.diagnostics import alignment_sweep, snr_of_perturbation, spearman_rho
from thermoep.estimators import (
    QuadratureSpec,
    grad_contrast_mc,
    grad_covariance_mc,
)
from thermoep.models import LayeredTanhEnergyNet, init_layer_params, random_spin_glass
from thermoep.oracle import (
    exact_grad_J_contrast,
    exact_grad_J_covariance,
    run_consistency_suite,
)
from thermoep.rng import SWEEP_SNR_BASE, derive_seed
from thermoep.sampler import ChainConfig, Kernel
from thermoep.train import TrainConfig, train


@pytest.fixture
def announce(capfd):
    """Criterion verdict printer that bypasses output capture, then asserts."""

    def _announce(name: str, passed: bool, detail: str) -> None:
        line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert passed, line

    return _announce


@pytest.fixture(scope="module")
def image_sets(tmp_path_factory):
    """1000-train/500-test image pair, round-tripped through IDX files."""
    raw_train, raw_test = train_test_blobs(10, 100, 50, dim=784, noise=0.08, seed=5)
    d = tmp_path_factory.mktemp("idxdata")
    paths = {}
    for ds, tag in ((raw_train, "train"), (raw_test, "test")):
        paths[tag] = (d / f"{tag}-images.idx", d / f"{tag}-labels.idx")
        save_idx(ds.inputs, ds.labels, *paths[tag], image_shape=(28, 28))
    train_ds = load_idx(*paths["train"], n_classes=10, split="train")
    test_ds = load_idx(*paths["test"], n_classes=10, split="test")
    assert len(train_ds) == 1000 and len(test_ds) == 500
    return train_ds, test_ds


@pytest.fixture(scope="module")
def probe_setup(image_sets):
    """Layered tanh net, a fixed parameter vector, and 8 example probes."""
    train_ds, _ = image_sets
    net = LayeredTanhEnergyNet(784, 32, 10)
    theta = init_layer_params(784, 32, 10, seed=1).values
    targets = one_hot(train_ds.labels[:8], 10)
    probes = [net.with_target(targets[i]) for i in range(8)]
    inits = [net.init_state(train_ds.inputs[i]) for i in range(8)]
    return theta, probes, inits


def test_exact_identity_suite(announce):
    """All thermodynamic identities and bounds hold on 100 random instances.

    Checks, each at its stated tolerance: the two-phase gradient vs
    finite differences of J (<= 1e-6 relative at h = 1e-5), dA/dbeta vs
    finite differences (same), trapezoid convergence order >= 1.9,
    J <= E_rho0[loss] everywhere, |J - E_rho1[loss] - T*KL| <= 1e-10,
    and the variational bound with equality at the Gibbs distribution
    within 1e-10.  Runtime cap: 120 s.
    """
    t0 = time.perf_counter()
    checks = run_consistency_suite(
        n_instances=100, n_spins=8, seed=0, temperature=1.0,
        n_trial_dists=100, fd_step=1e-5,
    )
    dt = time.perf_counter() - t0
    n_pass = sum(c.passed for c in checks)
    detail = (
        f"{n_pass}/{len(checks)} identity and bound checks on 100 instances "
        f"(<= 8 spins), worst gradient error {checks[0].worst:.2e} "
        f"(tol 1e-6), {dt:.1f}s (cap 120s)"
    )
    failed = [c.line() for c in checks if not c.passed]
    if failed:
        detail += " | " + " | ".join(failed)
    announce("exact_identity_suite", n_pass == len(checks) and dt < 120.0, detail)


def test_estimator_oracle_coverage(announce):
    """Sampling estimators agree with enumeration within their error bars.

    On one 8-spin instance, the two-phase and the integrated-covariance
    gradient estimators at ~1e4 kept samples per phase (and per
    quadrature node) must land within 3 per-coordinate standard errors
    of the matching exact gradient for >= 99% of coordinates over 20
    seeds.
    """
    model, theta_vec = random_spin_glass(8, seed=7, loss="output_spin")
    theta = theta_vec.values
    quad = QuadratureSpec.trapezoid(9)
    ref_contrast = exact_grad_J_contrast(model, theta, 1.0)
    ref_covariance = exact_grad_J_covariance(model, theta, 1.0, quad)

    t0 = time.perf_counter()
    hits = {"contrast": 0, "covariance": 0}
    total = 0
    for s in range(20):
        cfg = ChainConfig(
            n_steps=1356, n_chains=64, burn_in=1200, thin=1,
            kernel=Kernel.GIBBS_SWEEP, seed=s,
        )
        est_c = grad_contrast_mc(model, theta, 1.0, cfg)
        est_v = grad_covariance_mc(model, theta, 1.0, quad, cfg)
        hits["contrast"] += int(
            np.sum(np.abs(est_c.grad.values - ref_contrast) <= 3.0 * est_c.std_err)
        )
        hits["covariance"] += int(
            np.sum(np.abs(est_v.grad.values - ref_covariance) <= 3.0 * est_v.std_err)
        )
        total += theta.size
    dt = time.perf_counter() - t0
    frac_c = hits["contrast"] / total
    frac_v = hits["covariance"] / total
    announce(
        "estimator_oracle_coverage",
        frac_c >= 0.99 and frac_v >= 0.99,
        f"within 3 std errors: two-phase {100 * frac_c:.2f}%, "
        f"integrated-covariance {100 * frac_v:.2f}% of {total} coordinate "
        f"scores (floor 99%), {dt:.0f}s",
    )


def test_snr_order_of_magnitude(probe_setup, announce):
    """The nudge-induced state perturbation climbs out of the noise floor.

    On the layered tanh model over image probes at the default sampler
    budget, the across-runs SNR of the free-to-nudged state change must
    be at least 10x larger at beta = 1 than at beta = 0.01.  Runtime
    cap: 600 s.
    """
    theta, probes, inits = probe_setup
    cfg = ChainConfig(
        n_steps=350, n_chains=64, burn_in=150, step_size=0.04,
        kernel=Kernel.LANGEVIN_ADJUSTED, seed=42,
    )

    def mean_snr(beta: float) -> float:
        values = [
            snr_of_perturbation(
                probes[i], theta, beta, 0.1,
                cfg.with_seed(derive_seed(cfg.seed, SWEEP_SNR_BASE, i)),
                inits[i], n_repeats=8,
            )
            for i in range(4)
        ]
        return float(np.mean(values))

    t0 = time.perf_counter()
    snr_weak = mean_snr(0.01)
    snr_strong = mean_snr(1.0)
    dt = time.perf_counter() - t0
    ratio = snr_strong / snr_weak
    announce(
        "snr_order_of_magnitude",
        ratio >= 10.0 and dt < 600.0,
        f"SNR(beta=1) = {snr_strong:.2f}, SNR(beta=0.01) = {snr_weak:.2f}, "
        f"ratio {ratio:.1f} (floor 10), {dt:.0f}s (cap 600s)",
    )


def test_alignment_monotone_in_nudge(probe_setup, announce):
    """The practical update rotates into the supervised gradient as beta grows.

    Repeat-averaged cosine between the two-phase update g_hat(beta) and
    a high-budget supervised-gradient estimate over the grid
    {1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1}: Spearman rho >= 0.8 and
    cosine at beta = 1 >= 0.3.
    """
    theta, probes, inits = probe_setup
    betas = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0]
    cfg = ChainConfig(
        n_steps=200, n_chains=8, burn_in=100, step_size=0.02,
        kernel=Kernel.LANGEVIN_ADJUSTED, seed=40,
    )
    ref_cfg = ChainConfig(
        n_steps=1000, n_chains=64, burn_in=200, step_size=0.02,
        kernel=Kernel.LANGEVIN_ADJUSTED, seed=40,
    )
    t0 = time.perf_counter()
    result = alignment_sweep(
        probes, theta, 0.1, betas, cfg, inits=inits,
        reference_config=ref_cfg, snr_probes=0, include_contrast=False,
        n_repeats=16,
    )
    dt = time.perf_counter() - t0
    cos = result.cosine_vs_supervised
    rho = spearman_rho(betas, cos)
    curve = ", ".join(f"{c:+.2f}" for c in cos)
    announce(
        "alignment_monotone_in_nudge",
        rho >= 0.8 and cos[-1] >= 0.3 and not result.degenerate.any(),
        f"Spearman rho = {rho:.3f} (floor 0.8), cosine(beta=1) = {cos[-1]:.3f} "
        f"(floor 0.3), curve [{curve}], {dt:.0f}s",
    )


def test_training_method_ordering(image_sets, announce):
    """Finite-nudge methods track backprop; the infinitesimal limit stalls.

    1000-train/500-test images, <= 30 epochs: backprop test accuracy
    >= 0.75; finite-nudge EP (beta = 1) and the path-integral variant
    within 10 points of backprop; infinitesimal EP (beta = 0.01) within
    10 points of chance (0.10).  Runtime cap: 1800 s.
    """
    train_ds, test_ds = image_sets
    base = dict(
        epochs=15, batch_size=50, learning_rate=0.005, momentum=0.9,
        seed=0, n_hidden=32,
    )
    runs = {
        "backprop": TrainConfig(method="backprop", **base),
        "ep": TrainConfig(method="ep", beta=1.0, **base),
        "path_integral": TrainConfig(method="path_integral", n_nodes=3, **base),
        "ep_infinitesimal": TrainConfig(method="ep", beta=0.01, **base),
    }
    t0 = time.perf_counter()
    acc = {
        name: train(train_ds, test_ds, cfg).history[-1]["test_accuracy"]
        for name, cfg in runs.items()
    }
    dt = time.perf_counter() - t0
    passed = (
        acc["backprop"] >= 0.75
        and abs(acc["ep"] - acc["backprop"]) <= 0.10
        and abs(acc["path_integral"] - acc["backprop"]) <= 0.10
        and abs(acc["ep_infinitesimal"] - 0.10) <= 0.10
        and dt < 1800.0
    )
    announce(
        "training_method_ordering",
        passed,
        f"backprop {acc['backprop']:.3f} (floor 0.75), "
        f"finite-nudge EP {acc['ep']:.3f} and path-integral "
        f"{acc['path_integral']:.3f} (within 0.10 of backprop), "
        f"infinitesimal EP {acc['ep_infinitesimal']:.3f} "
        f"(within 0.10 of chance 0.10), {dt:.0f}s (cap 1800s)",
    )


def test_sampler_correctness(tmp_path, announce):
    """Binary sweeps match enumeration; adjusted Langevin recovers a Gaussian.

    The diagnose command at its defaults: total-variation distance to the
    enumerated 8-spin Gibbs table <= 0.02 at 1e5 samples, and adjusted
    Langevin on the standard Gaussian recovering the identity covariance
    within 3 standard errors at total ESS >= 1000.
    """
    from thermoep.cli import main

    code = main(["diagnose", "--out", str(tmp_path)])
    report = (tmp_path / "diagnose_report.txt").read_text().strip().splitlines()
    announce(
        "sampler_correctness",
        code == 0,
        "; ".join(report[:-1]),
    )


def test_run_determinism(tmp_path, announce):
    """verify, train and sweep are byte-identical across identical reruns.

    Each command runs twice in a fresh process with the same config and
    seed at a fixed thread count; every output file must match
    byte-for-byte.
    """
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(
        "dataset = blobs\nclasses = 3\nper_class = 4\ntest_per_class = 2\n"
        "dim = 16\nnoise = 0.08\ndata_seed = 2\nhidden = 6\n"
    )
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        cfg.read_text()
        + "betas = 0.3,1.0\nprobe = 2\nchains = 2\nsteps = 30\n"
        + "ref_scale = 2\nsnr_repeats = 2\nsnr_probes = 1\nstep_size = 0.05\n"
    )
    commands = {
        "verify": ["verify", "--instances", "3", "--spins", "4"],
        "train": ["train", "--config", str(cfg), "--method", "ep",
                  "--epochs", "2", "--seed", "0"],
        "sweep": ["sweep", "--config", str(sweep_cfg), "--seed", "0"],
    }
    import os

    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    compared = []
    identical = True
    for name, argv in commands.items():
        outs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}-{run_id}"
            proc = subprocess.run(
                [sys.executable, "-m", "thermoep.cli", *argv, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, f"{name} run failed: {proc.stderr}"
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files, f"{name} wrote no outputs"
        for fname in files:
            same = (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
            identical = identical and same
            compared.append(f"{name}/{fname}" + ("" if same else " DIFFERS"))
    announce(
        "run_determinism",
        identical,
        f"{len(compared)} files byte-compared across reruns "
        f"({', '.join(compared)})",
    )
