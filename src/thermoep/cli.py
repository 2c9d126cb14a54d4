"""Command-line interface.

Subcommands:

- verify: run the exact-identity suite on random enumerable instances.
- train: train the layered net (or the backprop baseline) and write
  per-epoch metrics plus a resumable checkpoint.
- sweep: alignment/SNR curves of the practical update over a beta grid.
- diagnose: sampler correctness checks against closed forms.

Configuration is a flat key = value file ('#' comments, blank lines
ignored); any flag given on the command line overrides the file.  Every
command writes the fully resolved configuration next to its outputs so a
run can be reproduced from its artifacts alone.

Exit codes: 0 success, 1 a check or criterion failed, 2 usage or
configuration error, 3 numeric failure (diverged chains, non-finite
energies).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import EvaluationError, theta_fingerprint
from .data import Dataset, load_idx, one_hot, train_test_blobs
from .diagnostics import alignment_sweep
from .estimators import EstimationError
from .models import LayeredTanhEnergyNet, QuadraticEnergyModel, init_layer_params, random_spin_glass
from .oracle import gibbs_table, run_consistency_suite
from .rng import INIT_STREAM, derive_seed
from .sampler import ChainConfig, Kernel, run_chains
from .train import TrainConfig, load_checkpoint, save_checkpoint, train


class ConfigError(ValueError):
    """Bad key, value or combination in the merged configuration."""


def parse_config_file(path) -> dict[str, str]:
    options: dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in options:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            options[key] = value
    return options


def resolve_options(spec: dict[str, str | None], file_path, overrides: dict) -> dict[str, str]:
    """defaults <- config file <- command-line flags, rejecting unknown keys."""
    merged = {k: v for k, v in spec.items() if v is not None}
    if file_path is not None:
        file_cfg = parse_config_file(file_path)
        unknown = sorted(set(file_cfg) - set(spec))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(file_cfg)
    merged.update({k: str(v) for k, v in overrides.items() if v is not None})
    return merged


def _typed(options: dict, key: str, conv, what: str):
    raw = options.get(key)
    if raw is None:
        raise ConfigError(f"missing required config key {key!r}")
    try:
        return conv(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} must be {what}, got {raw!r}") from None


def get_int(options, key) -> int:
    return _typed(options, key, int, "an integer")


def get_float(options, key) -> float:
    return _typed(options, key, float, "a number")


def get_str(options, key) -> str:
    return _typed(options, key, str, "a string")


def get_opt_int(options, key) -> int | None:
    raw = options.get(key, "")
    return None if raw == "" else _typed(options, key, int, "an integer")


def get_floats(options, key) -> list[float]:
    return _typed(
        options, key, lambda s: [float(p) for p in s.split(",") if p.strip() != ""],
        "comma-separated numbers",
    )


def fmt(value) -> str:
    """Stable text form: floats via repr so runs are byte-comparable."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_resolved_config(out_dir: Path, options: dict[str, str]) -> None:
    lines = [f"{k} = {options[k]}" for k in sorted(options)]
    (out_dir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, delimiter=",", lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

VERIFY_SPEC = {
    "instances": "100",
    "spins": "8",
    "seed": "0",
    "temperature": "1.0",
    "trial_dists": "100",
    "fd_step": "1e-5",
}


def cmd_verify(args) -> int:
    options = resolve_options(
        VERIFY_SPEC, args.config,
        {"instances": args.instances, "spins": args.spins, "seed": args.seed},
    )
    instances = get_int(options, "instances")
    spins = get_int(options, "spins")
    if instances < 1:
        raise ConfigError("instances must be >= 1")
    if not (1 <= spins <= 16):
        raise ConfigError("spins must lie in [1, 16]")
    out = _out_dir(args)
    write_resolved_config(out, options)
    checks = run_consistency_suite(
        n_instances=instances,
        n_spins=spins,
        seed=get_int(options, "seed"),
        temperature=get_float(options, "temperature"),
        n_trial_dists=get_int(options, "trial_dists"),
        fd_step=get_float(options, "fd_step"),
    )
    lines = [c.line() for c in checks]
    n_failed = sum(not c.passed for c in checks)
    lines.append(
        f"{'FAIL' if n_failed else 'PASS'} summary: {len(checks) - n_failed}/{len(checks)} "
        f"checks passed on {instances} instances (<= {spins} spins)"
    )
    report = "\n".join(lines) + "\n"
    (out / "verify_report.txt").write_text(report)
    print(report, end="")
    return 1 if n_failed else 0


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------

DATASET_SPEC = {
    "dataset": "blobs",
    # idx mode
    "train_images": None,
    "train_labels": None,
    "test_images": None,
    "test_labels": None,
    "limit": "",
    "test_limit": "",
    "classes": "10",
    # blobs mode
    "per_class": "100",
    "test_per_class": "50",
    "dim": "784",
    "noise": "0.15",
    "data_seed": "0",
}

TRAIN_SPEC = {
    **DATASET_SPEC,
    "method": "ep",
    "beta": "1.0",
    "nodes": "3",
    "hidden": "32",
    "lr": "0.05",
    "momentum": "0.9",
    "batch_size": "32",
    "epochs": "10",
    "temperature": "0.1",
    "eval_every": "1",
    "chains": "2",
    "steps": "60",
    "burn_in": "",
    "thin": "1",
    "step_size": "0.05",
    "relax_step": "0.5",
    "relax_iters": "300",
    "relax_tol": "1e-6",
    "seed": "0",
}


def _load_datasets(options) -> tuple[Dataset, Dataset]:
    kind = get_str(options, "dataset")
    n_classes = get_int(options, "classes")
    if kind == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            if key not in options:
                raise ConfigError(f"dataset = idx requires config key {key!r}")
        train_ds = load_idx(
            options["train_images"], options["train_labels"],
            limit=get_opt_int(options, "limit"), n_classes=n_classes, split="train",
        )
        test_ds = load_idx(
            options["test_images"], options["test_labels"],
            limit=get_opt_int(options, "test_limit"), n_classes=n_classes, split="test",
        )
        return train_ds, test_ds
    if kind == "blobs":
        return train_test_blobs(
            n_classes,
            get_int(options, "per_class"),
            get_int(options, "test_per_class"),
            get_int(options, "dim"),
            noise=get_float(options, "noise"),
            seed=get_int(options, "data_seed"),
        )
    raise ConfigError(f"dataset must be 'blobs' or 'idx', got {kind!r}")


def _train_config(options) -> TrainConfig:
    try:
        return TrainConfig(
            method=get_str(options, "method"),
            epochs=get_int(options, "epochs"),
            batch_size=get_int(options, "batch_size"),
            learning_rate=get_float(options, "lr"),
            seed=get_int(options, "seed"),
            momentum=get_float(options, "momentum"),
            beta=get_float(options, "beta"),
            n_nodes=get_int(options, "nodes"),
            temperature=get_float(options, "temperature"),
            n_hidden=get_int(options, "hidden"),
            n_chains=get_int(options, "chains"),
            n_steps=get_int(options, "steps"),
            burn_in=get_opt_int(options, "burn_in"),
            thin=get_int(options, "thin"),
            step_size=get_float(options, "step_size"),
            eval_every=get_int(options, "eval_every"),
            relax_step=get_float(options, "relax_step"),
            relax_iters=get_int(options, "relax_iters"),
            relax_tol=get_float(options, "relax_tol"),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


METRICS_HEADER = ["epoch", "method", "beta", "train_accuracy", "test_accuracy", "mean_J_estimate"]


def cmd_train(args) -> int:
    options = resolve_options(
        TRAIN_SPEC, args.config,
        {"method": args.method, "epochs": args.epochs, "seed": args.seed, "beta": args.beta},
    )
    train_ds, test_ds = _load_datasets(options)
    cfg = _train_config(options)
    resume = load_checkpoint(args.resume) if args.resume else None
    out = _out_dir(args)
    write_resolved_config(out, options)
    result = train(train_ds, test_ds, cfg, resume=resume)
    write_csv(
        out / "metrics.csv", METRICS_HEADER,
        [[r[k] for k in METRICS_HEADER] for r in result.history],
    )
    save_checkpoint(out / "checkpoint.json", result.checkpoint)
    if result.history:
        last = result.history[-1]
        print(
            f"{cfg.method}: epoch {last['epoch']}, "
            f"train_accuracy={last['train_accuracy']:.4f}, "
            f"test_accuracy={last['test_accuracy']:.4f}"
        )
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

SWEEP_SPEC = {
    **DATASET_SPEC,
    "checkpoint": "",
    "betas": "0.001,0.003,0.01,0.03,0.1,0.3,1.0",
    "probe": "8",
    "hidden": "32",
    "temperature": "0.1",
    "chains": "4",
    "steps": "80",
    "burn_in": "",
    "thin": "1",
    "step_size": "0.05",
    "ref_scale": "4",
    "snr_repeats": "6",
    "snr_probes": "4",
    "seed": "0",
}


def cmd_sweep(args) -> int:
    options = resolve_options(
        SWEEP_SPEC, args.config, {"seed": args.seed, "checkpoint": args.checkpoint}
    )
    train_ds, _ = _load_datasets(options)
    n_probe = get_int(options, "probe")
    if not (1 <= n_probe <= len(train_ds)):
        raise ConfigError(f"probe must lie in [1, {len(train_ds)}]")
    betas = get_floats(options, "betas")
    if not betas:
        raise ConfigError("betas must name at least one nudge level")

    ckpt_path = options.get("checkpoint", "")
    if ckpt_path:
        ckpt = load_checkpoint(ckpt_path)
        if ckpt.layer_sizes[0] != train_ds.dim or ckpt.layer_sizes[2] != train_ds.n_classes:
            raise ConfigError("checkpoint layer sizes do not match the dataset")
        theta = ckpt.theta
        hidden = ckpt.layer_sizes[1]
    else:
        hidden = get_int(options, "hidden")
        init_seed = derive_seed(get_int(options, "seed"), INIT_STREAM)
        theta = init_layer_params(train_ds.dim, hidden, train_ds.n_classes, init_seed).values
        print("note: no checkpoint given; sweeping an untrained parameter vector")

    net = LayeredTanhEnergyNet(train_ds.dim, hidden, train_ds.n_classes)
    targets = one_hot(train_ds.labels, train_ds.n_classes)
    models = [net.with_target(targets[i]) for i in range(n_probe)]
    inits = [net.init_state(train_ds.inputs[i]) for i in range(n_probe)]

    chain = ChainConfig(
        n_steps=get_int(options, "steps"),
        n_chains=get_int(options, "chains"),
        burn_in=get_opt_int(options, "burn_in"),
        thin=get_int(options, "thin"),
        step_size=get_float(options, "step_size"),
        kernel=Kernel.LANGEVIN_ADJUSTED,
        seed=get_int(options, "seed"),
    )
    ref_chain = replace(chain, n_steps=chain.n_steps * get_int(options, "ref_scale"))
    result = alignment_sweep(
        models, theta, get_float(options, "temperature"), betas, chain,
        inits=inits, reference_config=ref_chain,
        snr_repeats=get_int(options, "snr_repeats"),
        snr_probes=get_int(options, "snr_probes"),
    )
    out = _out_dir(args)
    write_resolved_config(out, options)
    write_csv(out / "sweep.csv", ["beta", "metric", "value"], result.to_rows())
    print(
        f"swept {len(betas)} nudge levels on {n_probe} probes "
        f"(theta {theta_fingerprint(theta)}); wrote {out / 'sweep.csv'}"
    )
    return 0


# ----------------------------------------------------------------------
# diagnose
# ----------------------------------------------------------------------

DIAGNOSE_SPEC = {
    "spins": "8",
    "glass_seed": "3",
    "samples": "100000",
    "gibbs_chains": "16",
    "tv_tol": "0.02",
    "dim": "4",
    "mala_steps": "4000",
    "mala_chains": "8",
    "mala_step_size": "0.4",
    "ess_floor": "1000",
    "seed": "0",
}

MALA_BATCHES = 10  # contiguous batches per chain behind the MALA check's standard errors


def _gibbs_tv_check(options) -> tuple[bool, str]:
    spins = get_int(options, "spins")
    model, theta_vec = random_spin_glass(spins, get_int(options, "glass_seed"), loss="zero")
    theta = theta_vec.values
    table = gibbs_table(model, theta, 0.0, 1.0)
    n_chains = get_int(options, "gibbs_chains")
    kept_per_chain = -(-get_int(options, "samples") // n_chains)  # ceil
    n_steps = kept_per_chain
    while n_steps - n_steps // 5 < kept_per_chain:
        n_steps += 1
    cfg = ChainConfig(
        n_steps=n_steps, n_chains=n_chains, kernel=Kernel.GIBBS_SWEEP,
        seed=get_int(options, "seed"),
    )
    batch = run_chains(model, theta, 0.0, 1.0, cfg)
    codes = ((batch.samples > 0.0) @ (1 << np.arange(spins - 1, -1, -1))).astype(np.int64)
    counts = np.bincount(codes, minlength=2**spins)
    tv = 0.5 * float(np.abs(counts / batch.n_samples - table.probs).sum())
    tol = get_float(options, "tv_tol")
    ok = tv <= tol
    return ok, (
        f"{'PASS' if ok else 'FAIL'} gibbs_tv: tv={tv:.5f} tol={tol} "
        f"(spins={spins}, samples={batch.n_samples})"
    )


def _gaussian_moment_z(per_chain) -> tuple[np.ndarray, np.ndarray]:
    """|estimate - target| / standard error of a standard Gaussian's mean and covariance, from
    the means of MALA_BATCHES contiguous batches per chain of per_chain (chains x kept x dim);
    covariances are centred on the pooled mean (batch means, Flegal & Jones 2010)."""
    chains, kept, dim = per_chain.shape
    size = kept // MALA_BATCHES
    if size == 0:
        raise ValueError(f"the MALA check needs >= {MALA_BATCHES} kept steps per chain")
    rows = per_chain[:, : size * MALA_BATCHES].reshape(chains * MALA_BATCHES, size, dim)
    means = rows.mean(axis=1)
    centred = rows - means.mean(axis=0)
    seconds = np.einsum("bki,bkj->bij", centred, centred) / size
    se = lambda x: x.std(axis=0, ddof=1) / np.sqrt(len(x))
    mean_z = np.abs(means.mean(axis=0)) / se(means)
    return mean_z, np.abs(seconds.mean(axis=0) - np.eye(dim)) / se(seconds)


def _mala_gaussian_check(options) -> tuple[bool, list[str]]:
    dim = get_int(options, "dim")
    model = QuadraticEnergyModel(dim)
    theta = np.array([1.0])
    cfg = ChainConfig(
        n_steps=get_int(options, "mala_steps"),
        n_chains=get_int(options, "mala_chains"),
        step_size=get_float(options, "mala_step_size"),
        kernel=Kernel.LANGEVIN_ADJUSTED,
        seed=get_int(options, "seed") + 1,
    )
    batch = run_chains(model, theta, 0.0, 1.0, cfg)
    mean_z, cov_z = _gaussian_moment_z(batch.per_chain())
    ess_total = float(batch.ess.sum())
    ess_floor = get_float(options, "ess_floor")

    ok_mean, ok_cov, ok_ess = bool(np.all(mean_z <= 3.0)), bool(np.all(cov_z <= 3.0)), ess_total >= ess_floor
    lines = [
        f"{'PASS' if ok_mean else 'FAIL'} mala_mean: worst |mean|/se = {mean_z.max():.2f} (tol 3.0)",
        f"{'PASS' if ok_cov else 'FAIL'} mala_cov: worst |cov - I|/se = {cov_z.max():.2f} (tol 3.0)",
        f"{'PASS' if ok_ess else 'FAIL'} mala_ess: total ESS = {ess_total:.0f} (floor {ess_floor:.0f})",
        f"INFO mala_acceptance: {batch.acceptance_rate:.3f}",
    ]
    return ok_mean and ok_cov and ok_ess, lines


def cmd_diagnose(args) -> int:
    options = resolve_options(DIAGNOSE_SPEC, args.config, {"seed": args.seed})
    out = _out_dir(args)
    write_resolved_config(out, options)
    ok_tv, tv_line = _gibbs_tv_check(options)
    ok_mala, mala_lines = _mala_gaussian_check(options)
    lines = [tv_line, *mala_lines]
    lines.append(f"{'PASS' if ok_tv and ok_mala else 'FAIL'} summary: sampler checks")
    report = "\n".join(lines) + "\n"
    (out / "diagnose_report.txt").write_text(report)
    print(report, end="")
    return 0 if ok_tv and ok_mala else 1


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoep",
        description="Finite-temperature contrastive learning on energy-based models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="exact-identity suite on random instances")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--instances", type=int)
    p.add_argument("--spins", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="train the layered net or the backprop baseline")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--method", choices=("ep", "path_integral", "backprop"))
    p.add_argument("--epochs", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", help="checkpoint.json to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="alignment and SNR over a nudge grid")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--checkpoint", help="parameter source (checkpoint.json)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="sampler correctness checks")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FloatingPointError, EvaluationError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (ConfigError, EstimationError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
