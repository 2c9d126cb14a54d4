"""Training loop: contrastive methods and the backprop baseline.

Three methods share one optimiser (SGD with momentum) and one model
layout:

- "ep": finite-nudge equilibrium propagation.  Per minibatch, sample the
  free phase (beta = 0) and the nudged phase (beta = cfg.beta) and apply
  (mean dE nudged - mean dE free) / beta.
- "path_integral": per minibatch, estimate the loss/energy-gradient
  covariance on a trapezoid grid of nudge levels and integrate.
- "backprop": exact gradients through the feedforward twin, as the
  reference ceiling.

Minibatches are sampled as one replica block: every (example, chain)
pair is a row advancing under MALA in lockstep, with its own RNG stream
derived from (seed, epoch, batch, phase, row).  The kernel comes from
the model (LayeredTanhEnergyNet.free_kernel, each row with its example's
target) and the random numbers come from the sampler's block_draws, as
for run_chains: each row draws its n_steps accept uniforms as one block,
then its (n_steps, n_free) noise in step chunks.  Because dE/dtheta for
the layered net is linear in the features (x (x) tanh h, tanh h (x)
tanh o, tanh h, tanh o), per-example phase statistics are summed in
feature space, once per phase over the kept block, and turned into
gradients with a couple of matmuls.  That reduction is
LayeredTanhEnergyNet.feature_sums plus feature_grad in models.py, which
the estimators' chain_sums also reads; the test suite checks it against
the generic per-row gradient sums.

Per-epoch J is logged through its thermodynamic form, the integral over
beta of the expected loss, estimated on the nudge levels the method
already samples (for "ep" a 2-node trapezoid at {0, beta}, which is
crude when beta is small; for "path_integral" the full node grid).
Backprop has no J; its rows log nan.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import DivergenceError
from .data import Dataset, one_hot
from .estimators import QuadratureSpec
from .models import (
    FeedforwardBaseline,
    LayeredTanhEnergyNet,
    PhaseStats,
    feature_grad,
    init_layer_params,
)
from .rng import (
    FREE_PHASE,
    INIT_STREAM,
    NODE_BASE,
    NUDGED_PHASE,
    PHASE_STREAM,
    SHUFFLE_STREAM,
    derive_seed,
    make_generator,
)
from .sampler import ChainConfig, Kernel, block_draws, langevin

METHODS = ("ep", "path_integral", "backprop")

# Version 2 writes non-finite history values as null (strict JSON); version 1
# wrote bare NaN and is still read.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    method: str
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int = 0
    momentum: float = 0.9
    beta: float = 1.0
    n_nodes: int = 3
    temperature: float = 0.1
    n_hidden: int = 32
    n_chains: int = 2
    n_steps: int = 60
    burn_in: int | None = None
    thin: int = 1
    step_size: float = 0.05
    eval_every: int = 1
    relax_step: float = 0.5
    relax_iters: int = 300
    relax_tol: float = 1e-6

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size and eval_every must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in (0, 1]")
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be > 0")
        if self.n_hidden < 1 or self.n_chains < 1:
            raise ValueError("n_hidden and n_chains must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # a relaxation step maps z to (1 - s) z + s * (a bounded drive): bounded only for |1 - s| < 1
        if not (0.0 < self.relax_step < 2.0):
            raise ValueError("relax_step must lie in (0, 2)")
        if self.relax_iters < 1:
            raise ValueError("relax_iters must be >= 1")
        # remaining sampler fields are validated by ChainConfig
        self.chain_config()

    def chain_config(self) -> ChainConfig:
        return ChainConfig(
            n_steps=self.n_steps,
            n_chains=self.n_chains,
            burn_in=self.burn_in,
            thin=self.thin,
            step_size=self.step_size,
            kernel=Kernel.LANGEVIN_ADJUSTED,
            seed=0,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


@dataclass
class Checkpoint:
    method: str
    epoch: int
    layer_sizes: tuple[int, int, int]
    master_seed: int
    theta: np.ndarray
    velocity: np.ndarray
    config: dict
    history: list = field(default_factory=list)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "method": ckpt.method,
        "epoch": ckpt.epoch,
        "layer_sizes": list(ckpt.layer_sizes),
        "master_seed": ckpt.master_seed,
        "theta": [float(v) for v in ckpt.theta],
        "velocity": [float(v) for v in ckpt.velocity],
        "config": ckpt.config,
        "history": [
            {k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in row.items()}
            for row in ckpt.history
        ],
    }
    tmp = f"{os.fspath(path)}.tmp"  # renamed over the target, so a failed write keeps the old file
    try:
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True, allow_nan=False)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> Checkpoint:
    with open(path) as f:
        payload = json.load(f)
    version = payload.get("format_version")
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    sizes = tuple(payload["layer_sizes"])
    theta = np.asarray(payload["theta"], dtype=np.float64)
    velocity = np.asarray(payload["velocity"], dtype=np.float64)
    expected = sizes[0] * sizes[1] + sizes[1] * sizes[2] + sizes[1] + sizes[2]
    if theta.shape != (expected,) or velocity.shape != (expected,):
        raise ValueError("checkpoint theta/velocity do not match layer_sizes")
    return Checkpoint(
        method=payload["method"],
        epoch=int(payload["epoch"]),
        layer_sizes=sizes,
        master_seed=int(payload["master_seed"]),
        theta=theta,
        velocity=velocity,
        config=payload["config"],
        history=[
            {k: float("nan") if v is None else v for k, v in row.items()}
            for row in payload["history"]
        ],
    )


@dataclass
class TrainResult:
    history: list
    checkpoint: Checkpoint
    net: LayeredTanhEnergyNet
    baseline: FeedforwardBaseline

    @property
    def theta(self) -> np.ndarray:
        return self.checkpoint.theta


# ----------------------------------------------------------------------
# replica-block phase sampling
# ----------------------------------------------------------------------


def _sample_phase(
    net: LayeredTanhEnergyNet,
    theta: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    beta: float,
    temperature: float,
    chain: ChainConfig,
    seed: int,
    path: tuple[int, ...],
    need_cov: bool = False,
) -> PhaseStats:
    """MALA over the (h, o) blocks of a whole minibatch replica array.

    Row r = example_slot * n_chains + chain starts from zero and draws
    from generator (seed, *path, r) in block_draws' layout: its n_steps
    accept uniforms, then its noise.  The kept rows' features are summed
    per example once, after the run.
    """
    b, c = len(inputs), chain.n_chains
    n_free = net.n_hidden + net.n_out
    gens = [make_generator(seed, *path, r) for r in range(b * c)]
    rows = np.zeros((b, c, net.state_dim))  # the clamped input of row r's example
    rows[:, :, : net.n_in] = inputs[:, None]
    kept, _ = langevin(
        net.free_kernel(theta, beta, rows.reshape(b * c, -1), np.repeat(targets, c, axis=0)),
        np.zeros((b * c, n_free)), block_draws(gens, chain.n_steps, n_free), chain, temperature,
    )
    kept = kept.reshape(b, c * chain.n_kept, n_free)  # every kept row of one example
    return net.feature_sums(kept, targets, need_cov)


def _ep_minibatch(net, theta, inputs, targets, cfg: TrainConfig, path) -> tuple[np.ndarray, float]:
    chain = cfg.chain_config()
    nudged = _sample_phase(
        net, theta, inputs, targets, cfg.beta, cfg.temperature, chain,
        cfg.seed, path + (NUDGED_PHASE,),
    )
    free = _sample_phase(
        net, theta, inputs, targets, 0.0, cfg.temperature, chain,
        cfg.seed, path + (FREE_PHASE,),
    )
    r = nudged.n_rows
    grad = (1.0 / cfg.beta) * feature_grad(
        inputs,
        (nudged.sum_th - free.sum_th) / r,
        (nudged.sum_to - free.sum_to) / r,
        (nudged.sum_cross - free.sum_cross) / r,
    )
    j_est = 0.5 * float(free.mean_loss().mean() + nudged.mean_loss().mean())
    return grad, j_est


def _path_minibatch(net, theta, inputs, targets, cfg: TrainConfig, path) -> tuple[np.ndarray, float]:
    chain = cfg.chain_config()
    quad = QuadratureSpec.trapezoid(cfg.n_nodes)
    b = len(inputs)
    acc_th = np.zeros((b, net.n_hidden))
    acc_to = np.zeros((b, net.n_out))
    acc_cross = np.zeros((b, net.n_hidden, net.n_out))
    j_est = 0.0
    for k, (node, weight) in enumerate(zip(quad.nodes, quad.weights)):
        stats = _sample_phase(
            net, theta, inputs, targets, float(node), cfg.temperature, chain,
            cfg.seed, path + (NODE_BASE + k,), need_cov=True,
        )
        c_th, c_to, c_cross = stats.cov_features()
        acc_th += weight * c_th
        acc_to += weight * c_to
        acc_cross += weight * c_cross
        j_est += weight * float(stats.mean_loss().mean())
    grad = -(1.0 / cfg.temperature) * feature_grad(inputs, acc_th, acc_to, acc_cross)
    return grad, j_est


# ----------------------------------------------------------------------
# evaluation and the loop
# ----------------------------------------------------------------------


def evaluate_energy(net: LayeredTanhEnergyNet, theta, ds: Dataset, cfg: TrainConfig) -> float:
    preds = net.predict(
        theta, ds.inputs, step=cfg.relax_step, max_iters=cfg.relax_iters, tol=cfg.relax_tol
    )
    return float(np.mean(preds == ds.labels))


def evaluate_feedforward(baseline: FeedforwardBaseline, theta, ds: Dataset) -> float:
    return float(np.mean(baseline.predict(theta, ds.inputs) == ds.labels))


def train(
    train_ds: Dataset,
    test_ds: Dataset,
    cfg: TrainConfig,
    resume: Checkpoint | None = None,
) -> TrainResult:
    """Run the configured method and return history plus a checkpoint.

    History rows are dicts with keys epoch, method, beta, train_accuracy,
    test_accuracy, mean_J_estimate.  Resuming from a checkpoint written
    at epoch e reproduces the uninterrupted run exactly: all stochastic
    streams are derived from (seed, epoch, batch), never from global
    state.
    """
    if train_ds.n_classes != test_ds.n_classes or train_ds.dim != test_ds.dim:
        raise ValueError("train and test sets must share dimensions and classes")
    net = LayeredTanhEnergyNet(train_ds.dim, cfg.n_hidden, train_ds.n_classes)
    baseline = FeedforwardBaseline(train_ds.dim, cfg.n_hidden, train_ds.n_classes)
    sizes = (train_ds.dim, cfg.n_hidden, train_ds.n_classes)

    if resume is not None:
        # the epoch budget may grow on resume; everything else must match
        mine, theirs = cfg.to_dict(), dict(resume.config)
        mine.pop("epochs"), theirs.pop("epochs")
        if theirs != mine:
            raise ValueError("resume checkpoint was written with a different config")
        if tuple(resume.layer_sizes) != sizes:
            raise ValueError("resume checkpoint does not match the dataset/model sizes")
        if resume.epoch > cfg.epochs:
            raise ValueError(
                f"checkpoint is already at epoch {resume.epoch}, past the budget {cfg.epochs}"
            )
        theta = np.array(resume.theta, copy=True)
        velocity = np.array(resume.velocity, copy=True)
        start_epoch = resume.epoch + 1
        history = list(resume.history)
    else:
        theta = np.array(init_layer_params(*sizes, derive_seed(cfg.seed, INIT_STREAM)).values)
        velocity = np.zeros_like(theta)
        start_epoch = 1
        history = []

    targets = one_hot(train_ds.labels, train_ds.n_classes)
    n = len(train_ds)

    for epoch in range(start_epoch, cfg.epochs + 1):
        perm = make_generator(cfg.seed, SHUFFLE_STREAM, epoch).permutation(n)
        j_values = []
        for b_idx in range(0, n, cfg.batch_size):
            chunk = perm[b_idx : b_idx + cfg.batch_size]
            x = train_ds.inputs[chunk]
            tg = targets[chunk]
            path = (PHASE_STREAM, epoch, b_idx)
            if cfg.method == "backprop":
                grad = baseline.backprop_grad_batch(theta, x, tg)
                j_est = float("nan")
            elif cfg.method == "ep":
                grad, j_est = _ep_minibatch(net, theta, x, tg, cfg, path)
            else:
                grad, j_est = _path_minibatch(net, theta, x, tg, cfg, path)
            velocity = cfg.momentum * velocity + grad
            theta = theta - cfg.learning_rate * velocity
            if not np.all(np.isfinite(theta)):
                raise DivergenceError(
                    f"parameters became non-finite at epoch {epoch}, batch offset {b_idx}"
                )
            j_values.append(j_est)
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            if cfg.method == "backprop":
                train_acc = evaluate_feedforward(baseline, theta, train_ds)
                test_acc = evaluate_feedforward(baseline, theta, test_ds)
            else:
                train_acc = evaluate_energy(net, theta, train_ds, cfg)
                test_acc = evaluate_energy(net, theta, test_ds, cfg)
            history.append({
                "epoch": epoch,
                "method": cfg.method,
                "beta": cfg.beta if cfg.method == "ep" else float("nan"),
                "train_accuracy": train_acc,
                "test_accuracy": test_acc,
                "mean_J_estimate": float(np.mean(j_values)),
            })

    ckpt = Checkpoint(
        method=cfg.method,
        epoch=cfg.epochs,
        layer_sizes=sizes,
        master_seed=cfg.seed,
        theta=theta,
        velocity=velocity,
        config=cfg.to_dict(),
        history=history,
    )
    return TrainResult(history=history, checkpoint=ckpt, net=net, baseline=baseline)
