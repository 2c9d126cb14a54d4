"""Gradient-alignment and signal-to-noise diagnostics.

These reproduce the two desk-scale observations that motivate training
with a finite nudge: the practical update g_hat(beta) rotates from noise
into alignment with the supervised gradient as beta grows, and the state
perturbation between the free and nudged phases climbs out of the
sampling noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from .core import EnergyModel, StateKind, as_nudge, as_temperature
from .estimators import GradEstimate, grad_contrast_draws, grad_contrast_mc, grad_supervised_mc
from .oracle import DEFAULT_N_MAX, exact_grad_J_contrast
from .rng import (
    FREE_PHASE,
    NUDGED_PHASE,
    SWEEP_CONTRAST_BASE,
    SWEEP_REFERENCE,
    SWEEP_SNR_BASE,
    SWEEP_STREAM,
    SWEEP_UPDATE_BASE,
    derive_seed,
)
from .sampler import ChainConfig, SampleBatch, run_phases

DEGENERATE_NORM = 1e-12


def cosine(u, v) -> float:
    """Cosine similarity; 0.0 when either vector has (near-)zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu <= DEGENERATE_NORM or nv <= DEGENERATE_NORM:
        return 0.0
    return float((u @ v) / (nu * nv))


def spearman_rho(x, y) -> float:
    return float(stats.spearmanr(x, y).statistic)


def _free_mean(batch: SampleBatch) -> np.ndarray:
    """Mean kept state over the unclamped coordinates, from the stored free block."""
    return batch.free_samples.reshape(batch.n_samples, batch.free_samples.shape[2]).mean(axis=0)


def snr_of_perturbation(
    model: EnergyModel,
    theta,
    beta,
    temperature,
    config: ChainConfig,
    init=None,
    n_repeats: int = 8,
) -> float:
    """Signal-to-noise ratio of the nudge-induced state perturbation.

    Each repeat r draws an independent nudged and free batch, one
    run_phases block, from a common init and records delta_r = mean
    nudged state - mean free state over the unclamped coordinates.  The
    ratio is |mean_r delta| over the mean distance of delta_r from that
    mean (the scatter across runs).  Returns inf when the scatter vanishes.
    """
    if n_repeats < 2:
        raise ValueError("n_repeats must be >= 2")
    beta = as_nudge(beta)
    deltas = []
    for r in range(n_repeats):
        nudged, free = run_phases(model, theta, temperature, config, [
            (beta, derive_seed(config.seed, r, NUDGED_PHASE)),
            (0.0, derive_seed(config.seed, r, FREE_PHASE)),
        ], init)
        deltas.append(_free_mean(nudged) - _free_mean(free))
    deltas = np.stack(deltas)
    mean = deltas.mean(axis=0)
    noise = float(np.mean(np.linalg.norm(deltas - mean, axis=1)))
    if noise == 0.0:
        return np.inf
    return float(np.linalg.norm(mean) / noise)


@dataclass(frozen=True)
class SweepResult:
    """Alignment and SNR curves over a grid of nudge strengths."""

    betas: np.ndarray
    cosine_vs_supervised: np.ndarray
    cosine_vs_contrast: np.ndarray
    snr: np.ndarray
    degenerate: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_rows(self) -> list[tuple[float, str, float]]:
        """Long-format rows (beta, metric, value) in a fixed order."""
        rows = []
        for i, b in enumerate(self.betas):
            rows.append((float(b), "cosine_vs_supervised", float(self.cosine_vs_supervised[i])))
            rows.append((float(b), "cosine_vs_contrast", float(self.cosine_vs_contrast[i])))
            rows.append((float(b), "snr", float(self.snr[i])))
            rows.append((float(b), "degenerate", float(self.degenerate[i])))
        return rows


def _as_probe_list(models, inits):
    models = list(models) if isinstance(models, (list, tuple)) else [models]
    if inits is None:
        inits = [None] * len(models)
    else:
        inits = list(inits) if isinstance(inits, (list, tuple)) else [inits]
    if len(inits) != len(models):
        raise ValueError("need one init per probe model")
    return models, inits


def _mean_grad(estimates: list[GradEstimate]) -> np.ndarray:
    return np.mean([e.grad.values for e in estimates], axis=0)


def alignment_sweep(
    models,
    theta,
    temperature,
    betas,
    config: ChainConfig,
    inits=None,
    reference_config: ChainConfig | None = None,
    snr_repeats: int = 6,
    snr_probes: int = 4,
    include_contrast: bool = True,
    n_repeats: int = 1,
) -> SweepResult:
    """Sweep the practical update g_hat(beta) over a grid of nudge strengths.

    models may be a single energy model or a probe set whose per-example
    estimates are averaged (a minibatch update).  For each beta the sweep
    records the cosine of g_hat(beta) against a high-budget supervised
    gradient estimate and against the contrast gradient at the same beta
    (exact enumeration when the probe is enumerable, MC otherwise), plus
    the perturbation SNR.  Near-zero vectors flag the point degenerate
    and report cosine 0.

    With n_repeats > 1 each recorded cosine is the mean over that many
    independent g_hat(beta) draws at the same budget, sampled per probe
    as one phase block.  The mean cosine is the stable object here: a
    single draw scatters around it with a sign set by sampling noise
    wherever the update is noise-dominated.

    snr_probes=0 skips the SNR column and include_contrast=False skips
    the contrast reference (both reported as nan); for non-enumerable
    probes these are the two expensive columns.  Bad arguments raise
    ValueError before anything is sampled.
    """
    t = as_temperature(temperature)
    models, inits = _as_probe_list(models, inits)
    betas = np.array([as_nudge(b) for b in betas], dtype=np.float64)
    if betas.size == 0 or np.any(betas[:-1] >= betas[1:]) or betas[0] <= 0.0:
        raise ValueError("betas must be strictly increasing and positive")
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    if snr_probes < 0:
        raise ValueError("snr_probes must be >= 0")
    if snr_probes > 0 and snr_repeats < 2:
        raise ValueError("snr_repeats must be >= 2")
    ref_cfg = reference_config if reference_config is not None else replace(
        config, n_steps=4 * config.n_steps
    )
    enumerable = all(
        m.state_kind is StateKind.BINARY and m.state_dim <= DEFAULT_N_MAX for m in models
    )

    def sweep_seed(*path):  # every sweep stream leads with SWEEP_STREAM
        return derive_seed(config.seed, SWEEP_STREAM, *path)

    supervised = _mean_grad([
        grad_supervised_mc(m, theta, t, ref_cfg.with_seed(sweep_seed(SWEEP_REFERENCE, i)), init)
        for i, (m, init) in enumerate(zip(models, inits))
    ])

    cos_sup, cos_con, snrs, degenerate = [], [], [], []
    for k, beta in enumerate(betas):
        # each probe's n_repeats classical-EP draws as one block: (contrast at beta) / beta
        draws = [
            grad_contrast_draws(
                m, theta, t, config,
                [sweep_seed(SWEEP_UPDATE_BASE + k, i, r) for r in range(n_repeats)],
                init, beta=beta,
            )
            for i, (m, init) in enumerate(zip(models, inits))
        ]
        scale = 1.0 / beta
        g_hats = [np.mean([scale * d[r].grad.values for d in draws], axis=0)
                  for r in range(n_repeats)]
        if not include_contrast:
            contrast = None
        elif enumerable:
            contrast = np.mean(
                [exact_grad_J_contrast(m, theta, t, beta=beta) for m in models], axis=0
            )
        else:
            contrast = _mean_grad([
                grad_contrast_mc(
                    m, theta, t,
                    ref_cfg.with_seed(sweep_seed(SWEEP_CONTRAST_BASE + k, i)), init,
                    beta=beta,
                )
                for i, (m, init) in enumerate(zip(models, inits))
            ])
        bad = (
            any(np.linalg.norm(g) <= DEGENERATE_NORM for g in g_hats)
            or np.linalg.norm(supervised) <= DEGENERATE_NORM
            or (contrast is not None and np.linalg.norm(contrast) <= DEGENERATE_NORM)
        )
        cos_sup.append(float(np.mean([cosine(g, supervised) for g in g_hats])))
        cos_con.append(
            np.nan if contrast is None
            else float(np.mean([cosine(g, contrast) for g in g_hats]))
        )
        degenerate.append(bad)
        if snr_probes > 0:
            probe_snrs = [
                snr_of_perturbation(
                    m, theta, beta, t,
                    config.with_seed(sweep_seed(SWEEP_SNR_BASE + k, i)),
                    init, n_repeats=snr_repeats,
                )
                for i, (m, init) in enumerate(zip(models[:snr_probes], inits[:snr_probes]))
            ]
            snrs.append(float(np.mean(probe_snrs)))
        else:
            snrs.append(np.nan)

    meta = {
        "temperature": t,
        "n_probes": len(models),
        "n_repeats": n_repeats,
        "reference": (
            "none" if not include_contrast
            else "exact_enumeration" if enumerable else "mc_contrast"
        ),
        "seed": config.seed,
    }
    return SweepResult(
        betas=betas,
        cosine_vs_supervised=np.array(cos_sup),
        cosine_vs_contrast=np.array(cos_con),
        snr=np.array(snrs),
        degenerate=np.array(degenerate, dtype=bool),
        meta=meta,
    )
