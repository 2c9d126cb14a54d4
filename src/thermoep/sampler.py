"""MCMC sampling from the nudged Gibbs distribution.

All kernels target rho_beta(s) proportional to exp(-F(theta, beta, s)/T)
and respect the model's clamp mask: clamped coordinates keep their
initial values for the whole run.  Chains are advanced in lockstep as
rows of a (n_chains, state_dim) array.  There are two kernels: Gibbs
sweeps for binary states and Metropolis-adjusted Langevin (MALA) for
continuous ones.  MALA is one loop, langevin(), whose caller supplies
the kernel over the free block and the random numbers; the trainer
drives it too.

run_phases samples several phases of one model, each a (beta, seed)
pair, and run_chains is its one-phase view.  The MALA phases form one
block of rows advanced by a single langevin call, with one beta per row
(EnergyModel.free_kernel takes beta per row; a beta = 0 row adds only
+-0.0); the Gibbs phases run one after another.  Either way chain c of a
phase draws from stream (seed, c), first its init row (only when no init
is given).  A Gibbs chain then draws its site uniforms per step.  A MALA
row draws in per-row blocks (block_draws, which the trainer's rows use
too): its n_steps accept uniforms as one block, then its noise in chunks
of _NOISE_CHUNK steps, which give the same numbers as one whole-run
block.  So a chain draws the same numbers however many chains or phases
run.  For the bundled quadratic and spin-glass models a phase is
therefore bit-identical whatever runs beside it, and the first k chains
of a run are bit-identical to a k-chain run; for the layered net both
agree only to rounding, because a BLAS matrix product over the rows
rounds differently with the row count.

A run stores only what moves: the kept free coordinates of every chain
and the init rows, which hold the clamped ones.  Full states, as
SampleBatch.samples and per_chain(), are built on demand.  ESS is
computed per chain for all free coordinates with one FFT (column_ess).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import (
    EnergyModel,
    StateKind,
    as_nudge,
    as_temperature,
    chain_rows,
    theta_fingerprint,
)
from .rng import make_generator


class Kernel(Enum):
    LANGEVIN_ADJUSTED = "langevin_adjusted"
    GIBBS_SWEEP = "gibbs_sweep"


@dataclass(frozen=True)
class ChainConfig:
    """Budget and kernel settings for one sampling run.

    burn_in defaults to 20% of n_steps.  thin keeps every thin-th
    post-burn-in step.  step_size is the Langevin step eta; ignored by
    the sweep kernel.
    """

    n_steps: int
    n_chains: int = 8
    burn_in: int | None = None
    thin: int = 1
    step_size: float = 0.1
    kernel: Kernel = Kernel.LANGEVIN_ADJUSTED
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.step_size <= 0.0:
            raise ValueError("step_size must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not isinstance(self.kernel, Kernel):
            raise ValueError(f"kernel must be a Kernel member, got {self.kernel!r}")
        if self.burn_in is not None and not (0 <= self.burn_in < self.n_steps):
            raise ValueError("burn_in must lie in [0, n_steps)")

    @property
    def resolved_burn_in(self) -> int:
        return self.n_steps // 5 if self.burn_in is None else self.burn_in

    @property
    def n_kept(self) -> int:
        span = self.n_steps - self.resolved_burn_in
        return (span + self.thin - 1) // self.thin

    def with_seed(self, seed: int) -> "ChainConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class SampleBatch:
    """Post-burn-in samples from every chain, chain-major.

    Only what moves is stored: free_samples holds the unclamped
    coordinates, shape (n_chains, n_kept, n_free), and init the chains'
    starting rows, whose clamped coordinates every kept state shares.
    chain(c) builds one chain's full (n_kept, state_dim) rows; samples,
    shape (n_chains * n_kept, state_dim), and per_chain(), shape
    (n_chains, n_kept, state_dim), build every chain's on demand.
    """

    free_samples: np.ndarray
    init: np.ndarray
    clamp_mask: np.ndarray
    theta_hash: str
    ess: np.ndarray
    acceptance_rate: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def n_chains(self) -> int:
        return self.free_samples.shape[0]

    @property
    def n_kept(self) -> int:
        return self.free_samples.shape[1]

    @property
    def n_samples(self) -> int:
        return self.n_chains * self.n_kept

    def chain(self, c: int) -> np.ndarray:
        """Chain c's kept states as a fresh (n_kept, state_dim) array."""
        return chain_rows(self.init[c], self.free_samples[c], self.clamp_mask)

    def per_chain(self) -> np.ndarray:
        return np.stack([self.chain(c) for c in range(self.n_chains)])

    @property
    def samples(self) -> np.ndarray:
        return self.per_chain().reshape(self.n_samples, -1)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _init_rows(model: EnergyModel, cfg: ChainConfig, init, gens) -> np.ndarray:
    n = model.state_dim
    if init is None:
        if model.clamp_mask.any():
            raise ValueError("model clamps coordinates; an explicit init is required")
        if model.state_kind is StateKind.BINARY:
            lo, hi = model.site_values
            rows = [np.where(g.random(n) < 0.5, lo, hi) for g in gens]
        else:
            rows = [g.standard_normal(n) for g in gens]
        return np.stack(rows)
    init = np.asarray(init, dtype=np.float64)
    if init.ndim == 1:
        init = np.tile(model.validate_state(init), (cfg.n_chains, 1))
    elif init.shape != (cfg.n_chains, n):
        raise ValueError(f"init must have shape ({n},) or ({cfg.n_chains}, {n})")
    if not np.isfinite(init).all():
        raise ValueError("init must be finite")
    if model.state_kind is StateKind.BINARY and not np.isin(init, model.site_values).all():
        raise ValueError(f"binary init entries must lie in {tuple(model.site_values)}")
    return np.array(init, copy=True)


def run_chains(
    model: EnergyModel, theta, beta, temperature, config: ChainConfig, init=None
) -> SampleBatch:
    """Sample rho_beta with the configured kernel: the one-phase view of run_phases.

    Returns every kept state from every chain plus per-chain effective
    sample sizes (min over unclamped coordinates) and, for the Langevin
    kernel, the overall acceptance rate.  Low ESS and out-of-band
    acceptance produce warnings on the batch, never errors.
    """
    return run_phases(model, theta, temperature, config, [(beta, config.seed)], init)[0]


def run_phases(
    model: EnergyModel, theta, temperature, config: ChainConfig, phases, init=None
) -> list[SampleBatch]:
    """Sample several phases of one model, each a (beta, seed) pair.

    Phase p returns exactly what run_chains(model, theta, beta_p,
    temperature, config.with_seed(seed_p), init) does.  MALA phases share
    one langevin call over all their rows, each row with its phase's beta;
    Gibbs phases run one after another.
    """
    t = as_temperature(temperature)
    theta = model.validate_theta(theta)
    betas = [as_nudge(beta) for beta, _ in phases]
    gens = [[make_generator(seed, c) for c in range(config.n_chains)] for _, seed in phases]
    inits = [_init_rows(model, config, init, g) for g in gens]

    binary = model.state_kind is StateKind.BINARY
    if binary != (config.kernel is Kernel.GIBBS_SWEEP):
        raise ValueError(f"{config.kernel.value} cannot sample {model.state_kind.value} states")
    if binary:  # Gibbs sweeps in place
        runs = [_run_gibbs(model, theta, beta, t, config, rows.copy(), g)
                for beta, rows, g in zip(betas, inits, gens)]
    else:
        runs = _run_langevin(model, theta, betas, t, config, inits, gens)
    fingerprint = theta_fingerprint(theta)
    batches = []
    for rows, (kept, acc) in zip(inits, runs):
        ess = np.array([column_ess(block).min() if block.size else float(config.n_kept)
                        for block in kept])
        warnings = []
        if float(ess.min()) < 10.0:
            warnings.append(f"min per-chain ESS is {ess.min():.1f}; "
                            "estimates may be dominated by autocorrelation")
        if acc is not None and not (0.4 < acc < 0.9):
            warnings.append(f"acceptance rate {acc:.2f} outside (0.4, 0.9); retune step_size")
        batches.append(SampleBatch(
            free_samples=kept, init=rows, clamp_mask=model.clamp_mask, theta_hash=fingerprint,
            ess=ess, acceptance_rate=acc, warnings=tuple(warnings),
        ))
    return batches


def _keep_slots(cfg: ChainConfig):
    burn = cfg.resolved_burn_in
    return {step: (step - burn) // cfg.thin
            for step in range(burn, cfg.n_steps)
            if (step - burn) % cfg.thin == 0}


def _run_gibbs(model, theta, beta, t, cfg, states, gens):
    lo, hi = model.site_values
    free_sites = [i for i in range(model.state_dim) if not model.clamp_mask[i]]
    kept = np.empty((cfg.n_chains, cfg.n_kept, len(free_sites)))
    slots = _keep_slots(cfg)
    for step in range(cfg.n_steps):
        u = np.stack([g.random(model.state_dim) for g in gens])
        for site in free_sites:
            delta = model.kernel_site_delta(theta, beta, states, site)
            p_hi = _sigmoid(-delta / t)
            states[:, site] = np.where(u[:, site] < p_hi, hi, lo)
        slot = slots.get(step)
        if slot is not None:
            kept[:, slot] = states[:, free_sites]
    return kept, None


def _run_langevin(model, theta, betas, t, cfg, inits, gens):
    """Every phase's rows as one langevin block; (kept, acceptance rate) per phase."""
    rows = np.concatenate(inits)
    z = rows[:, ~model.clamp_mask]
    draw = block_draws([g for phase in gens for g in phase], cfg.n_steps, z.shape[1])
    kernel = model.free_kernel(theta, np.repeat(betas, cfg.n_chains), rows)
    kept, accepted = langevin(kernel, z, draw, cfg, t)
    n = cfg.n_chains
    return [(kept[p * n:(p + 1) * n], int(accepted[p * n:(p + 1) * n].sum()) / (cfg.n_steps * n))
            for p in range(len(betas))]


# Steps of noise a MALA row draws per generator call.  Consecutive
# standard_normal chunks give the same numbers as one whole-run block, so
# the chunk bounds the buffer (a 64-row, 1000-step run would hold 21.5 MB
# of noise for the layered net's 42 free coordinates), never the stream.
_NOISE_CHUNK = 64


def block_draws(gens, n_steps: int, n_free: int):
    """langevin's draw(step) for rows that each own a generator.

    Row r's generator gens[r] gives, after whatever was drawn from it
    before this call, its n_steps accept uniforms as one block, then its
    (n_steps, n_free) noise in chunks of _NOISE_CHUNK steps, each drawn
    when langevin reaches it.
    """
    chunk = _NOISE_CHUNK
    uniforms = np.empty((n_steps, len(gens)))
    for r, g in enumerate(gens):
        uniforms[:, r] = g.random(n_steps)
    noise = np.empty((min(chunk, n_steps), len(gens), n_free))

    def draw(step):
        i = step % chunk
        if i == 0:
            m = min(chunk, n_steps - step)
            for r, g in enumerate(gens):
                noise[:m, r] = g.standard_normal((m, n_free))
        return noise[i], uniforms[step]

    return draw


def langevin(
    kernel, z, draw, cfg: ChainConfig, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the free block z (rows x free coordinates) by cfg.n_steps MALA steps.

    kernel(z) returns F and dF/dz per row; draw(step) returns that step's
    standard-normal noise (rows x free coordinates) and accept uniforms
    (rows,), and is called once per step in step order (block_draws
    builds it for rows that each own a generator).  Every proposal passes
    a Metropolis-Hastings test; one whose F or acceptance ratio is not
    finite is rejected.  Returns the kept states (rows x n_kept x free
    coordinates) and each row's number of accepted proposals.
    """
    eta = cfg.step_size
    eta_t = eta / temperature
    scale = np.sqrt(2.0 * eta)
    kept = np.empty((z.shape[0], cfg.n_kept, z.shape[1]))
    slots = _keep_slots(cfg)
    f_cur, grad = kernel(z)
    n_accept = np.zeros(len(z), dtype=np.int64)
    for step in range(cfg.n_steps):
        noise, uniforms = draw(step)
        with np.errstate(invalid="ignore", over="ignore"):
            proposal = z - eta_t * grad + scale * noise
            f_prop, grad_prop = kernel(proposal)
            f_prop = np.where(np.isfinite(f_prop), f_prop, np.inf)
            fwd = proposal - z + eta_t * grad
            rev = z - proposal + eta_t * grad_prop
            log_q_fwd = -np.einsum("ij,ij->i", fwd, fwd) / (4.0 * eta)
            log_q_rev = -np.einsum("ij,ij->i", rev, rev) / (4.0 * eta)
            log_alpha = -(f_prop - f_cur) / temperature + log_q_rev - log_q_fwd
            log_alpha = np.where(np.isfinite(log_alpha), log_alpha, -np.inf)
            accept = np.log(uniforms) < log_alpha
            n_accept += accept
            z[accept] = proposal[accept]
            f_cur = np.where(accept, f_prop, f_cur)
            grad[accept] = grad_prop[accept]
        slot = slots.get(step)
        if slot is not None:
            kept[:, slot] = z
    return kept, n_accept


def effective_sample_size(series) -> float:
    """ESS of a scalar chain via the initial-positive-sequence truncation.

    Autocovariances are summed in adjacent pairs until a pair sum goes
    non-positive; iid-like series return roughly their length.  Series
    too short to estimate (< 4) return their length; a constant series
    returns 1.0 (a frozen chain carries one sample of information, and
    a zero-variance coordinate cannot justify more).  The one-column
    view of column_ess.
    """
    return float(column_ess(np.asarray(series, dtype=np.float64).reshape(-1, 1))[0])


def column_ess(block) -> np.ndarray:
    """effective_sample_size of every column of a (k, n) block of k draws.

    The columns become contiguous rows of one array, so a single
    rfft/irfft pair yields every autocovariance, and each column's pair
    sums up to its cutoff are one masked row sum.
    """
    x = np.ascontiguousarray(np.asarray(block, dtype=np.float64).T)
    n, k = x.shape
    ess = np.full(n, float(k))
    if k < 4:
        return ess
    x = x - x.mean(axis=1, keepdims=True)
    moving = np.any(x, axis=1)
    ess[~moving] = 1.0
    x = x[moving]
    nfft = 1 << (2 * k - 1).bit_length()
    f = np.fft.rfft(x, nfft, axis=1)
    acov = np.fft.irfft(f * np.conj(f), nfft, axis=1)[:, :k] / k
    rho = acov / acov[:, :1]
    if k % 2:
        rho = np.concatenate([rho, np.zeros((len(rho), 1))], axis=1)
    pair_sums = rho[:, 0::2] + rho[:, 1::2]
    # the pair sums before each column's first non-positive one
    head = ~np.logical_or.accumulate(pair_sums <= 0.0, axis=1)
    taus = np.maximum(-1.0 + 2.0 * np.where(head, pair_sums, 0.0).sum(axis=1), 1.0 / k)
    ess[moving] = k / taus
    return ess
