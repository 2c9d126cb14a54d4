"""Shared types and objective-kernel arithmetic.

The central object is an energy model E(theta, s) paired with a scalar
loss l(s) over the same state space.  Everything downstream works with
the nudged kernel

    F(theta, beta, s) = E(theta, s) + beta * l(s),

whose Gibbs distribution at inverse nudge beta and temperature T is
rho_beta(s) proportional to exp(-F(theta, beta, s) / T).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Absolute floor added to denominators of relative errors so that
# exactly-zero reference values do not divide out to inf.
EPS_ABS = 1e-12


class EvaluationError(ValueError):
    """A non-finite energy or loss value was produced."""


class DivergenceError(FloatingPointError):
    """A relaxation or a training run produced a non-finite state or parameter."""


class StateKind(Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


@dataclass(frozen=True)
class Temperature:
    """Strictly positive temperature T."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"temperature must be finite and > 0, got {self.value!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class NudgeStrength:
    """Nudge level beta, restricted to the unit interval."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v < 0.0 or v > 1.0:
            raise ValueError(f"nudge strength must lie in [0, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)


def as_temperature(t) -> float:
    """Accept a Temperature or bare number, return the validated float."""
    if isinstance(t, Temperature):
        return t.value
    return Temperature(t).value


def as_nudge(beta) -> float:
    """Accept a NudgeStrength or bare number, return the validated float."""
    if isinstance(beta, NudgeStrength):
        return beta.value
    return NudgeStrength(beta).value


Segment = tuple[str, int, int]  # (name, offset, length)


@dataclass(frozen=True)
class ParamVector:
    """Flat float64 parameter vector with a named segment layout.

    Segments must tile [0, dim) exactly, with no gaps or overlaps, so a
    ParamVector can be re-assembled from its parts without ambiguity.
    """

    values: np.ndarray
    layout: tuple[Segment, ...] = ()

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("parameter vector contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        layout = tuple(self.layout) or (("theta", 0, v.size),)
        _validate_layout(layout, v.size)
        object.__setattr__(self, "layout", layout)

    @property
    def dim(self) -> int:
        return self.values.size

    def segment(self, name: str) -> np.ndarray:
        for seg_name, off, length in self.layout:
            if seg_name == name:
                return self.values[off : off + length]
        raise KeyError(f"no segment named {name!r}")

    def with_values(self, values) -> "ParamVector":
        return ParamVector(values, self.layout)


def _validate_layout(layout: tuple[Segment, ...], dim: int) -> None:
    if len({name for name, _, _ in layout}) != len(layout):
        raise ValueError("segment names must be unique")
    cursor = 0
    for name, off, length in sorted(layout, key=lambda seg: seg[1]):
        if off != cursor or length < 0:
            raise ValueError(
                f"segments must tile [0, {dim}) exactly; "
                f"segment {name!r} starts at {off}, expected {cursor}"
            )
        cursor += length
    if cursor != dim:
        raise ValueError(f"segments cover [0, {cursor}) but the vector has dim {dim}")


def as_array(x) -> np.ndarray:
    """Unwrap a ParamVector to a plain float64 array."""
    values = getattr(x, "values", x)
    return np.asarray(values, dtype=np.float64)


class EnergyModel(ABC):
    """Energy E(theta, s) plus scalar loss l(s) over a common state space.

    Models do not own parameters; theta is passed to every call.  States
    are rows of an (m, state_dim) array.  A model implements energy_batch,
    loss_batch and grad_theta_energy_sum; continuous models also implement
    grad_state_energy_batch and grad_state_loss_batch.  The single-state
    methods are views of row s[None, :] that pass theta through untouched
    (the oracle evaluates them at long-double theta).  Where a batch
    method is a BLAS product over the rows, a one-row view goes through a
    different BLAS path and agrees with the batch's row only to rounding:
    loss(s) under linear_state_loss ("signed") differed from loss_batch
    by up to 1.3e-15 at 8 spins.
    """

    param_dim: int
    state_dim: int
    state_kind: StateKind
    site_values: tuple[float, float] = (-1.0, 1.0)

    # -- batched interface: rows of an (m, state_dim) array ---------------

    @abstractmethod
    def energy_batch(self, theta: np.ndarray, states: np.ndarray) -> np.ndarray:
        """E(theta, s_i) per row, shape (m,)."""

    @abstractmethod
    def loss_batch(self, states: np.ndarray) -> np.ndarray:
        """l(s_i) per row, shape (m,)."""

    @abstractmethod
    def grad_theta_energy_sum(
        self, theta: np.ndarray, states: np.ndarray, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """sum_i w_i dE/dtheta(theta, s_i); unit weights when omitted."""

    def grad_state_energy_batch(self, theta: np.ndarray, states: np.ndarray) -> np.ndarray:
        """dE/ds per row at fixed theta; required for continuous-state models."""
        raise NotImplementedError(f"{type(self).__name__} has no state-energy gradient")

    def grad_state_loss_batch(self, states: np.ndarray) -> np.ndarray:
        """dl/ds per row; required for continuous-state models with nonzero loss."""
        raise NotImplementedError(f"{type(self).__name__} has no state-loss gradient")

    # -- single-state views: row s[None, :] of the batched methods -------

    def energy(self, theta: np.ndarray, s: np.ndarray) -> float:
        return float(self.energy_batch(theta, s[None, :])[0])

    def loss(self, s: np.ndarray) -> float:
        return float(self.loss_batch(s[None, :])[0])

    def grad_theta_energy(self, theta: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self.grad_theta_energy_sum(theta, s[None, :])

    def grad_state_energy(self, theta: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self.grad_state_energy_batch(theta, s[None, :])[0]

    def grad_state_loss(self, s: np.ndarray) -> np.ndarray:
        return self.grad_state_loss_batch(s[None, :])[0]

    def kernel_site_delta(
        self, theta: np.ndarray, beta: float, states: np.ndarray, site: int
    ) -> np.ndarray:
        """F with site at site_values[1] minus F with site at site_values[0].

        Used by single-site sweep kernels on binary models.  Generic
        version evaluates the kernel twice per row; models with local
        structure override it.
        """
        lo, hi = self.site_values
        flipped = np.array(states, copy=True)
        flipped[:, site] = hi
        f_hi = kernel_batch(self, theta, beta, flipped)
        flipped[:, site] = lo
        f_lo = kernel_batch(self, theta, beta, flipped)
        return f_hi - f_lo

    def free_kernel(self, theta: np.ndarray, beta, rows: np.ndarray):
        """The nudged kernel over the free block, as a sampler.langevin kernel.

        rows (n, state_dim) supply the clamped coordinates; beta is one
        nudge for every row or one per row.  kernel(z) returns F and dF/dz
        per row for the free block z (n, n_free).  This generic version
        writes z into a copy of rows and evaluates the full-state methods;
        models with clamped blocks override it.
        """
        free = ~self.clamp_mask
        states = np.array(rows, copy=True)

        def kernel(z):
            states[:, free] = z
            return (_kernel_rows(self, theta, beta, states),
                    _kernel_grad_rows(self, theta, beta, states)[:, free])

        return kernel

    def chain_sums(self, theta: np.ndarray, init: np.ndarray, free: np.ndarray, weighted=False):
        """Per-chain sums of dE/dtheta over kept states, shape (n_chains, param_dim).

        init holds the chains' start rows, which carry the clamped
        coordinates, and free (n_chains, n_kept, n_free) the kept free
        block (SampleBatch's layout).  With weighted, returns (sums, losses
        (n_chains, n_kept), loss-weighted sums).  This generic version
        builds each chain's full rows; models with clamped blocks override it.
        """
        n_chains, n_kept = free.shape[:2]
        sums = np.empty((n_chains, self.param_dim))
        losses = np.empty((n_chains, n_kept)) if weighted else None
        l_sums = np.empty_like(sums) if weighted else None
        for c in range(n_chains):
            rows = chain_rows(init[c], free[c], self.clamp_mask)
            sums[c] = self.grad_theta_energy_sum(theta, rows)
            if weighted:
                losses[c] = self.loss_batch(rows)
                l_sums[c] = self.grad_theta_energy_sum(theta, rows, weights=losses[c])
        return (sums, losses, l_sums) if weighted else sums

    # -- housekeeping -----------------------------------------------------

    @property
    def clamp_mask(self) -> np.ndarray:
        """Boolean mask of state coordinates held fixed during sampling."""
        return np.zeros(self.state_dim, dtype=bool)

    def validate_theta(self, theta) -> np.ndarray:
        t = as_array(theta)
        if t.shape != (self.param_dim,):
            raise ValueError(f"theta has shape {t.shape}, expected ({self.param_dim},)")
        return t

    def validate_state(self, s) -> np.ndarray:
        v = as_array(s)
        if v.shape != (self.state_dim,):
            raise ValueError(f"state has shape {v.shape}, expected ({self.state_dim},)")
        if self.state_kind is StateKind.BINARY:
            allowed = np.asarray(self.site_values)
            if not np.all(np.isin(v, allowed)):
                raise ValueError(f"binary state entries must lie in {tuple(allowed)}")
        return v

    def default_layout(self) -> tuple[Segment, ...]:
        return (("theta", 0, self.param_dim),)

    def param_vector(self, values) -> ParamVector:
        return ParamVector(values, self.default_layout())


def objective_kernel(model: EnergyModel, theta, beta, s) -> float:
    """F(theta, beta, s) = E(theta, s) + beta * l(s), with finiteness checks."""
    return float(kernel_batch(model, theta, beta, as_array(s)[None, :])[0])


def kernel_batch(model: EnergyModel, theta, beta, states: np.ndarray) -> np.ndarray:
    """Row-wise objective kernel over an (m, state_dim) batch."""
    b = as_nudge(beta)
    theta = as_array(theta)
    e = model.energy_batch(theta, states)
    if not np.all(np.isfinite(e)):
        raise EvaluationError("energy evaluated to a non-finite value in a batch")
    if b == 0.0:
        return e
    l = model.loss_batch(states)
    if not np.all(np.isfinite(l)):
        raise EvaluationError("loss evaluated to a non-finite value in a batch")
    return e + b * l


def chain_rows(init_row: np.ndarray, free: np.ndarray, clamp_mask: np.ndarray) -> np.ndarray:
    """One chain's states as fresh (n_kept, state_dim) rows: the clamped
    coordinates from its start row, the rest from free (n_kept, n_free)."""
    rows = np.empty((len(free), clamp_mask.size))
    rows[:, clamp_mask] = init_row[clamp_mask]
    rows[:, ~clamp_mask] = free
    return rows


# Unchecked, unlike kernel_batch: a MALA proposal with a non-finite F is a rejection.
# beta is one nudge or one per row; the loss is read only when some row is nudged.
def _kernel_rows(model: EnergyModel, theta, beta, states: np.ndarray) -> np.ndarray:
    f = model.energy_batch(theta, states)
    if np.any(beta):
        f = f + beta * model.loss_batch(states)
    return f


def _kernel_grad_rows(model: EnergyModel, theta, beta, states: np.ndarray) -> np.ndarray:
    g = model.grad_state_energy_batch(theta, states)
    if np.any(beta):
        g = g + np.reshape(beta, (-1, 1)) * model.grad_state_loss_batch(states)
    return g


def central_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        g[k] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def max_relative_error(approx: np.ndarray, reference: np.ndarray) -> float:
    """max_k |approx_k - reference_k| / (|reference_k| + EPS_ABS)."""
    approx = np.asarray(approx, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    return float(np.max(np.abs(approx - reference) / (np.abs(reference) + EPS_ABS)))


def check_grad_theta(model: EnergyModel, theta, s, h: float = 1e-5) -> float:
    """Worst relative error of dE/dtheta against central differences."""
    theta = model.validate_theta(theta)
    s = as_array(s)
    analytic = model.grad_theta_energy(theta, s)
    fd = central_difference_grad(lambda t: model.energy(t, s), theta, h)
    return max_relative_error(analytic, fd)


def check_grad_state(model: EnergyModel, theta, s, h: float = 1e-5) -> float:
    """Worst relative error of dE/ds against central differences."""
    theta = model.validate_theta(theta)
    s = as_array(s)
    analytic = model.grad_state_energy(theta, s)
    fd = central_difference_grad(lambda v: model.energy(theta, v), s, h)
    return max_relative_error(analytic, fd)


def theta_fingerprint(theta) -> str:
    """Short stable hash of a parameter vector, for batch provenance."""
    arr = np.ascontiguousarray(as_array(theta))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]
