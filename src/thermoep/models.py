"""Bundled energy models.

Discrete models (TwoStateModel, SpinGlassModel) are small enough for
exact enumeration and carry the oracle-side burden.  The quadratic model
has Gaussian closed forms and anchors the continuous samplers.  The
layered tanh network is the trainable model: inputs are clamped, hidden
and output units relax, and the loss reads the output block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DivergenceError, EnergyModel, ParamVector, StateKind


@dataclass(frozen=True)
class RowLoss:
    """Vectorised scalar loss: maps (m, state_dim) rows to (m,) values."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "loss"

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(states), dtype=np.float64)


def output_spin_mismatch_loss(site: int, target: int) -> RowLoss:
    """Indicator loss (1 - target * s_site) / 2 on a designated spin."""
    if target not in (-1, 1):
        raise ValueError(f"target must be -1 or +1, got {target!r}")
    return RowLoss(
        fn=lambda states: (1.0 - target * states[:, site]) / 2.0,
        name=f"mismatch(site={site}, target={target:+d})",
    )


def linear_state_loss(weights) -> RowLoss:
    """Signed linear loss g . s, useful for stressing bound checks."""
    g = np.asarray(weights, dtype=np.float64)
    return RowLoss(fn=lambda states: states @ g, name="linear")


class TwoStateModel(EnergyModel):
    """Single site s in {0, 1} with E = theta * s and l(s) = s.

    The one model whose free energies have elementary closed forms:
    log Z_beta = log(1 + exp(-(theta + beta) / T)).
    """

    param_dim = 1
    state_dim = 1
    state_kind = StateKind.BINARY
    site_values = (0.0, 1.0)

    def energy_batch(self, theta, states):
        return theta[0] * states[:, 0]

    def grad_theta_energy_sum(self, theta, states, weights=None):
        col = states[:, 0]
        total = col.sum() if weights is None else float(weights @ col)
        return np.array([total])

    def loss_batch(self, states):
        return states[:, 0].copy()

    def log_partition(self, theta, beta, temperature=1.0) -> float:
        """Closed form log Z_beta."""
        return float(np.logaddexp(0.0, -(theta[0] + beta) / temperature))


class SpinGlassModel(EnergyModel):
    """Fully connected +/-1 spins with pairwise couplings and fields.

    E = -sum_i h_i s_i - sum_{i<j} J_ij s_i s_j, with theta laid out as
    the n fields followed by the n(n-1)/2 upper-triangle couplings.
    """

    state_kind = StateKind.BINARY
    site_values = (-1.0, 1.0)

    def __init__(self, n_spins: int, loss: RowLoss | None = None):
        if n_spins < 1:
            raise ValueError("n_spins must be >= 1")
        self.n_spins = n_spins
        self.state_dim = n_spins
        self.param_dim = n_spins + n_spins * (n_spins - 1) // 2
        self._iu = np.triu_indices(n_spins, k=1)
        self._loss = loss

    def default_layout(self):
        n = self.n_spins
        return (("fields", 0, n), ("couplings", n, self.param_dim - n))

    def _split(self, theta):
        return theta[: self.n_spins], theta[self.n_spins :]

    def _pair_products(self, states):
        return states[:, self._iu[0]] * states[:, self._iu[1]]

    def coupling_matrix(self, theta) -> np.ndarray:
        """Symmetric coupling matrix with zero diagonal."""
        _, coup = self._split(theta)
        w = np.zeros((self.n_spins, self.n_spins))
        w[self._iu] = coup
        return w + w.T

    def energy_batch(self, theta, states):
        fields, coup = self._split(theta)
        return -(states @ fields) - (self._pair_products(states) @ coup)

    def grad_theta_energy_sum(self, theta, states, weights=None):
        pairs = self._pair_products(states)
        if weights is None:
            return -np.concatenate([states.sum(axis=0), pairs.sum(axis=0)])
        return -np.concatenate([weights @ states, weights @ pairs])

    def loss_batch(self, states):
        if self._loss is None:
            return np.zeros(len(states))
        return self._loss(states)

    def kernel_site_delta(self, theta, beta, states, site):
        fields, _ = self._split(theta)
        w = self.coupling_matrix(theta)
        # s_site contributes w[site, site] * s = 0, so no need to zero it out
        delta_e = -2.0 * (fields[site] + states @ w[:, site])
        if beta == 0.0 or self._loss is None:
            return delta_e
        flipped = np.array(states, copy=True)
        flipped[:, site] = 1.0
        l_hi = self._loss(flipped)
        flipped[:, site] = -1.0
        l_lo = self._loss(flipped)
        return delta_e + beta * (l_hi - l_lo)


def random_spin_glass(
    n_spins: int, seed: int, loss: str = "output_spin"
) -> tuple[SpinGlassModel, ParamVector]:
    """Random instance with i.i.d. standard normal fields and couplings.

    loss: "output_spin" puts a mismatch indicator on the last spin with a
    random target sign, "signed" draws a Gaussian linear loss, "zero"
    attaches no loss.
    """
    rng = np.random.default_rng(seed)
    n_pairs = n_spins * (n_spins - 1) // 2
    theta = rng.standard_normal(n_spins + n_pairs)
    if loss == "output_spin":
        row_loss = output_spin_mismatch_loss(n_spins - 1, int(rng.choice([-1, 1])))
    elif loss == "signed":
        row_loss = linear_state_loss(rng.standard_normal(n_spins))
    elif loss == "zero":
        row_loss = None
    else:
        raise ValueError(f"unknown loss kind {loss!r}")
    model = SpinGlassModel(n_spins, loss=row_loss)
    return model, model.param_vector(theta)


class QuadraticEnergyModel(EnergyModel):
    """E = theta_0 / 2 * |s|^2 with optional linear loss l(s) = a . s.

    The Gibbs distribution is Gaussian at every nudge level, so means,
    covariances and the contrastive objective all have closed forms
    against which samplers and estimators can be checked.
    """

    state_kind = StateKind.CONTINUOUS
    param_dim = 1

    def __init__(self, dim: int, loss_vector=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.state_dim = dim
        self._a = None if loss_vector is None else np.asarray(loss_vector, dtype=np.float64)
        if self._a is not None and self._a.shape != (dim,):
            raise ValueError("loss_vector must have the state dimension")

    def energy_batch(self, theta, states):
        return 0.5 * theta[0] * np.einsum("ij,ij->i", states, states)

    def grad_theta_energy_sum(self, theta, states, weights=None):
        sq = 0.5 * np.einsum("ij,ij->i", states, states)
        return np.array([sq.sum() if weights is None else float(weights @ sq)])

    def grad_state_energy_batch(self, theta, states):
        return theta[0] * states

    def loss_batch(self, states):
        if self._a is None:
            return np.zeros(len(states))
        return states @ self._a

    def grad_state_loss_batch(self, states):
        if self._a is None:
            return np.zeros_like(states)
        return np.broadcast_to(self._a, states.shape).copy()

    # -- Gaussian closed forms -----------------------------------------
    # Only valid for a positive stiffness; otherwise the Gibbs measure
    # does not normalize and there is nothing to be exact about.

    def _stiffness(self, theta) -> float:
        k = float(np.asarray(theta).reshape(-1)[0])
        if k <= 0.0:
            raise ValueError(f"closed forms need stiffness theta[0] > 0, got {k}")
        return k

    def stationary_mean(self, theta, beta, temperature=1.0) -> np.ndarray:
        k = self._stiffness(theta)
        a = np.zeros(self.state_dim) if self._a is None else self._a
        return -beta * a / k

    def stationary_cov(self, theta, temperature=1.0) -> np.ndarray:
        return (temperature / self._stiffness(theta)) * np.eye(self.state_dim)

    def contrastive_objective_exact(self, theta, temperature=1.0) -> float:
        a2 = 0.0 if self._a is None else float(self._a @ self._a)
        return -a2 / (2.0 * self._stiffness(theta))

    def grad_contrast_exact(self, theta, temperature=1.0) -> np.ndarray:
        a2 = 0.0 if self._a is None else float(self._a @ self._a)
        return np.array([a2 / (2.0 * self._stiffness(theta) ** 2)])


# ----------------------------------------------------------------------
# layered tanh network and its feedforward twin
# ----------------------------------------------------------------------


def layer_segments(n_in: int, n_hidden: int, n_out: int):
    sizes = (("W1", n_in * n_hidden), ("W2", n_hidden * n_out), ("b_h", n_hidden), ("b_o", n_out))
    layout, offset = [], 0
    for name, length in sizes:
        layout.append((name, offset, length))
        offset += length
    return tuple(layout)


def unpack_layers(theta: np.ndarray, n_in: int, n_hidden: int, n_out: int):
    """Split a flat parameter vector into (W1, W2, b_h, b_o) views."""
    o1 = n_in * n_hidden
    o2 = o1 + n_hidden * n_out
    w1 = theta[:o1].reshape(n_in, n_hidden)
    w2 = theta[o1:o2].reshape(n_hidden, n_out)
    b_h = theta[o2 : o2 + n_hidden]
    b_o = theta[o2 + n_hidden :]
    return w1, w2, b_h, b_o


def pack_layers(w1, w2, b_h, b_o) -> np.ndarray:
    return np.concatenate([np.ravel(w1), np.ravel(w2), np.ravel(b_h), np.ravel(b_o)])


@dataclass
class PhaseStats:
    """Layered-net feature sums per group of kept rows sharing one clamped
    input: an example's rows in the trainer, a chain's in the estimators."""

    n_rows: int  # kept rows per group
    sum_th: np.ndarray  # (G, H)
    sum_to: np.ndarray  # (G, O)
    sum_cross: np.ndarray  # (G, H, O)
    losses: np.ndarray  # (G, n_rows)
    sum_lth: np.ndarray | None = None
    sum_lto: np.ndarray | None = None
    sum_lcross: np.ndarray | None = None

    def mean_loss(self) -> np.ndarray:
        return self.losses.sum(axis=1) / self.n_rows

    def cov_features(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-group Cov[l, feature] with n-1 normalisation."""
        r = self.n_rows
        if r < 2:
            raise ValueError("covariance needs >= 2 kept rows per group")
        ml = self.mean_loss()
        c_th = (self.sum_lth - ml[:, None] * self.sum_th) / (r - 1)
        c_to = (self.sum_lto - ml[:, None] * self.sum_to) / (r - 1)
        c_cross = (self.sum_lcross - ml[:, None, None] * self.sum_cross) / (r - 1)
        return c_th, c_to, c_cross


def feature_grad(inputs: np.ndarray, v_th, v_to, v_cross) -> np.ndarray:
    """Map per-example feature-space vectors to the mean theta-gradient.

    dE/dtheta = (-x (x) th, -th (x) to, -th, -to) for the clamped input x,
    so any per-example linear statistic of the features (rows of v_th,
    v_to, v_cross) turns into the matching statistic of the gradient,
    averaged over the examples (rows of inputs).
    """
    b = len(inputs)
    g_w1 = -(inputs.T @ v_th) / b
    g_w2 = -v_cross.mean(axis=0)
    g_bh = -v_th.mean(axis=0)
    g_bo = -v_to.mean(axis=0)
    return pack_layers(g_w1, g_w2, g_bh, g_bo)


def init_layer_params(n_in: int, n_hidden: int, n_out: int, seed: int) -> ParamVector:
    """Uniform(+/- sqrt(6 / (fan_in + fan_out))) weights, zero biases."""
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(6.0 / (n_in + n_hidden))
    r2 = np.sqrt(6.0 / (n_hidden + n_out))
    w1 = rng.uniform(-r1, r1, size=(n_in, n_hidden))
    w2 = rng.uniform(-r2, r2, size=(n_hidden, n_out))
    flat = pack_layers(w1, w2, np.zeros(n_hidden), np.zeros(n_out))
    return ParamVector(flat, layer_segments(n_in, n_hidden, n_out))


@dataclass
class RelaxResult:
    """End point of relax_free_batch: one relaxed state per example."""

    state: np.ndarray
    converged: bool
    iterations: int
    grad_inf_norm: float


class LayeredTanhEnergyNet(EnergyModel):
    """Continuous two-block network with clamped inputs.

    State s = (x, h, o).  With activations th = tanh(h), to = tanh(o),

        E = |h|^2 / 2 + |o|^2 / 2 - th . (W1^T x) - to . (W2^T th)
            - b_h . th - b_o . to

    and squared-error loss l(s) = |o - target|^2 / 2 on the output
    block.  Inputs are clamped, so the x coordinates never move during
    sampling or relaxation.
    """

    state_kind = StateKind.CONTINUOUS

    def __init__(self, n_in: int, n_hidden: int, n_out: int, target=None):
        if min(n_in, n_hidden, n_out) < 1:
            raise ValueError("layer sizes must be >= 1")
        self.n_in, self.n_hidden, self.n_out = n_in, n_hidden, n_out
        self.state_dim = n_in + n_hidden + n_out
        self.param_dim = n_in * n_hidden + n_hidden * n_out + n_hidden + n_out
        self.target = None if target is None else np.asarray(target, dtype=np.float64)
        if self.target is not None and self.target.shape != (n_out,):
            raise ValueError(f"target must have shape ({n_out},)")
        self._mask = np.zeros(self.state_dim, dtype=bool)
        self._mask[:n_in] = True

    @property
    def clamp_mask(self):
        return self._mask

    def default_layout(self):
        return layer_segments(self.n_in, self.n_hidden, self.n_out)

    def with_target(self, target) -> "LayeredTanhEnergyNet":
        return LayeredTanhEnergyNet(self.n_in, self.n_hidden, self.n_out, target)

    def split_state(self, states: np.ndarray):
        """Rows (or a single state) split into the (x, h, o) blocks."""
        i, j = self.n_in, self.n_in + self.n_hidden
        return states[..., :i], states[..., i:j], states[..., j:]

    def init_state(self, x) -> np.ndarray:
        """Clamped input with hidden and output blocks at zero."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_in,):
            raise ValueError(f"input must have shape ({self.n_in},)")
        s = np.zeros(self.state_dim)
        s[: self.n_in] = x
        return s

    # -- energy ---------------------------------------------------------

    def _operands(self, theta, x, tile=False):
        """theta's (W1, W2, b_h, b_o) views, the input drive x @ W1 and the
        biases as _free_rows adds them to the rows' drives.  With tile, the
        biases are repeated over the rows, for callers that evaluate the
        same rows many times: a contiguous add gives the same bits as a
        broadcast one, at a third of the cost.
        """
        w1, w2, b_h, b_o = unpack_layers(theta, self.n_in, self.n_hidden, self.n_out)
        n = len(x) if tile else 1
        return w1, w2, b_h, b_o, x @ w1, np.tile(b_h, (n, 1)), np.tile(b_o, (n, 1))

    def _free_rows(self, ops, h, o, energy=True, grad=True):
        """E per row and (dE/dh, dE/do) given the rows' _operands.

        The one copy of the energy formula; energy_batch,
        grad_state_energy_batch, free_kernel (run_phases and the trainer)
        and relax_free_batch read it.  Either result is None when not
        asked for.
        """
        _, w2, b_h, b_o, xw1, bias_h, bias_o = ops
        th, to = np.tanh(h), np.tanh(o)
        th_w2 = th @ w2
        f = g = None
        if energy:
            quad = 0.5 * np.einsum("ij,ij->i", h, h) + 0.5 * np.einsum("ij,ij->i", o, o)
            drive = np.einsum("ij,ij->i", xw1, th) + np.einsum("ij,ij->i", th_w2, to)
            f = quad - drive - th @ b_h - to @ b_o
        if grad:
            a_h = to @ w2.T
            a_h += xw1
            a_h += bias_h
            th_w2 += bias_o  # the energy has read it
            for z, act, a in ((h, th, a_h), (o, to, th_w2)):  # z - (1 - act^2) * a, over a
                s = act * act
                np.subtract(1.0, s, out=s)
                s *= a
                np.subtract(z, s, out=a)
            g = (a_h, th_w2)
        return f, g

    def energy_batch(self, theta, states):
        x, h, o = self.split_state(states)
        return self._free_rows(self._operands(theta, x), h, o, grad=False)[0]

    def grad_state_energy_batch(self, theta, states):
        x, h, o = self.split_state(states)
        ops = self._operands(theta, x)
        g_h, g_o = self._free_rows(ops, h, o, energy=False)[1]
        return np.concatenate([-np.tanh(h) @ ops[0].T, g_h, g_o], axis=-1)

    def free_kernel(self, theta, beta, rows, targets=None):
        """F and dF/d(h, o) over the free block, with x @ W1 computed once.

        beta is one nudge for every row or one per row, and targets
        (rows, n_out) gives each row its own target; by default every row
        uses the bound one, read only when some row is nudged.  Bit-equal
        to the generic kernel: the same formula on the same operands,
        without the clamped-input gradient it discards.
        """
        ops = self._operands(theta, self.split_state(rows)[0], tile=True)
        nh = self.n_hidden
        nudged = np.any(beta)
        if nudged and targets is None:
            targets = self._require_target()
        beta_col = np.reshape(beta, (-1, 1))

        def kernel(z):
            h, o = z[:, :nh].copy(), z[:, nh:].copy()  # contiguous blocks: faster ufuncs
            f, (g_h, g_o) = self._free_rows(ops, h, o)
            if nudged:
                d = o - targets
                f += beta * (0.5 * np.einsum("ij,ij->i", d, d))
                g_h += beta_col * 0.0  # as the generic beta * dl/dh: -0.0 becomes +0.0
                d *= beta_col
                g_o += d
            return f, np.concatenate([g_h, g_o], axis=1)

        return kernel

    def feature_sums(self, free, targets, need_cov=False) -> PhaseStats:
        """Feature sums over kept free rows (h, o) of shape (groups, rows, n_free).

        targets is (groups, n_out), or (1, n_out) when shared.  dE/dtheta is
        linear in the features (x (x) th, th (x) to, th, to) and a group's
        rows share x, so these sums give each group's sum of dE/dtheta and,
        with need_cov, of l * dE/dtheta.
        """
        nh = self.n_hidden
        th, to = np.tanh(free[:, :, :nh]), np.tanh(free[:, :, nh:])
        d = free[:, :, nh:] - targets[:, None, :]
        losses = 0.5 * np.einsum("bnj,bnj->bn", d, d)
        cov = {}
        if need_cov:
            lth = losses[:, :, None] * th
            cov = dict(sum_lth=lth.sum(axis=1), sum_lto=np.einsum("bn,bno->bo", losses, to),
                       sum_lcross=lth.transpose(0, 2, 1) @ to)
        return PhaseStats(
            n_rows=free.shape[1],
            sum_th=th.sum(axis=1),
            sum_to=to.sum(axis=1),
            sum_cross=th.transpose(0, 2, 1) @ to,
            losses=losses,
            **cov,
        )

    def chain_sums(self, theta, init, free, weighted=False):
        """EnergyModel.chain_sums from feature_sums, one chain at a time.

        Chain c's sum is feature_grad over its one clamped input x; the
        weighted sum weights each row's features by its loss.  Both agree
        with the generic sums to rounding.
        """
        n_chains, n_kept = free.shape[:2]
        target = self._require_target() if weighted else np.zeros(self.n_out)  # no loss read
        sums = np.empty((n_chains, self.param_dim))
        losses = np.empty((n_chains, n_kept)) if weighted else None
        l_sums = np.empty_like(sums) if weighted else None
        for c in range(n_chains):
            s = self.feature_sums(free[c : c + 1], target[None, :], need_cov=weighted)
            x = init[c : c + 1, : self.n_in]
            sums[c] = feature_grad(x, s.sum_th, s.sum_to, s.sum_cross)
            if weighted:
                losses[c] = s.losses[0]
                l_sums[c] = feature_grad(x, s.sum_lth, s.sum_lto, s.sum_lcross)
        return (sums, losses, l_sums) if weighted else sums

    def grad_theta_energy_sum(self, theta, states, weights=None):
        x, h, o = self.split_state(states)
        th, to = np.tanh(h), np.tanh(o)
        if weights is not None:
            x = x * weights[:, None]
            th_w = th * weights[:, None]
        else:
            th_w = th
        g_w1 = -(x.T @ th)
        g_w2 = -(th_w.T @ to)
        ones = np.ones(len(states)) if weights is None else weights
        g_bh = -(ones @ th)
        g_bo = -(ones @ to)
        return pack_layers(g_w1, g_w2, g_bh, g_bo)

    # -- loss -------------------------------------------------------------

    def _require_target(self):
        if self.target is None:
            raise ValueError("no target bound to this network; use with_target()")
        return self.target

    def loss_batch(self, states):
        d = self.split_state(states)[2] - self._require_target()
        return 0.5 * np.einsum("ij,ij->i", d, d)

    def grad_state_loss_batch(self, states):
        t = self._require_target()
        _, _, o = self.split_state(states)
        g = np.zeros_like(states)
        g[..., self.n_in + self.n_hidden :] = o - t
        return g

    # -- deterministic free-phase relaxation ----------------------------

    def relax_free_batch(
        self, theta, inputs, step: float = 0.5, max_iters: int = 300, tol: float = 1e-8
    ) -> RelaxResult:
        """Gradient descent on E over (h, o) with x clamped, batched over rows.

        The input drive x @ W1 is constant during relaxation and is
        computed once; each step reads the model's one gradient formula
        (_free_rows), so a row takes the same steps as generic gradient
        descent on its free coordinates.  A step maps z to (1 - step) z
        plus a bounded drive, so step must lie in (0, 2).
        """
        if not (0.0 < step < 2.0):
            raise ValueError(f"relaxation step must lie in (0, 2), got {step}")
        x = np.asarray(inputs, dtype=np.float64)
        ops = self._operands(np.asarray(theta, dtype=np.float64), x, tile=True)
        h = np.zeros((len(x), self.n_hidden))
        o = np.zeros((len(x), self.n_out))
        gnorm, iters = np.inf, 0
        for iters in range(1, max_iters + 1):
            g_h, g_o = self._free_rows(ops, h, o, energy=False)[1]
            gnorm = max(np.max(np.abs(g_h)), np.max(np.abs(g_o)))
            if not np.isfinite(gnorm):
                raise DivergenceError(f"free-phase relaxation diverged at iteration {iters}")
            if gnorm <= tol:
                break
            h -= step * g_h
            o -= step * g_o
        states = np.concatenate([x, h, o], axis=1)
        return RelaxResult(states, bool(gnorm <= tol), iters, float(gnorm))

    def predict(self, theta, inputs, **relax_kw) -> np.ndarray:
        """Class labels: argmax over output units of the relaxed free state."""
        result = self.relax_free_batch(theta, inputs, **relax_kw)
        _, _, o = self.split_state(result.state)
        return np.argmax(o, axis=1)


class FeedforwardBaseline:
    """Conventional one-hidden-layer net sharing the energy net's layout.

    Forward map: logits = tanh(x @ W1 + b_h) @ W2 + b_o (identity output
    activation), trained on the same squared-error loss by exact
    backpropagation.  Kept layout-compatible with LayeredTanhEnergyNet
    so parameter vectors can be compared or transplanted.
    """

    def __init__(self, n_in: int, n_hidden: int, n_out: int):
        self.n_in, self.n_hidden, self.n_out = n_in, n_hidden, n_out
        self.param_dim = n_in * n_hidden + n_hidden * n_out + n_hidden + n_out

    def default_layout(self):
        return layer_segments(self.n_in, self.n_hidden, self.n_out)

    def forward(self, theta, inputs) -> np.ndarray:
        w1, w2, b_h, b_o = unpack_layers(theta, self.n_in, self.n_hidden, self.n_out)
        return np.tanh(inputs @ w1 + b_h) @ w2 + b_o

    def loss_mean(self, theta, inputs, targets) -> float:
        d = self.forward(theta, inputs) - targets
        return float(0.5 * np.mean(np.einsum("ij,ij->i", d, d)))

    def backprop_grad_batch(self, theta, inputs, targets) -> np.ndarray:
        """Mean gradient of the squared-error loss over the batch rows."""
        w1, w2, b_h, b_o = unpack_layers(theta, self.n_in, self.n_hidden, self.n_out)
        x = np.asarray(inputs, dtype=np.float64)
        z1 = x @ w1 + b_h
        a1 = np.tanh(z1)
        delta2 = (a1 @ w2 + b_o) - targets
        delta1 = (1.0 - a1**2) * (delta2 @ w2.T)
        m = len(x)
        g_w1 = x.T @ delta1 / m
        g_w2 = a1.T @ delta2 / m
        return pack_layers(g_w1, g_w2, delta1.mean(axis=0), delta2.mean(axis=0))

    def predict(self, theta, inputs) -> np.ndarray:
        return np.argmax(self.forward(theta, inputs), axis=1)
