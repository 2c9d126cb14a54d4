"""Span tracer for the calls the benchmark makes into thermoep's layers.

The tracer wraps the module-level functions and model methods listed in
FUNCTIONS and MODEL_METHODS.  Because consumers import names directly
(``from .sampler import run_chains``), every thermoep module attribute
that *is* the original function is swapped, not just the defining one.
Generators returned by ``make_generator`` are wrapped in a proxy whose
draw methods count as ``rng.draw`` spans.

Each span adds one call, its duration to ``total_s`` and its duration
minus the time covered by its direct child spans to ``self_s``.  Span
records (unit, id, parent, name, start, end) are kept in memory and
written out by the caller at the end of the run; the hottest leaf spans
are aggregated only, so the record list stays bounded.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

FUNCTIONS = (
    ("rng", "make_generator"),
    ("sampler", "run_chains"),
    ("sampler", "effective_sample_size"),
    ("estimators", "grad_contrast_mc"),
    ("estimators", "grad_covariance_mc"),
    ("estimators", "grad_classical_ep"),
    ("estimators", "grad_supervised_mc"),
    ("diagnostics", "alignment_sweep"),
    ("train", "train"),
    ("train", "_ep_minibatch"),
    ("train", "_path_minibatch"),
    ("train", "_sample_phase"),
    ("train", "_stats_grad"),
    ("train", "evaluate_energy"),
    ("oracle", "gibbs_table"),
    ("oracle", "enumerate_states"),
    ("oracle", "variational_free_energy"),
    ("oracle", "run_consistency_suite"),
    ("data", "train_test_blobs"),
    ("data", "save_idx"),
    ("data", "load_idx"),
)

MODEL_METHODS = (
    "kernel_site_delta",
    "coupling_matrix",
    "energy",
    "energy_batch",
    "grad_state_energy_batch",
    "grad_theta_energy_sum",
    "relax_free_batch",
)

DRAW_METHODS = (
    "random", "standard_normal", "normal", "uniform", "integers",
    "exponential", "permutation", "choice", "shuffle",
)

# Called up to ~10^6 times per unit: counted and timed, never recorded.
UNRECORDED = frozenset({
    "rng.draw", "models.kernel_site_delta", "models.coupling_matrix",
    "models.energy", "models.energy_batch",
})

MAX_SPAN_RECORDS = 200_000


class Tracer:
    """Per-name call counts, total and self time, plus span records."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.records: list[tuple] = []
        self.dropped = 0
        self.unit = "setup"
        self._stack: list[list] = []  # open spans: [id given to children, child seconds]
        self._next_id = 1

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def take(self) -> dict:
        """Return the aggregates gathered since the last take, and zero them."""
        out = {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        for k in self.counters:
            self.counters[k] = 0.0
        return out

    def wrap(self, name: str, fn):
        """fn with a span named name around every call.

        Spans named in HOOKS also pass each call's arguments and result
        to the hook, which adds layer counters.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        stack = self._stack
        clock = self.clock
        recorded = name not in UNRECORDED

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else 0
            if recorded:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent  # children of an unrecorded span attach to its parent
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if recorded:
                    if len(self.records) < MAX_SPAN_RECORDS:
                        self.records.append((self.unit, sid, parent, name, start, end))
                    else:
                        self.dropped += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, unit):
        """Swap the traced names into every loaded thermoep module for the block."""
        self.unit = unit
        restore = []
        modules = [m for k, m in list(sys.modules.items())
                   if k == "thermoep" or k.startswith("thermoep.")]
        try:
            for layer, attr in FUNCTIONS:
                orig = getattr(sys.modules[f"thermoep.{layer}"], attr, None)
                if orig is None:  # renamed or removed: its metrics read 0
                    continue
                traced = self._function_wrapper(layer, attr, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            restore.append((mod, key, value))
                            setattr(mod, key, traced)
            for cls in _model_classes():
                for meth in MODEL_METHODS:
                    if meth in vars(cls):
                        orig = vars(cls)[meth]
                        restore.append((cls, meth, orig))
                        setattr(cls, meth, self.wrap(f"models.{meth}", orig))
            yield self
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)

    def _function_wrapper(self, layer, attr, orig):
        name = f"{layer}.{attr}"
        if name == "rng.make_generator":
            proxy = self._generator_proxy()
            return self.wrap(name, lambda *a, **k: proxy(orig(*a, **k)))
        return self.wrap(name, orig)

    def _generator_proxy(self):
        tracer = self

        class TracedGenerator:
            __slots__ = ("_gen",)

            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, attr):
                return getattr(self._gen, attr)

        for meth in DRAW_METHODS:
            def call(proxy, *args, _meth=meth, **kwargs):
                return getattr(proxy._gen, _meth)(*args, **kwargs)
            setattr(TracedGenerator, meth, tracer.wrap("rng.draw", call))
        return TracedGenerator


def _model_classes():
    core = sys.modules["thermoep.core"]
    models = sys.modules["thermoep.models"]
    classes = [core.EnergyModel]
    classes += [v for v in vars(models).values()
                if isinstance(v, type) and issubclass(v, core.EnergyModel)
                and v is not core.EnergyModel]
    return classes


def _run_chains_hook(tracer, args, kwargs, batch):
    config = args[4] if len(args) > 4 else kwargs["config"]
    row_steps = config.n_chains * config.n_steps
    tracer.count("sampler.row_steps", row_steps)
    tracer.count("sampler.ess_sum", float(batch.ess.sum()))
    tracer.count("sampler.kept_rows", batch.n_chains * batch.n_kept)
    if batch.acceptance_rate is not None:
        tracer.count("sampler.proposals", row_steps)
        tracer.count("sampler.accepted", batch.acceptance_rate * row_steps)


def _relax_hook(tracer, args, kwargs, result):
    tracer.count("models.relax_free_batch.iterations", result.iterations)
    tracer.count("models.relax_free_batch.unconverged", 0 if result.converged else 1)


HOOKS = {
    "sampler.run_chains": _run_chains_hook,
    "models.relax_free_batch": _relax_hook,
}


def combine(*raws: dict) -> dict:
    """Sum the stats and counters of several take() results."""
    out = {"stats": {}, "counters": {}}
    for raw in raws:
        for name, values in raw["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, v in raw["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0.0) + v
    return out


def scaled(raw: dict, slowdown: float) -> dict:
    """A take() result with its span times divided by slowdown."""
    return {
        "stats": {n: [calls, total / slowdown, self_s / slowdown]
                  for n, (calls, total, self_s) in raw["stats"].items()},
        "counters": dict(raw["counters"]),
    }


def median_raw(raws: list[dict]) -> dict:
    """Element-wise median of several take() results (one per unit)."""
    names = sorted({n for r in raws for n in r["stats"]})
    counters = sorted({n for r in raws for n in r["counters"]})
    zero = [0, 0.0, 0.0]
    return {
        "stats": {
            n: [statistics.median(r["stats"].get(n, zero)[i] for r in raws) for i in range(3)]
            for n in names
        },
        "counters": {
            n: statistics.median(r["counters"].get(n, 0.0) for r in raws) for n in counters
        },
    }


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics: <span>.{calls,total_s,self_s} plus sampler and relax ratios."""
    out = {}
    for name, (calls, total, self_s) in raw["stats"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
    c = raw["counters"]
    row_steps = c.get("sampler.row_steps", 0.0)
    busy = out.get("sampler.run_chains.total_s", 0.0)
    proposals = c.get("sampler.proposals", 0.0)
    kept = c.get("sampler.kept_rows", 0.0)
    out["sampler.row_steps"] = row_steps
    out["sampler.row_steps_per_s"] = row_steps / busy if busy else 0.0
    out["sampler.accept_rate"] = c.get("sampler.accepted", 0.0) / proposals if proposals else 0.0
    out["sampler.ess_per_kept"] = c.get("sampler.ess_sum", 0.0) / kept if kept else 0.0
    for name in ("models.relax_free_batch.iterations", "models.relax_free_batch.unconverged"):
        out[name] = c.get(name, 0.0)
    return out


def count_mismatches(raw: dict, expected: dict) -> dict:
    """Traced call counts that differ from expected (names not listed expect 0)."""
    observed = {name: v[0] for name, v in raw["stats"].items()}
    return {
        name: {"expected": expected.get(name, 0), "observed": observed.get(name, 0)}
        for name in sorted(set(observed) | set(expected))
        if observed.get(name, 0) != expected.get(name, 0)
    }
