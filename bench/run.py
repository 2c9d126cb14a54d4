"""Run one thermoep benchmark workload and print its result as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Workloads are defined in workloads.py.  A run executes units (each a
fixed amount of work with inputs derived from the seed and the unit
index) until the next unit would end after --seconds, at least
MIN_UNITS of them.  Between units, in bursts spread over the run, it
sets the workload up SETUP_REPS times, each time re-importing thermoep
from ./src.  Every set-up and unit time is scaled to the fast state of
a reference host by the probe in speed.py; the raw times are kept in
the record.

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json:
setup_s is the median set-up time and wall_s the median unit time.
With --trace 1 units alternate untraced and traced; the metrics are
the per-layer ones, covering one traced set-up plus the median traced
unit, with span times scaled like the section they ran in, and
trace.overhead_s is the median traced minus the median
untraced unit time.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
A full record (checks, fingerprints, traced-count cross-check, machine)
goes to DIR/<workload>-seed<N>-trace<T>.json, and a traced run's spans
to DIR/<workload>-seed<N>-spans.jsonl.  compare.py reads these records.
"""

import os

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from speed import SpeedProbe, slowdown  # noqa: E402
from tracer import Tracer, combine, count_mismatches, layer_metrics, median_raw, scaled  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAYERS = ("core", "rng", "models", "sampler", "estimators", "diagnostics", "train", "oracle", "data")
SETUP_REPS = 9
SETUP_BURST = 3
MIN_UNITS = 3


def import_thermoep() -> SimpleNamespace:
    """Fresh import of thermoep from ./src; returns its submodules by layer."""
    for name in [k for k in sys.modules if k == "thermoep" or k.startswith("thermoep.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("thermoep")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"thermoep was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{layer: sys.modules[f"thermoep.{layer}"] for layer in LAYERS})


def timed_setup(workload, seed, workdir, probe, setups: list) -> dict:
    """Import thermoep afresh and build the workload's inputs.

    Appends (seconds, probe samples) to setups.
    """
    with probe.section() as speed:
        start = time.perf_counter()
        ctx = workload.setup(import_thermoep(), seed, workdir)
        seconds = time.perf_counter() - start
    setups.append((seconds, speed))
    return ctx


def run_unit(workload, ctx, index, probe, tracer=None) -> dict:
    inputs = workload.prepare(ctx, index)
    rec = {"unit": index, "traced": tracer is not None}
    error = None
    with tracer.patched(index) if tracer is not None else nullcontext(), probe.section() as speed:
        start = time.perf_counter()
        try:
            outputs = workload.run(ctx, inputs)
        except Exception:  # a unit that raises counts as failed; the run goes on
            error = traceback.format_exc()
        rec["wall_raw_s"] = time.perf_counter() - start
    rec["speed"] = speed
    if tracer is not None:
        rec["trace"] = tracer.take()
    if error is not None:
        rec.update(passed=False, error=error)
    else:
        result = workload.check(ctx, inputs, outputs)
        rec.update(passed=bool(result.passed), checks=result.checks,
                   fingerprint=fingerprint(result.values), notes=result.notes)
    return rec


def measure(workload, seed, seconds, workdir, probe, tracer=None):
    """Set up and run units until the next unit would end past `seconds`.

    Set-ups run in bursts of SETUP_BURST spread over the run, so they
    sample the machine at several times; each burst rebuilds the context
    the following units use.  When tracing, one more set-up runs traced
    and odd units are traced.
    Returns (units, setups, setup_trace, last context).
    """
    units, spent, setups = [], [], []
    setup_trace = None
    begin = time.perf_counter()
    next_burst = 0.0
    while True:
        if time.perf_counter() - begin >= next_burst and len(setups) < SETUP_REPS:
            for _ in range(SETUP_BURST):
                ctx = timed_setup(workload, seed, workdir, probe, setups)
            next_burst += seconds * SETUP_BURST / SETUP_REPS
        if tracer is not None and setup_trace is None:
            with tracer.patched("setup"), probe.section() as speed:
                ctx = workload.setup(ctx["tp"], seed, workdir)
            setup_trace = scaled(tracer.take(), slowdown(speed))
        index = len(units)
        start = time.perf_counter()
        traced = tracer is not None and index % 2 == 1
        units.append(run_unit(workload, ctx, index, probe, tracer if traced else None))
        spent.append(time.perf_counter() - start)
        if (len(units) >= MIN_UNITS
                and time.perf_counter() - begin + statistics.median(spent) > seconds):
            break
    while len(setups) < SETUP_REPS:
        timed_setup(workload, seed, workdir, probe, setups)
    return units, setups, setup_trace, ctx


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    scipy = sys.modules.get("scipy")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "commit": git_commit(ROOT),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]()
    args.out.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if args.trace else None
    probe = SpeedProbe()
    units, setups, setup_trace, ctx = measure(
        workload, args.seed, args.seconds, args.out, probe, tracer)
    setup_slowdowns = [slowdown(speed) for _, speed in setups]
    setup_times = [seconds / k for (seconds, _), k in zip(setups, setup_slowdowns)]
    for u in units:
        u["slowdown"] = slowdown(u.pop("speed"))
        u["wall_s"] = u["wall_raw_s"] / u["slowdown"]
        if "trace" in u:
            u["trace"] = scaled(u["trace"], u["slowdown"])

    failed = sum(not u["passed"] for u in units)
    plain = [u["wall_s"] for u in units if not u["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(units),
        "failed": failed,
        "failed_frac": failed / len(units),
        "fingerprint": units[0].get("fingerprint"),
        "setup_times": setup_times,
        "setup_raw_times": [seconds for seconds, _ in setups],
        "setup_slowdowns": setup_slowdowns,
        "environment": environment(),
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb(),
        }
        wanted = spec["end_to_end"]
    else:
        traced = [u for u in units if u["traced"]]
        unit_raw = median_raw([u["trace"] for u in traced])
        values = layer_metrics(combine(setup_trace, unit_raw))
        values["trace.overhead_s"] = (
            statistics.median(u["wall_s"] for u in traced) - statistics.median(plain))
        expected_setup, expected_unit = workload.expected_calls(ctx)
        mismatches = {"setup": count_mismatches(setup_trace, expected_setup)}
        for u in traced:
            mismatches[f"unit {u['unit']}"] = count_mismatches(u["trace"], expected_unit)
        record["count_mismatches"] = {k: v for k, v in mismatches.items() if v}
        record["counts_match"] = not record["count_mismatches"]
        record["all_layer_metrics"] = values
        record["spans_dropped"] = tracer.dropped
        wanted = spec["per_layer"]
        spans_path = args.out / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as f:
            for unit, sid, parent, name, start, end in tracer.records:
                f.write(json.dumps({"unit": unit, "id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
    for u in units:
        u.pop("trace", None)
    record["units"] = units
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    out_path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=float) + "\n")

    for u in units:
        for line in [u["error"]] if "error" in u else u["notes"]:
            print(f"unit {u['unit']}: {line}", file=sys.stderr)
    if args.trace and not record["counts_match"]:
        print(f"traced call counts differ from the config: {out_path}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(units), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
