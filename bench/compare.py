"""Compare two sets of benchmark records, e.g. a parent commit and a change.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records bench/run.py writes (--out).  For
every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles over the untraced runs, the pairs won by the
new side (runs paired by seed; ties count for neither), and a verdict:

- "worse than the bound": the new median is worse than the base median
  by more than the metric's bound (a share of the base median);
- "unresolved": otherwise, when the base runs' own spread (quartile
  distance over median) exceeds the bound, unless every new run beats
  every base run;
- "no worse": otherwise.

A gain is claimed only when the new side wins at least nine tenths of the
pairs and the medians differ by more than the base quartile distance.
Seeds whose output fingerprints differ between the sides are listed, as
are the medians of the per-layer metrics when both sides have traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: record}} from every record in directory."""
    out: dict = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    losses = sum(sign * (n - b) > 0 for b, n in pairs)
    worse_by = sign * (nm - bm) / abs(bm) if bm else 0.0
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    all_better = max(new) < min(base) if lower_is_better else min(new) > max(base)
    if worse_by > bound:
        text = "worse than the bound"
    elif spread > bound and not all_better:
        text = "unresolved"
    else:
        text = "no worse"
    gain = bool(pairs) and wins >= 0.9 * len(pairs) and sign * (bm - nm) > (b3 - b1)
    return {"base": (b1, bm, b3), "new": (n1, nm, n3), "wins": wins, "losses": losses,
            "pairs": len(pairs), "worse_by": worse_by, "spread": spread,
            "verdict": text, "gain": gain}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    workloads = [w["name"] for w in spec["workloads"]]
    regressions = 0
    for w in workloads:
        b_runs, n_runs = base.get((w, 0), {}), new.get((w, 0), {})
        if not b_runs or not n_runs:
            print(f"{w}: no untraced runs on {'base' if not b_runs else 'new'} side")
            continue
        seeds = sorted(set(b_runs) & set(n_runs))
        print(f"{w}: {len(b_runs)} base runs, {len(n_runs)} new runs, {len(seeds)} paired by seed")
        for m in spec["end_to_end"]:
            name = m["name"]
            lower = m["better"] == "lower"
            bv = [r["metrics"][name]["value"] for r in b_runs.values()]
            nv = [r["metrics"][name]["value"] for r in n_runs.values()]
            pairs = [(b_runs[s]["metrics"][name]["value"], n_runs[s]["metrics"][name]["value"])
                     for s in seeds]
            v = verdict(bv, nv, pairs, m["bound"], lower)
            regressions += v["verdict"] == "worse than the bound"
            print(f"  {name:<12} base {_q(v['base'])}  new {_q(v['new'])} {m['unit']:<5}"
                  f" won {v['wins']}/{v['pairs']}  {v['worse_by']:+.1%} vs bound {m['bound']:.0%}"
                  f" (base spread {v['spread']:.1%}): {v['verdict']}"
                  + ("; gain" if v["gain"] else ""))
        for label, runs in (("base", b_runs), ("new", n_runs)):
            failed = {s: r["failed"] for s, r in runs.items() if r["failed"]}
            if failed:
                print(f"  {label} runs with failed units, by seed: {failed}")
        differ = [s for s in seeds if b_runs[s]["fingerprint"] != n_runs[s]["fingerprint"]]
        print(f"  fingerprints: {'differ on seeds ' + str(differ) if differ else 'identical'}"
              f" on {len(seeds)} paired seeds")
        b_tr, n_tr = base.get((w, 1), {}), new.get((w, 1), {})
        if b_tr and n_tr:
            print("  per-layer medians (base -> new):")
            for m in spec["per_layer"]:
                name = m["name"]
                bm = statistics.median(r["metrics"][name]["value"] for r in b_tr.values())
                nm = statistics.median(r["metrics"][name]["value"] for r in n_tr.values())
                if bm or nm:
                    print(f"    {name:<44} {bm:>14.6g} -> {nm:<14.6g} {m['unit']}")
    return 1 if regressions else 0


def _q(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
