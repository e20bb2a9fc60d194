#!/usr/bin/env python3
"""Run every workload on ten seeds, twice, and write perfbench/baseline.json.

    python3 perfbench/baseline.py

Each set runs every workload on seeds 1 to 10 with BENCHMARK.json's
run_seconds; the second set starts when the first has ended.  For each
set, workload and end-to-end metric it records the values, the median,
the quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median.  It then compares the two
sets: ``median_shift`` is how far the second median lies from the first,
and ``paired_shift`` the median over seeds of how far a seed's second
value lies from its first, both as a share of the first.  Both sets run
the same seeds, so the paired figure leaves out the differences in work
between seeds.  ``within_bound`` says whether both shifts stay within the
metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = tuple(range(1, 11))
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summarize(results: list[dict], spec: dict) -> dict:
    metrics = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        metrics[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / median, "values": values}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def compare(first: dict, second: dict, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        a, b = first["metrics"][metric["name"]], second["metrics"][metric["name"]]
        median_shift = b["median"] / a["median"] - 1.0
        paired_shift = statistics.median(y / x - 1.0 for x, y in zip(a["values"], b["values"]))
        out[metric["name"]] = {
            "unit": metric["unit"], "bound": metric["bound"],
            "median_shift": median_shift, "paired_shift": paired_shift,
            "spreads": [a["spread"], b["spread"]],
            "within_bound": max(abs(median_shift), abs(paired_shift)) <= metric["bound"]}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sets, env = [], None
    for set_index in range(SETS):
        summary = {}
        for workload in workloads:
            results = []
            for seed in SEEDS:
                result, env = one_run(workload, seed, spec["run_seconds"])
                results.append(result)
                print(f"set {set_index + 1}", workload, seed, json.dumps(result), flush=True)
            summary[workload] = summarize(results, spec)
        sets.append(summary)
    comparison = {w: compare(sets[0][w], sets[1][w], spec) for w in workloads}
    for workload, metrics in comparison.items():
        for name, c in metrics.items():
            print(f"{workload} {name}: median shift {c['median_shift']:+.3f}, paired shift "
                  f"{c['paired_shift']:+.3f}, spreads {c['spreads'][0]:.3f} "
                  f"{c['spreads'][1]:.3f} (bound {c['bound']})", flush=True)
    env = {k: v for k, v in env.items() if k not in ("workload", "seed")}
    OUT.write_text(json.dumps({
        "seeds": list(SEEDS), "environment": env, "known_failures": "known_failures.json",
        "sets": sets, "comparison": comparison}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
