"""A/A evidence: two interleaved sets of runs of identical code.

    python3 perfbench/aa.py --out perfbench/AA.json

Workload by workload, it runs ``run.py`` twice per seed 1-10, once per
set, alternating which set goes first, so both sets see the same host
drift; each run lasts BENCHMARK.json's ``run_seconds``. It then reports,
per workload and end-to-end metric, each set's values, median, quartiles
and spread (interquartile distance over the median, across seeds), the
shift between the two set medians, and the paired noise: the upper
quartile of the per-seed differences between the sets, over set A's
value. The output file is rewritten after every run.

A bound is three times the worst noise (shift or paired noise) or the
worst spread seen on any workload, within [0.05, 0.25], so every spread
seen is at most a third of its bound. That holds for a count too: it
repeats exactly per seed and spreads only because the seeds' inputs
differ, and another set of ten seeds can spread about twice as far.
``setup_s`` gets the largest bound, 0.25. The host's nproc and Python
version are recorded beside the bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-cold", "daemon-edit", "suite-batch")
SEEDS = range(1, 11)


def run_seconds() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        return json.load(handle)["run_seconds"]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.split()[:1] == ["host.calib_ms"]:
            result["calib_ms"] = float(line.split()[1])
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "values": values, "median": middle, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / middle if middle else 0.0,
    }


def paired_noise(a, b) -> float:
    """Upper quartile of |b_i - a_i| / a_i over the seeds."""
    diffs = [abs(y - x) / x if x else 0.0 for x, y in zip(a, b)]
    return statistics.quantiles(diffs, n=4)[2]


def evidence(runs: dict, seconds: int) -> dict:
    workloads = {}
    noise, spread = {}, {}
    for workload, sets in runs.items():
        if min(len(sets["A"]), len(sets["B"])) < 2:
            continue
        rows = {}
        for metric in sets["A"][0]["metrics"]:
            a_values = [r["metrics"][metric]["value"] for r in sets["A"]]
            b_values = [r["metrics"][metric]["value"] for r in sets["B"]]
            a, b = summarize(a_values), summarize(b_values)
            paired = paired_noise(a_values, b_values)
            shift = (abs(b["median"] - a["median"]) / a["median"]
                     if a["median"] else 0.0)
            rows[metric] = {"A": a, "B": b, "shift": shift,
                            "paired_noise": paired}
            noise[metric] = max(noise.get(metric, 0.0), shift, paired)
            spread[metric] = max(spread.get(metric, 0.0), a["spread"],
                                 b["spread"])
        workloads[workload] = {
            "runs_per_set": len(sets["A"]),
            "host_calib_ms": {
                label: [r.get("calib_ms") for r in runs_of]
                for label, runs_of in sets.items()
            },
            "failed_ops": sum(r["failed"] for s in sets.values() for r in s),
            "metrics": rows,
        }
    bounds = {}
    for metric in noise:
        if metric == "setup_s":
            bounds[metric] = 0.25
            continue
        seen = 3 * max(noise[metric], spread[metric])
        bounds[metric] = min(0.25, max(0.05, math.ceil(100 * seen) / 100))
    return {
        "host": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "seconds_per_run": seconds,
        },
        "worst_noise": noise,
        "worst_spread": spread,
        "bounds": bounds,
        "workloads": workloads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = run_seconds()
    runs = {w: {"A": [], "B": []} for w in WORKLOADS}
    for workload in WORKLOADS:
        for position, seed in enumerate(SEEDS):
            order = ("A", "B") if position % 2 == 0 else ("B", "A")
            for label in order:
                started = time.monotonic()
                runs[workload][label].append(one_run(workload, seed, seconds))
                print(f"{workload} seed {seed} set {label}: "
                      f"{time.monotonic() - started:.1f}s", file=sys.stderr)
                with open(args.out, "w", encoding="utf-8") as handle:
                    json.dump(evidence(runs, seconds), handle, indent=1)
                    handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
