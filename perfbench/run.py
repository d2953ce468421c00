"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout: it drives that checkout's
``src/repro``. ``--seconds`` fixes how many ops the run makes (a
nominal rate per workload), never a time box, so op counts repeat
exactly for a seed. Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of the traced run). Exits 2 without a result when the
checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys

import cli_cold
import common
import daemon_edit
import suite_batch

WORKLOADS = {
    module.NAME: module for module in (cli_cold, daemon_edit, suite_batch)
}

#: End-to-end metrics every workload reports, with units.
E2E_UNITS = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "programs_per_s": "1/s",
    "substituted_refs": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: Reported on stdout but not in the result object: error_rate is 0 on
#: a healthy program (the object's failed/attempted carry it),
#: replay_p50_ms exists on daemon-edit only, and host.calib_ms shows
#: how fast the host ran.
REPORTED_ONLY = ("error_rate", "replay_p50_ms", "host.calib_ms")


def measure(workload: str, seed: int, seconds: int, traced: bool):
    """One run of ``workload``: its Outcome and the result object."""
    with common.work_dir(workload) as work:
        outcome = WORKLOADS[workload].run(seed, seconds, traced, work)
    outcome.set("host.calib_ms", common.median(outcome.calib_ms), "ms")
    if traced:
        names = common.PER_LAYER_UNITS
        for name, unit in names.items():
            if name not in outcome.metrics:
                outcome.set(name, 0.0, unit)  # layer not exercised here
    else:
        names = E2E_UNITS
    metrics = {
        name: {"value": outcome.metrics[name][0],
               "unit": outcome.metrics[name][1]}
        for name in names
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return outcome, result


def report(workload: str, args, outcome, metrics) -> None:
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={common.NPROC} "
          f"python={platform.python_version()}")
    for note in outcome.notes:
        print(f"  {note}")
    shown = list(metrics) + [
        name for name in REPORTED_ONLY
        if name in outcome.metrics and name not in metrics
    ]
    for name in shown:
        value, unit = outcome.metrics[name]
        print(f"  {name:<28} {value:>14.4f} {unit}")
    for failure in outcome.failures:
        print(f"  FAILED {failure}")
    if outcome.traced is not None:
        path = outcome.traced.write(workload, args.seed)
        print(f"  trace: {os.path.relpath(path, common.ROOT)} "
              f"(validate_chrome_trace: ok)")
        print("per-layer self time over the traced run:")
        print(outcome.traced.self_time_table())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_available():
        print(f"perfbench: no program to measure under {common.SRC}",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so a stopped run still kills its
    # daemon and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(common.ROOT)
    common.import_program()
    outcome, result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    report(args.workload, args, outcome, result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
