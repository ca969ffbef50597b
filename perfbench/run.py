#!/usr/bin/env python3
"""The repository benchmark: census workloads timed end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig30-select --seed 1 --seconds 15 --trace 0

``--trace 0`` is a timed run: it prints every end-to-end metric.  ``--trace
1`` is the separate traced run: it prints every per-layer metric.  Both
check every answer against unplanned evaluation.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")

#: Variables that change what the program does; timed runs unset them so
#: the program's defaults apply (row backend, no plan verification, no
#: slow-query threshold override, no cost profile, no tracing at import).
UNSET = (
    "REPRO_VERIFY_PLANS",
    "REPRO_BACKEND",
    "REPRO_SLOW_QUERY_MS",
    "REPRO_SHARD_WORKERS",
    "REPRO_COST_PROFILE",
    "REPRO_TRACE",
)

#: String hashing is randomised per process unless pinned; set and dict
#: orders then differ between runs, and so could the counts.
HASH_SEED = "0"

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3

WORKLOADS = ("fig30-select", "join-chain", "service-mixed")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Unset the program's switches; re-execute once with a pinned hash seed."""
    for name in UNSET:
        os.environ.pop(name, None)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)


def environment_line(sessions: int) -> str:
    unset = " ".join(f"{name}=<unset>" for name in UNSET)
    return (
        f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"PYTHONHASHSEED={os.environ['PYTHONHASHSEED']} {unset}, backend row (default), "
        f"no worker pool, {sessions} client(s) in one process"
    )


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, SOURCE)

    import common
    import select_join
    import service_mixed

    module = service_mixed if args.workload == "service-mixed" else select_join
    if args.trace:
        result = module.run_traced(args.workload, args.seed, args.seconds)
    else:
        result = module.run_timed(args.workload, args.seed, args.seconds, SETUPS)
    if multiprocessing.active_children():
        print("perfbench: a worker process was left running", file=sys.stderr)
        return 3

    sessions = service_mixed.sessions() if module is service_mixed else 1
    print(environment_line(sessions))
    raw = result.raw_latencies
    print(
        f"workload {args.workload}, seed {args.seed}: {len(raw)} latency samples; "
        f"unscaled p50 {common.percentile(raw, 0.5) * 1e3:.2f} ms, "
        f"p90 {common.percentile(raw, 0.9) * 1e3:.2f} ms; speed probe median "
        f"{common.median(result.probe_seconds) * 1e3:.3f} ms "
        f"(reference {common.REFERENCE_PROBE_SECONDS * 1e3:.3f} ms)"
    )
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if result.p99_ms is not None:
        print(f"  latency_p99_ms = {result.p99_ms:.6g} ms (printed only, see perfbench/README.md)")
    print(f"  failed_frac = {result.failed / result.attempted:.6g} "
          f"({result.failed} of {result.attempted} requests)")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
