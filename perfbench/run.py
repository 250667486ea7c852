"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``cold-cli``, ``dlb-sweep``, ``breathing-campaign`` (see
README.md beside this file).  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` wraps the program's entry
points and reports the per-layer metrics.  The last stdout line is the
result object; the line before it carries the seed, the digest of the
generated inputs, the environment and the workload's named metrics.
Exits non-zero when an operation fails or fails an output check, and
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

import harness

WORKLOADS = ("cold-cli", "dlb-sweep", "breathing-campaign")


def _module(workload: str):
    if workload == "cold-cli":
        import wl_cold_cli as module
    elif workload == "dlb-sweep":
        import wl_dlb_sweep as module
    else:
        import wl_breathing as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not for measurements)")
    args = parser.parse_args(argv)
    try:
        harness.require_program()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = harness.environment()
    started = time.time()
    try:
        tally, metrics, info = _module(args.workload).run(
            args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    finally:
        shutil.rmtree(harness.WORK_DIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(harness.WORK_DIR))
        except OSError:
            pass                 # another run still uses it
    info.update(env=env, trace=args.trace, tiny=args.tiny,
                wall_s=time.time() - started)
    if not metrics:
        tally.record("workload", ["no operation completed"])
    return harness.emit(tally, metrics, info)


if __name__ == "__main__":
    sys.exit(main())
