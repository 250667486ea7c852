"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. A tiny-size pass of every workload, untraced and traced: exit code 0,
   a well-formed result line holding exactly the metrics BENCHMARK.json
   names for the mode, and no failed operation.
2. Tampered records (flipped digest, broken conservation, POP out of
   range, wrong schema) must each be counted as a failed operation.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   command must fail without printing a result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import harness
from checks import DigestBook, check_record

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-cli", "dlb-sweep", "breathing-campaign")


def _spec():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def tiny_passes(failures: list) -> None:
    spec = _spec()
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(harness.ROOT, workload, trace)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode} "
                                f"{proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: {result['failed']} failed")
            if set(result["metrics"]) != wanted[trace]:
                failures.append(f"{where}: metrics differ from "
                                f"BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ wanted[trace])}")
            print(f"ok   {where}: {result['attempted']} operations")


def _valid_record() -> dict:
    harness.import_program()
    from repro.app import RunConfig, WorkloadSpec
    from repro.campaign import Job, run_job

    return run_job(Job(index=0, campaign="smoke",
                       config=RunConfig(cluster="thunder", num_nodes=1,
                                        nranks=4),
                       spec=WorkloadSpec(generations=2, points_per_ring=6,
                                         n_steps=2)))


def tampered_records(failures: list) -> None:
    record = _valid_record()
    tally = harness.Tally()
    book = DigestBook()
    tally.record("valid", check_record(record)
                 + book.check("cell", record["simulated_digest"]))
    if tally.failed:
        failures.append(f"a valid record failed: {tally.problems}")
        return

    flipped = copy.deepcopy(record)
    digest = flipped["simulated_digest"]
    flipped["simulated_digest"] = ("0" if digest[0] != "0" else "1") \
        + digest[1:]
    broken = copy.deepcopy(record)
    broken["metrics"]["deposition"]["1"] += 1
    pop = copy.deepcopy(record)
    pop["metrics"]["pop"]["load_balance"] = 1.5
    schema = copy.deepcopy(record)
    schema["schema"] = "repro-campaign-job-v0"
    tampered = {"flipped digest": flipped, "broken conservation": broken,
                "POP out of range": pop, "wrong schema": schema}
    for what, bad in tampered.items():
        counted = not tally.record(
            what, check_record(bad) + book.check("cell",
                                                 bad["simulated_digest"]))
        if not counted:
            failures.append(f"tampered record ({what}) was not counted as "
                            f"failed")
        else:
            print(f"ok   tampered record ({what}) counted as failed")
    if tally.failed != len(tampered) or tally.attempted != len(tampered) + 1:
        failures.append(f"tally {tally.attempted} attempted, "
                        f"{tally.failed} failed")


def bare_directory(failures: list) -> None:
    bare = os.path.join(harness.ROOT, ".perfbench-smoke")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "dlb-sweep", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("bare directory: expected a non-zero exit and "
                            f"no result, got {proc.returncode} "
                            f"{proc.stdout[-200:]!r}")
        else:
            print(f"ok   bare directory exits {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list = []
    tampered_records(failures)
    bare_directory(failures)
    tiny_passes(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
