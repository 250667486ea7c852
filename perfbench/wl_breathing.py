"""``breathing-campaign``: a trimmed breathing campaign, written then read.

Twelve cells (three ventilation patterns x two CPAP pressures x two
particle diameters, ``repro.campaign.breathing_campaign``) with a shorter
horizon and fewer ranks than the built-in campaign.  Each pass runs in a
fresh interpreter, as a ``campaign run`` would: it sets up (import,
store creation and one cold workload precompute that fills the
process-wide caches), runs the cells with ``workers = nproc`` into the
fresh ``ResultStore`` (the write pass), then re-runs the campaign against
the filled store and builds its report (the read pass, repeated).  The
seed fixes the injection seeds of every pass.

Run as a script, this module is one pass; it prints one JSON line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import harness
import layers
from checks import DigestBook, check_record
from hostspeed import HostSpeed

N_STEPS = 64
NRANKS = 16
#: read passes per pass; a fixed count, because every re-run appends to
#: the journal and opening the journal reads all of it
READ_REPEATS = 20
#: each pass sets up once; the median over passes is ``setup_s``
MIN_PASSES = 2
TIMEOUT_S = 150.0
#: host-speed probes before each pass and after the last (taken by the
#: idle parent: inside a pass they read the tail of the pass's own work)
PASS_PROBES = 5


def _base_spec(tiny: bool):
    from repro.app import WorkloadSpec

    size = (dict(generations=2, points_per_ring=6, n_steps=16) if tiny
            else dict(n_steps=N_STEPS))
    return WorkloadSpec(inlet_waveform="ventilator", injection_phase="inhale",
                        adaptive="global",
                        injection_interval=size["n_steps"] // 4, **size)


def _journal(store_root: str) -> list:
    with open(os.path.join(store_root, "journal.jsonl")) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_pass_timing(events) -> tuple:
    """(per-cell service seconds, mean queue wait seconds) of the first
    campaign in the journal: a cell is served from its lease grant to its
    ``job_done``; it waits from ``campaign_begin`` to its lease grant."""
    begin = next(e["ts"] for e in events if e["event"] == "campaign_begin")
    granted = {}
    service = []
    for e in events:
        if e["event"] == "lease_granted":
            granted[e["fingerprint"]] = e["ts"]
        elif e["event"] == "job_done" and e["fingerprint"] in granted:
            service.append(e["ts"] - granted[e["fingerprint"]])
        elif e["event"] == "campaign_end":
            break
    waits = [ts - begin for ts in granted.values()]
    return service, (sum(waits) / len(waits) if waits else 0.0)


def one_pass(injection_seed: int, warm_seed: int, traced: bool,
             tiny: bool) -> dict:
    """Set up, write, read; returns timings, digests and check results."""
    t0 = time.perf_counter()
    harness.import_program()
    import repro.campaign as campaign_mod
    from repro.campaign import ResultStore, breathing_campaign, run_campaign
    from repro.campaign.runner import warm_workload
    import_s = time.perf_counter() - t0

    base = _base_spec(tiny)
    root = os.path.join(harness.WORK_DIR, f"store-{os.getpid()}")
    store = ResultStore(root)
    warm_workload(dataclasses.replace(base, injection_seed=warm_seed))
    setup_s = time.perf_counter() - t0

    tracer = None
    if traced:
        import spans
        tracer = spans.install(spans.Tracer())
        spans.wrap_worker_dump(tracer, harness.WORK_DIR)
    spec = dataclasses.replace(base, injection_seed=injection_seed)
    campaign = breathing_campaign(spec=spec, total=4 if tiny else NRANKS,
                                  name="perfbench-breathing")
    njobs = len(campaign.expand())
    workers = harness.nproc()
    checks = []

    t0 = time.perf_counter()
    run = run_campaign(campaign, store=store, workers=workers)
    write_s = time.perf_counter() - t0
    problems = []
    if not run.ok or run.executed != njobs:
        problems.append(f"write pass stats {run.stats()}")
    for record in run.records():
        problems += check_record(record)
    checks.append(["write pass", problems])
    service, queue_wait = _write_pass_timing(_journal(root))

    if traced:
        gets_before = tracer.counts["campaign.store_gets"]
        hits_before = tracer.counts["campaign.store_hits"]
    reads = []
    for _ in range(READ_REPEATS):
        t0 = time.perf_counter()
        cached = run_campaign(campaign, store=store, workers=workers)
        report = campaign_mod.build_report(campaign, store)
        reads.append(time.perf_counter() - t0)
        problems = []
        if cached.cached != njobs or cached.executed != 0:
            problems.append(f"read pass stats {cached.stats()}")
        if cached.digest_map() != run.digest_map():
            problems.append("read pass digests differ from the write pass")
        if report.pending or len(report.to_rows()) != njobs:
            problems.append(f"report has {len(report.to_rows())} rows, "
                            f"{len(report.pending)} pending")
        checks.append(["read pass", problems])

    out = {"import_s": import_s, "setup_s": setup_s, "write_s": write_s,
           "cells": njobs, "reads": reads, "service": service,
           "workers": workers, "digests": run.digest_map(),
           "checks": checks}
    if traced:
        take = spans.merge([tracer.take(),
                            spans.collect_worker_dumps(harness.WORK_DIR)])
        counts = take["counts"]
        supervision = run.stats().get("supervision", {})
        for key in ("lease_grants", "heartbeats", "retries",
                    "worker_losses"):
            counts[f"campaign.{key}"] = supervision.get(key, 0)
        counts["campaign.queue_wait_s"] = queue_wait
        counts["campaign.journal_fsyncs"] = len(_journal(root))
        counts["campaign.cached_gets"] = (
            counts.get("campaign.store_gets", 0) - gets_before)
        counts["campaign.cached_hits"] = (
            counts.get("campaign.store_hits", 0) - hits_before)
        counts["import.repro_s"] = import_s
        out["take"] = take
        tracer.uninstall()
    shutil.rmtree(root)
    return out


def _spawn_pass(injection_seed: int, warm_seed: int, traced: bool,
                tiny: bool):
    """Run one pass in a fresh interpreter; returns (result or None,
    problems)."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--injection-seed", str(injection_seed),
           "--warm-seed", str(warm_seed), "--trace", str(int(traced))]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(
            cmd, cwd=harness.ROOT, capture_output=True, text=True,
            timeout=TIMEOUT_S,
            env=dict(os.environ, PERFBENCH_WORK_DIR=harness.WORK_DIR))
    except subprocess.TimeoutExpired:
        return None, ["pass timed out"]
    if proc.returncode != 0:
        return None, [f"pass exit code {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}"]
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), []
    except (json.JSONDecodeError, IndexError) as exc:
        return None, [f"unparsable pass output: {exc}"]


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    rng = harness.rng_for("breathing-campaign", seed)
    tally = harness.Tally()
    book = DigestBook()
    seeds: list = []

    host = HostSpeed()

    def do_pass(injection_seed: int, traced: bool):
        if not traced:
            host.sample(PASS_PROBES)
        warm_seed = rng.randrange(1, 2**30)
        seeds.append([injection_seed, warm_seed])
        result, problems = _spawn_pass(injection_seed, warm_seed, traced,
                                       tiny)
        if result is None:
            tally.record("pass", problems)
            return None
        for fp, digest in result["digests"].items():
            problems += book.check((injection_seed, fp), digest)
        tally.record("digests", problems)
        for what, problems in result["checks"]:
            tally.record(what, problems)
        return result

    load_before = os.getloadavg()
    passes = []
    t_start = time.perf_counter()
    if trace:
        # the same inputs untraced, then traced: digests must agree and
        # the difference is the tracing overhead
        injection_seed = rng.randrange(1, 2**31)
        plain = do_pass(injection_seed, traced=False)
        traced_pass = do_pass(injection_seed, traced=True)
        passes = [p for p in (plain, traced_pass) if p]
    else:
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - t_start < seconds):
            result = do_pass(rng.randrange(1, 2**31), traced=False)
            if result is None:
                break
            passes.append(result)
        host.sample(PASS_PROBES)
    load_after = os.getloadavg()

    inputs = {"workload": "breathing-campaign", "seed": seed,
              "n_steps": N_STEPS, "nranks": NRANKS, "seeds": seeds}
    info = {
        "workload": "breathing-campaign", "seed": seed,
        "inputs_sha256": harness.inputs_digest(inputs),
        "holdout_seed": harness.HOLDOUT_SEED, "injection_seeds": seeds,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "passes": len(passes),
        "workers": passes[0]["workers"] if passes else None,
        "setup_samples": [p["setup_s"] for p in passes],
        "write_samples": [p["write_s"] for p in passes],
    }
    if trace:
        if len(passes) < 2:
            return tally, {}, info
        plain, traced_pass = passes
        overhead = (traced_pass["write_s"] + sum(traced_pass["reads"])
                    - plain["write_s"] - sum(plain["reads"]))
        ops = [{"take": traced_pass["take"], "dlb": False}]
        info.update(traced_ops=len(ops), spans=layers.span_totals(ops))
        return tally, layers.fold(ops, overhead), info
    if not passes:
        return tally, {}, info
    info["host_speed"] = host.info()
    reads = [r for p in passes for r in p["reads"]]
    service = [s for p in passes for s in p["service"]]
    tail, pct = harness.tail(service)
    info.update(cell_service_samples=len(service),
                cell_service_s=harness.median(service),
                cell_service_tail_s=tail, tail_percentile=pct,
                read_samples=len(reads))
    # an operation is one write pass with its read passes; means over the
    # passes, which hold the same cells and differ only in their seeds
    raw = {"setup_s": harness.median([p["setup_s"] for p in passes]),
           "op_s": sum(p["write_s"] + sum(p["reads"]) for p in passes)
           / len(passes),
           "ops_per_s": (sum(p["cells"] for p in passes)
                         / sum(p["write_s"] for p in passes))}
    info["workload_metrics"] = {
        "campaign_cells_per_s": harness.metric(raw["ops_per_s"], "1/s"),
        "campaign_cached_s": harness.metric(harness.median(reads), "s"),
        "failed_frac": harness.metric(tally.failed_frac, "ratio"),
    }
    factor = host.factor()
    info["normalised"] = {"setup_s": raw["setup_s"] * factor,
                          "op_s": raw["op_s"] * factor,
                          "ops_per_s": raw["ops_per_s"] / factor}
    metrics = {
        "setup_s": harness.metric(raw["setup_s"], "s"),
        "op_s": harness.metric(raw["op_s"], "s"),
        "ops_per_s": harness.metric(raw["ops_per_s"], "1/s"),
        "peak_rss_mb": harness.metric(harness.peak_rss_mb(), "MB"),
    }
    return tally, metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench breathing pass")
    parser.add_argument("--injection-seed", type=int, required=True)
    parser.add_argument("--warm-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    os.makedirs(harness.WORK_DIR, exist_ok=True)
    result = one_pass(args.injection_seed, args.warm_seed, bool(args.trace),
                      args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
