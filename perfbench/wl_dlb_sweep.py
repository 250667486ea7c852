"""``dlb-sweep``: the paper's Fig. 8 and Fig. 11 matrices on warm workloads.

Fig. 8 is MareNostrum4 under the small particle load and Fig. 11 Thunder
under the large one; each is sync plus the coupled splits, DLB off and on
(``repro.campaign.dlb_figure_campaign``), run in one process through
``run_cfpd``.  The numeric precompute (mesh, operators, solves, SGS,
trajectories, decompositions, particle histograms) is set-up; the first
timed pass still builds the task graphs.  The seed fixes the injection
seed of both workloads and the cell order of every pass.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time

import harness
import layers
from checks import DigestBook, check_record
from hostspeed import HostSpeed

#: full precomputes per run (each takes seconds; ``setup_s`` is their
#: median)
SETUP_REPEATS = 2
#: the first pass builds the task graphs, the second replays warm; a fixed
#: count keeps that mix the same in every run
PASSES = 2


def _matrices(seed: int, tiny: bool):
    """[(figure, jobs)] of this seed's inputs."""
    from repro.app import LARGE_PARTICLE_RATIO, SMALL_PARTICLE_RATIO, \
        WorkloadSpec
    from repro.campaign import dlb_figure_campaign

    injection_seed = harness.rng_for("dlb-sweep", seed).randrange(1, 2**31)
    if tiny:
        base = WorkloadSpec(generations=2, points_per_ring=6, n_steps=2,
                            injection_seed=injection_seed)
        shapes = (("fig8", "thunder", SMALL_PARTICLE_RATIO, 8, (4,)),
                  ("fig11", "thunder", LARGE_PARTICLE_RATIO, 8, (4,)))
    else:
        base = WorkloadSpec(injection_seed=injection_seed)
        shapes = (("fig8", "marenostrum4", SMALL_PARTICLE_RATIO, None, None),
                  ("fig11", "thunder", LARGE_PARTICLE_RATIO, None, None))
    out = []
    for figure, cluster, ratio, total, splits in shapes:
        spec = dataclasses.replace(base, particle_ratio=ratio)
        campaign = dlb_figure_campaign(cluster, spec, total=total,
                                       splits=splits, name=figure)
        out.append((figure, campaign.expand()))
    return injection_seed, out


def _precompute(spec, configs):
    """A fresh workload with every numeric precompute the matrix needs."""
    from repro.app import Workload

    wl = Workload(spec)
    wl.operators()
    wl.solve_fluid_step()
    wl.sgs_history()
    wl.trajectory()
    for c in configs:
        fluid_n = c.nranks if c.mode == "sync" else c.fluid_ranks
        particle_n = c.nranks if c.mode == "sync" else c.nranks - c.fluid_ranks
        wl.decomposition(fluid_n, subdomains_per_rank=c.subdomains_per_rank,
                         method=c.partition_method,
                         min_shared_nodes=c.subdomain_min_shared)
        wl.particle_histograms(particle_n, method=c.partition_method)
    return wl


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    """Two passes over the matrix (``seconds`` is not used: the passes
    are the unit of work)."""
    start = time.perf_counter()
    harness.import_program()
    import repro.app
    import repro.campaign
    import_s = time.perf_counter() - start

    injection_seed, matrices = _matrices(seed, tiny)
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        t0 = time.perf_counter()
        workloads = {figure: _precompute(jobs[0].spec,
                                         [j.config for j in jobs])
                     for figure, jobs in matrices}
        setups.append(time.perf_counter() - t0)
    cells = [(figure, job, workloads[figure])
             for figure, jobs in matrices for job in jobs]
    rng = harness.rng_for("dlb-sweep-order", seed)
    inputs = {"workload": "dlb-sweep", "seed": seed,
              "injection_seed": injection_seed,
              "cells": [[f, j.fingerprint] for f, j, _ in cells]}

    tally = harness.Tally()
    book = DigestBook()
    tracer = None
    if trace:
        import spans
        tracer = spans.install(spans.Tracer())

    def one_pass(traced: bool) -> list:
        order = list(cells)
        rng.shuffle(order)
        out = []
        for figure, job, wl in order:
            config = job.config
            if traced:
                config = dataclasses.replace(config, collect_mpi_trace=True)
                tracer.take()
            elif not trace:
                host.sample()
            t0 = time.perf_counter()
            try:
                result = repro.app.run_cfpd(config, workload=wl)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                tally.record(job.config.label(), [f"raised {exc!r}"])
                continue
            secs = time.perf_counter() - t0
            take = tracer.take() if traced else None
            record = repro.campaign.job_record(job, result)
            problems = check_record(record)
            key = (figure, job.fingerprint)
            problems += book.check(key, record["simulated_digest"])
            if config.dlb:
                s = result.dlb_stats
                problems += book.check(("dlb",) + key,
                                       f"{s.lend_events}/{s.borrow_events}")
            tally.record(f"{figure} {job.config.label()}", problems)
            out.append({"dlb": config.dlb, "seconds": secs, "take": take})
        return out

    # the precompute is long-lived: keep the collector from rescanning it
    # at moments that depend on the cell order
    gc.collect()
    gc.freeze()
    load_before = os.getloadavg()
    runs: list = []
    passes = 0
    probed_before = host.spent_s
    t_start = time.perf_counter()
    if trace:
        first = one_pass(traced=True)          # builds the task graphs
        plain = one_pass(traced=False)
        warm = one_pass(traced=True)
        passes = 3
        runs = plain
    else:
        for passes in range(1, PASSES + 1):
            runs += one_pass(traced=False)
        host.sample()
    elapsed = (time.perf_counter() - t_start
               - (host.spent_s - probed_before))
    load_after = os.getloadavg()
    gc.unfreeze()
    if tracer is not None:
        tracer.uninstall()

    times = [r["seconds"] for r in runs]
    static = [r["seconds"] for r in runs if not r["dlb"]]
    dlb = [r["seconds"] for r in runs if r["dlb"]]
    info = {
        "workload": "dlb-sweep", "seed": seed,
        "inputs_sha256": harness.inputs_digest(inputs),
        "holdout_seed": harness.HOLDOUT_SEED,
        "injection_seed": injection_seed,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "passes": passes, "samples": len(times),
        "import_s": import_s, "setup_samples": setups,
        "host_speed": host.info(),
    }
    if not times:
        return tally, {}, info
    if trace:
        ops = [{"take": r["take"], "dlb": r["dlb"]} for r in first + warm]
        for op in ops:
            op["take"]["counts"]["import.repro_s"] = import_s
        info.update(traced_ops=len(ops), spans=layers.span_totals(ops))
        overhead = (sum(r["seconds"] for r in warm)
                    - sum(r["seconds"] for r in plain)) / max(1, len(warm))
        return tally, layers.fold(ops, overhead), info
    tail, pct = harness.tail(times)
    info.update(run_tail_s=tail, tail_percentile=pct)
    info["workload_metrics"] = {
        "sweep_static_run_s": harness.metric(sum(static) / len(static), "s"),
        "sweep_dlb_run_s": harness.metric(sum(dlb) / len(dlb), "s"),
        "sweep_runs_per_s": harness.metric(len(times) / elapsed, "1/s"),
        "failed_frac": harness.metric(tally.failed_frac, "ratio"),
    }
    setup_s = import_s + harness.median(setups)
    op_s = sum(static) / len(static)
    info["raw"] = {"setup_s": setup_s, "op_s": op_s,
                   "ops_per_s": len(times) / elapsed}
    factor = host.factor()
    metrics = {
        "setup_s": harness.metric(setup_s * factor, "s"),
        "op_s": harness.metric(op_s * factor, "s"),
        "ops_per_s": harness.metric(len(times) / elapsed / factor, "1/s"),
        "peak_rss_mb": harness.metric(harness.peak_rss_mb(), "MB"),
    }
    return tally, metrics, info
