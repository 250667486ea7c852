"""``cold-cli``: fresh ``python -m repro run --json`` invocations.

One client in a closed loop: each invocation is timed from spawn until
its record has been parsed and checked, and the next one starts only
then.  The seed fixes the draw order from a pool of DLB-off
configurations, drawn as shuffled rounds so that every full round holds
each configuration once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import harness
import layers
import hostspeed
from checks import DigestBook, check_record

#: The configurations users run cold (all DLB-off).
POOL = (
    ("default-sync", []),
    ("coupled-thunder-96-64", ["--mode", "coupled", "--nranks", "96",
                               "--fluid-ranks", "64"]),
    ("large", ["--large"]),
    ("gen4-16-ranks", ["--generations", "4", "--nranks", "16"]),
)

#: The same shapes at smoke-test size.
TINY_POOL = (
    ("tiny-sync", ["--generations", "2", "--nranks", "4", "--steps", "2"]),
    ("tiny-coupled", ["--generations", "2", "--nranks", "4", "--steps", "2",
                      "--mode", "coupled", "--fluid-ranks", "2"]),
)

SETUP_REPEATS = 3
TIMEOUT_S = 120.0
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "launcher.py")


def draw(seed: int, n: int, pool) -> list:
    """The first ``n`` configuration names of this seed's draw order."""
    rng = harness.rng_for("cold-cli", seed)
    names = [name for name, _ in pool]
    order: list = []
    while len(order) < n:
        round_ = list(names)
        rng.shuffle(round_)
        order.extend(round_)
    return order[:n]


def _invoke(argv, traced: bool, spans_path=None) -> tuple:
    """Run one invocation; returns (seconds, record or None, problems,
    launcher report or None)."""
    if traced:
        cmd = [sys.executable, LAUNCHER, spans_path, "run", "--json", *argv]
    else:
        cmd = [sys.executable, "-m", "repro", "run", "--json", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=harness.ROOT, env=harness.program_env(),
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, ["timed out"], None
    problems = []
    record = None
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}")
    else:
        try:
            record = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            problems.append(f"unparsable output: {exc}")
        else:
            problems.extend(check_record(record))
    seconds = time.perf_counter() - start
    report = None
    if traced and not problems:
        with open(spans_path) as fh:
            report = json.load(fh)
        os.unlink(spans_path)
    return seconds, record, problems, report


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    """Returns (tally, end-to-end or per-layer metrics, info)."""
    entries = TINY_POOL if tiny else POOL
    pool = dict(entries)
    order = draw(seed, 400, entries)
    inputs = {"workload": "cold-cli", "seed": seed, "pool": pool,
              "order": order}
    tally = harness.Tally()
    book = DigestBook()
    os.makedirs(harness.WORK_DIR, exist_ok=True)
    spans_path = os.path.join(harness.WORK_DIR, f"cli-spans-{os.getpid()}.json")

    # set-up: untimed warm-ups of the cheapest configuration (the first one
    # in a fresh checkout also byte-compiles the package)
    setup_name = entries[-1][0]
    setups = []
    setup_probes = []
    for _ in range(SETUP_REPEATS):
        setup_probes.append(hostspeed.spawn_probe(harness.ROOT))
        secs, record, problems, _ = _invoke(pool[setup_name], traced=False)
        if record is not None:
            problems += book.check(setup_name, record["simulated_digest"])
        tally.record(f"setup {setup_name}", problems)
        setups.append(secs)

    load_before = os.getloadavg()
    times: list = []
    traced_times: list = []
    untraced_pairs: list = []
    ops: list = []
    by_config: dict = {}
    # each untraced invocation with the spawn probe taken just before it:
    # its seconds at reference host speed
    normalised: list = []
    norm_by_config: dict = {}
    probes: list = []
    start = time.perf_counter()
    i = 0
    # whole rounds only, so every configuration is sampled equally often
    while time.perf_counter() - start < seconds or len(times) % len(pool):
        name = order[i % len(order)]
        i += 1
        if not trace:
            probes.append(hostspeed.spawn_probe(harness.ROOT))
        secs, record, problems, _ = _invoke(pool[name], traced=False)
        if record is not None:
            problems += book.check(name, record["simulated_digest"])
        tally.record(f"{name} untraced", problems)
        times.append(secs)
        by_config.setdefault(name, []).append(secs)
        if not trace:
            normalised.append(secs * hostspeed.REF_SPAWN_S / probes[-1])
            norm_by_config.setdefault(name, []).append(normalised[-1])
        if trace:
            t_secs, t_record, t_problems, report = _invoke(
                pool[name], traced=True, spans_path=spans_path)
            if t_record is not None:
                t_problems += book.check(name, t_record["simulated_digest"])
            tally.record(f"{name} traced", t_problems)
            if report is not None:
                traced_times.append(t_secs)
                untraced_pairs.append(secs)
                take = report["take"]
                take["counts"]["import.repro_s"] = report["import_s"]
                ops.append({"take": take, "dlb": False})
    elapsed = time.perf_counter() - start - sum(probes)
    load_after = os.getloadavg()

    cold_tail, tail_pct = harness.tail(times)
    info = {
        "workload": "cold-cli", "seed": seed,
        "inputs_sha256": harness.inputs_digest(inputs),
        "holdout_seed": harness.HOLDOUT_SEED,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "samples": len(times), "tail_percentile": tail_pct,
        "setup_samples": setups, "setup_probes_s": setup_probes,
        "probes_s": probes, "ref_spawn_s": hostspeed.REF_SPAWN_S,
        "median_by_config": {k: harness.median(v)
                             for k, v in sorted(by_config.items())},
        "workload_metrics": {
            "cold_run_s": harness.metric(harness.median(times), "s"),
            "cold_run_tail_s": harness.metric(cold_tail, "s"),
            "failed_frac": harness.metric(tally.failed_frac, "ratio"),
        },
    }
    if trace:
        overhead = (sum(traced_times) - sum(untraced_pairs)) / max(
            1, len(traced_times))
        info.update(traced_ops=len(ops), spans=layers.span_totals(ops))
        return tally, layers.fold(ops, overhead), info
    # the configurations differ several-fold in cost, so a median over all
    # invocations would sit on the edge of one configuration's cluster; the
    # mean of per-configuration medians does not
    def per_config(groups):
        return sum(harness.median(v) for v in groups.values()) / len(groups)

    info["raw"] = {"setup_s": harness.median(setups),
                   "op_s": per_config(by_config),
                   "ops_per_s": len(times) / elapsed}
    metrics = {
        "setup_s": harness.metric(harness.median(
            [t * hostspeed.REF_SPAWN_S / p
             for t, p in zip(setups, setup_probes)]), "s"),
        "op_s": harness.metric(per_config(norm_by_config), "s"),
        "ops_per_s": harness.metric(len(normalised) / sum(normalised),
                                    "1/s"),
        "peak_rss_mb": harness.metric(harness.peak_rss_mb(), "MB"),
    }
    return tally, metrics, info
