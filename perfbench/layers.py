"""Per-layer metrics of a traced run, folded from per-operation span totals.

An operation is the workload's timed unit: one CLI invocation
(``cold-cli``), one ``run_cfpd`` call (``dlb-sweep``) or one write pass
with its cached re-runs and report (``breathing-campaign``).  Layer times
are span self-times and counts are per operation, averaged over the
traced operations of the run.
"""

from __future__ import annotations

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("import.repro_s", "s", "lower"),
    ("mesh.build_s", "s", "lower"),
    ("mesh.elements", "count", "lower"),
    ("partition.decompose_s", "s", "lower"),
    ("partition.decompose_calls", "count", "lower"),
    ("app.decomposition_s", "s", "lower"),
    ("app.precompute_s", "s", "lower"),
    ("app.graph_build_s", "s", "lower"),
    ("app.graph_builds_per_run", "count", "lower"),
    ("fem.assemble_s", "s", "lower"),
    ("fem.assemble_calls", "count", "lower"),
    ("fem.sgs_s", "s", "lower"),
    ("fem.sgs_updates", "count", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("particles.track_s", "s", "lower"),
    ("particles.steps", "count", "lower"),
    ("cosim.hub_s", "s", "lower"),
    ("sim.replay_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("core.replay_static_s", "s", "lower"),
    ("core.replay_dlb_s", "s", "lower"),
    ("core.dlb.lend_events", "count", "lower"),
    ("core.dlb.borrow_events", "count", "lower"),
    ("smpi.blocking_calls", "count", "lower"),
    ("trace.report_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("campaign.serialize_s", "s", "lower"),
    ("campaign.warm_s", "s", "lower"),
    ("campaign.queue_wait_s", "s", "lower"),
    ("campaign.store_put_s", "s", "lower"),
    ("campaign.store_puts", "count", "lower"),
    ("campaign.store_bytes", "bytes", "lower"),
    ("campaign.journal_fsyncs", "count", "lower"),
    ("campaign.lease_grants", "count", "lower"),
    ("campaign.heartbeats", "count", "lower"),
    ("campaign.retries", "count", "lower"),
    ("campaign.worker_losses", "count", "lower"),
    ("campaign.store_get_s", "s", "lower"),
    ("campaign.cache_hit_ratio", "ratio", "higher"),
    ("campaign.report_s", "s", "lower"),
)

#: per-layer metric -> span whose self time it reports
_SELF_TIME = {
    "mesh.build_s": "mesh.build",
    "partition.decompose_s": "partition.decompose",
    "app.decomposition_s": "app.decomposition",
    "app.precompute_s": "app.precompute",
    "app.graph_build_s": "app.graph_build",
    "fem.assemble_s": "fem.assemble",
    "fem.sgs_s": "fem.sgs",
    "solver.solve_s": "solver.solve",
    "particles.track_s": "particles.track",
    "cosim.hub_s": "cosim.hub",
    "sim.replay_s": "sim.replay",
    "trace.report_s": "trace.report",
    "campaign.serialize_s": "campaign.serialize",
    "campaign.warm_s": "campaign.warm",
    "campaign.store_put_s": "campaign.store_put",
    "campaign.store_get_s": "campaign.store_get",
    "campaign.report_s": "campaign.report",
}

#: per-layer metric -> number of calls of a span
_CALLS = {
    "partition.decompose_calls": "partition.decompose",
    "fem.assemble_calls": "fem.assemble",
    "fem.sgs_updates": "fem.sgs",
    "particles.steps": "particles.track",
}

#: per-layer metrics that are counters of the same name (from the wrapped
#: calls' return values, or the workload's reading of journal and run
#: statistics)
_COUNTS = (
    "import.repro_s", "mesh.elements", "solver.iterations", "sim.events",
    "core.dlb.lend_events", "core.dlb.borrow_events", "smpi.blocking_calls",
    "campaign.store_puts", "campaign.store_bytes", "campaign.journal_fsyncs",
    "campaign.lease_grants", "campaign.heartbeats", "campaign.retries",
    "campaign.worker_losses", "campaign.queue_wait_s",
)


def _mean(ops, pick) -> float:
    if not ops:
        return 0.0
    return sum(pick(op) for op in ops) / len(ops)


def _total(ops, pick) -> float:
    return sum(pick(op) for op in ops)


def fold(ops, overhead_s: float) -> dict:
    """Per-layer metrics from traced operations.

    ``ops`` are dicts ``{"take": spans.Tracer.take() result, "dlb": bool}``;
    ``overhead_s`` is traced minus untraced seconds per operation.
    """
    def self_s(op, span):
        return op["take"]["self_s"].get(span, 0.0)

    def calls(op, span):
        return op["take"]["calls"].get(span, 0)

    def count(op, name):
        return op["take"]["counts"].get(name, 0.0)

    values = {}
    for name, span in _SELF_TIME.items():
        values[name] = _mean(ops, lambda op, s=span: self_s(op, s))
    for name, span in _CALLS.items():
        values[name] = _mean(ops, lambda op, s=span: calls(op, s))
    for name in _COUNTS:
        values[name] = _mean(ops, lambda op, c=name: count(op, c))
    runs = _total(ops, lambda op: count(op, "app.runs"))
    builds = _total(ops, lambda op: calls(op, "app.graph_build"))
    values["app.graph_builds_per_run"] = builds / runs if runs else 0.0
    replay = _total(ops, lambda op: self_s(op, "sim.replay"))
    events = _total(ops, lambda op: count(op, "sim.events"))
    values["sim.events_per_s"] = events / replay if replay else 0.0
    static = [op for op in ops if not op["dlb"]]
    dlb = [op for op in ops if op["dlb"]]
    values["core.replay_static_s"] = _mean(
        static, lambda op: self_s(op, "sim.replay"))
    values["core.replay_dlb_s"] = _mean(
        dlb, lambda op: self_s(op, "sim.replay"))
    gets = _total(ops, lambda op: count(op, "campaign.cached_gets"))
    hits = _total(ops, lambda op: count(op, "campaign.cached_hits"))
    values["campaign.cache_hit_ratio"] = hits / gets if gets else 0.0
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in PER_LAYER}


def span_totals(ops) -> dict:
    """Self seconds and calls per span over all traced operations (the
    span record the info line carries)."""
    totals = {}
    for op in ops:
        for key in ("self_s", "calls"):
            for name, value in op["take"][key].items():
                entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
                entry[key] += value
    return totals
