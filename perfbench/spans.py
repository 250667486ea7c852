"""Span tracer that wraps the program's public entry points from outside.

Each wrapped callable opens a span on entry; the stack of open spans gives
every span its parent.  A span is folded into its layer's totals as it
closes: its self time is its duration minus the time its direct child
spans cover, so the layer self-times of one operation add up to the traced
part of its wall time.  Counters ride the same boundaries and come from
the values the wrapped calls return.  ``take`` hands over one operation's
totals; the benchmark prints the totals of its traced operations when it
ends.

Nothing here wraps per-event or per-message code (``Engine.defer``,
``Comm.isend``): event and message counts come from the program's own
outputs (``RunResult.engine_diag``, ``collect_mpi_trace``).

``install`` patches every name where its caller looks it up, e.g. the mesh
builder as ``repro.app.workload.build_airway_mesh``.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span stack plus per-operation layer totals."""

    def __init__(self):
        self.pid = os.getpid()
        self._undo = []
        self._reset()

    def _reset(self):
        self._stack = []            # [name, start, child_seconds]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    # -- recording ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:     # first call in a forked worker
                tracer.pid = os.getpid()
                tracer._reset()
            frame = [name, _clock(), 0.0]
            tracer._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                duration = _clock() - frame[1]
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][2] += duration
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-operation folding ----------------------------------------------
    def take(self) -> dict:
        """Layer totals since the last ``take`` (and reset them)."""
        out = {"self_s": dict(self.self_s), "calls": dict(self.calls),
               "counts": dict(self.counts)}
        self._reset()
        return out

    def dump(self, path: str) -> None:
        """Write the totals since the last ``take`` to ``path`` (forked
        campaign workers hand their spans to the parent this way)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.take(), fh)
        os.replace(tmp, path)


def merge(parts) -> dict:
    """Sum several ``take`` results."""
    out = {"self_s": defaultdict(float), "calls": defaultdict(int),
           "counts": defaultdict(float)}
    for part in parts:
        for key in out:
            for name, value in part[key].items():
                out[key][name] += value
    return {key: dict(values) for key, values in out.items()}


# -- result-derived counters ---------------------------------------------------

def _iterations(tracer, args, kwargs, result):
    tracer.count("solver.iterations", result.iterations)


def _mesh_elements(tracer, args, kwargs, result):
    tracer.count("mesh.elements", result.mesh.nelem)


def _run_outputs(tracer, args, kwargs, result):
    """Counts a finished ``run_cfpd`` reports about itself."""
    config = args[0] if args else kwargs["config"]
    tracer.count("sim.events", result.engine_diag["events_processed"])
    tracer.count("app.runs")
    if config.dlb:
        tracer.count("core.dlb.lend_events", result.dlb_stats.lend_events)
        tracer.count("core.dlb.borrow_events",
                     result.dlb_stats.borrow_events)
    if result.tracer is not None:
        tracer.count("smpi.blocking_calls",
                     len(result.tracer.by_category("mpi")))


def _store_put(tracer, args, kwargs, result):
    tracer.count("campaign.store_puts")
    tracer.count("campaign.store_bytes", os.path.getsize(result))


def _store_get(tracer, args, kwargs, result):
    tracer.count("campaign.store_gets")
    if result is not None:
        tracer.count("campaign.store_hits")


#: (module, attribute path, span name, result hook).  The module is where
#: the caller looks the name up; a dotted attribute patches a class member.
TARGETS = (
    ("repro.app.workload", "build_airway_mesh", "mesh.build", _mesh_elements),
    ("repro.app.workload", "decompose_mesh", "partition.decompose", None),
    ("repro.app.workload", "Workload.decomposition", "app.decomposition",
     None),
    ("repro.app.workload", "Workload.__init__", "app.precompute", None),
    ("repro.app.workload", "Workload.operators", "app.precompute", None),
    ("repro.app.workload", "Workload.solve_fluid_step", "app.precompute",
     None),
    ("repro.app.workload", "Workload.sgs_history", "app.precompute", None),
    ("repro.app.workload", "Workload.trajectory", "app.precompute", None),
    ("repro.app.workload", "Workload.particle_histograms", "app.precompute",
     None),
    ("repro.app.workload", "assemble_operator", "fem.assemble", None),
    ("repro.app.workload", "update_sgs", "fem.sgs", None),
    ("repro.app.workload", "bicgstab", "solver.solve", _iterations),
    ("repro.app.workload", "cg", "solver.solve", _iterations),
    ("repro.solver", "deflated_cg", "solver.solve", _iterations),
    ("repro.app.workload", "NewmarkTracker.step", "particles.track", None),
    ("repro.app.workload", "hub_for", "cosim.hub", None),
    ("repro.cosim.hub", "simulate_breathing", "cosim.hub", None),
    ("repro.cosim.hub", "CosimHub.scale_at", "cosim.hub", None),
    ("repro.app.driver", "build_element_loop_graph", "app.graph_build",
     None),
    ("repro.app.driver", "build_parallel_for_graph", "app.graph_build",
     None),
    ("repro.app.driver", "World.run", "sim.replay", None),
    ("repro.app", "run_cfpd", "app.run", _run_outputs),
    ("repro.campaign.runner", "run_cfpd", "app.run", _run_outputs),
    ("repro.app.driver", "RunResult.phase_summary", "trace.report", None),
    ("repro.app.driver", "RunResult.pop_metrics", "trace.report", None),
    ("repro.campaign.runner", "job_record", "campaign.serialize", None),
    ("repro.__main__", "_print_json", "campaign.serialize", None),
    ("repro.campaign.executor", "warm_workload", "campaign.warm", None),
    ("repro.campaign.store", "ResultStore.put", "campaign.store_put",
     _store_put),
    ("repro.campaign.store", "ResultStore.get", "campaign.store_get",
     _store_get),
    ("repro.campaign", "build_report", "campaign.report", None),
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point of :data:`TARGETS` (each exactly once: a
    class member reached through two modules is patched on the class)."""
    done = set()
    for module_name, path, span, hook in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        key = (id(owner), attr)
        if key in done:
            continue
        done.add(key)
        tracer.wrap(owner, attr, span, hook)
    return tracer


def wrap_worker_dump(tracer: Tracer, out_dir: str) -> None:
    """Make each campaign job executed in a forked worker hand its spans
    to the parent through a file in ``out_dir``.

    The supervisor's workers look ``run_job`` up in
    ``repro.campaign.runner`` on every job, so a wrapper installed before
    the pool forks runs in the worker.
    """
    runner = importlib.import_module("repro.campaign.runner")
    original = runner.run_job
    parent = os.getpid()
    seq = [0]

    def run_job(job):
        try:
            return original(job)
        finally:
            if os.getpid() != parent:
                seq[0] += 1
                tracer.dump(os.path.join(
                    out_dir, f"worker-{os.getpid()}-{seq[0]}.json"))

    runner.run_job = run_job
    tracer._undo.append((runner, "run_job", original))


def collect_worker_dumps(out_dir: str) -> dict:
    """Merge and delete the span files forked workers left in ``out_dir``."""
    parts = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(out_dir, name)
            with open(path) as fh:
                parts.append(json.load(fh))
            os.unlink(path)
    return merge(parts)
