"""The performance contract: fast paths change wall-clock only.

Guards:

* **determinism** — two runs of the same configuration produce identical
  simulated-time metrics and identical checkpoint bytes;
* **pinned digests** — phase samples, total time, deposition, solver info
  and the on-disk checkpoint file (byte-for-byte) match the values
  recorded when every fast path still had a slow twin it was checked
  against, across sync/coupled x DLB on/off;
* **reference stack** — the scalar event core with per-task teams and
  ``Store`` mailboxes (``tests/oracles.py``) lands on the same digests as
  the production core, up to production scale and under DLB and faults;
* **former CI digest workloads** — the default configuration, a
  local-adaptive sine spec, the gated-injection ventilator spec and DLB
  sync plus coupled 64+64 equal digests pinned on the last build that
  still compared the two cores in CI, on both stacks.
"""

import dataclasses
import hashlib

import pytest

from repro.app.driver import RunConfig, run_cfpd
from repro.app.workload import WorkloadSpec, get_workload
from repro.perf.bench import _cfpd_digest

from .oracles import ScalarEngine, StoreWorld, oracle_stack

#: small but non-trivial workload: enough steps for two checkpoint cuts
SPEC = WorkloadSpec(generations=3, points_per_ring=6, n_steps=4)

CONFIGS = {
    "sync": dict(cluster="thunder", num_nodes=1, nranks=8),
    "sync_dlb": dict(cluster="thunder", num_nodes=1, nranks=8, dlb=True),
    "coupled": dict(cluster="thunder", num_nodes=1, nranks=8,
                    mode="coupled", fluid_ranks=6),
    "coupled_dlb": dict(cluster="thunder", num_nodes=1, nranks=8,
                        mode="coupled", fluid_ranks=6, dlb=True),
}

#: (``_digest``, sha256 of the checkpoint bytes) per config, recorded on
#: the last build that still carried the retired fast-path toggles, where
#: the all-toggles-off build produced the same values
PINNED = {
    "coupled": (
        "4e39f496e979aa9291fea082e14c3205677f96810e50846806b0bb2973f00dfc",
        "49a35cf0470aedfd21c3dc0a30fa22578b7dee11b6bd9971f7ffc6058c6f83ec"),
    "coupled_dlb": (
        "632047ceed9166d9937508207b9c82b8b5771d55494f8ebf13adf646453a636b",
        "12b2134a8b65f1e4dcd69897ced84402f404072e04793185d2db147def37f0f9"),
    "sync": (
        "f1e2b4f3a52fe33ebcef043796668067e88cdc49b82878e981aec2fed53e4efc",
        "1e6f0b09eb8c0f32993e13ba204a1159f96f70887e17a236be8a3463e234a8aa"),
    "sync_dlb": (
        "7b5ecc1b289c5ba3904980c295bfbb6ec483bcd1204880f389d8abda69ba0424",
        "80318d51464265d243746a61a3f2e457448db497b59a7549a6ccbe2787051df9"),
}


def _digest(result) -> str:
    """Hash of every simulated-time metric of a run."""
    h = hashlib.sha256()
    for s in result.phase_log.samples:
        h.update(repr((s.step, s.rank, s.phase, s.t0, s.t1,
                       s.busy, s.instructions)).encode())
    h.update(repr(result.total_time).encode())
    h.update(repr(result.deposition).encode())
    h.update(repr(result.solver_info).encode())
    h.update(repr(result.checkpoints).encode())
    return h.hexdigest()


def _run(config_kwargs, ckpt_path):
    cfg = RunConfig(checkpoint_every=2, **config_kwargs)
    wl = get_workload(SPEC)
    result = run_cfpd(cfg, workload=wl, checkpoint_path=str(ckpt_path))
    return _digest(result), ckpt_path.read_bytes()


class TestDeterminism:
    def test_two_optimized_runs_identical(self, tmp_path):
        d1, c1 = _run(CONFIGS["sync"], tmp_path / "a.ckpt")
        d2, c2 = _run(CONFIGS["sync"], tmp_path / "b.ckpt")
        assert d1 == d2
        assert c1 == c2


class TestBitIdenticalBeforeAfter:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_fast_paths_change_wall_clock_only(self, name, tmp_path):
        d, c = _run(CONFIGS[name], tmp_path / "run.ckpt")
        assert d == PINNED[name][0], (
            f"{name}: simulated-time metrics changed")
        assert hashlib.sha256(c).hexdigest() == PINNED[name][1], (
            f"{name}: checkpoint bytes changed")


class TestEngineBatchMatrix:
    """The reference stack lands on the pinned digests and checkpoint
    bytes across sync/coupled x DLB on/off — the (when, seq) contract the
    batched core keeps."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_batch_off_is_identical(self, name, tmp_path):
        with oracle_stack():
            d, c = _run(CONFIGS[name], tmp_path / "off.ckpt")
        assert d == PINNED[name][0], (
            f"{name}: digest differs on the reference stack")
        assert hashlib.sha256(c).hexdigest() == PINNED[name][1], (
            f"{name}: checkpoint bytes differ on the reference stack")


class TestManyRankTieOrder:
    """Batched-vs-reference identity at production scale (96 ranks, 2
    nodes).

    Small single-node configs never produce same-instant completions on
    *different* nodes, so they cannot catch a wrong tie-break among plan
    completion events — the many-rank default configuration does (lockstep
    ranks finish identical graphs at identical times every phase).
    """

    @pytest.mark.parametrize("kwargs", [
        dict(),                                   # sync, marenostrum4, 96
        dict(mode="coupled", fluid_ranks=64),
    ], ids=["sync", "coupled"])
    def test_default_config_digest_identical(self, kwargs):
        cfg = RunConfig(**kwargs)
        with oracle_stack():
            before = run_cfpd(cfg)
        after = run_cfpd(cfg)
        assert _digest(before) == _digest(after)


class TestDLBBatchIdentity:
    """The batched core under DLB lands on the reference stack at paper
    shapes.

    On the batched core the DLB teams still dispatch task by task (the
    fallback ``engine_diag`` must report) but on the cohort-batched event
    loop and keyed mailboxes, beside the hungry-team and borrower
    indexes DLB keeps per node — so digests, checkpoint bytes and every
    ``DLBStats`` field must match, across multi-node and coupled shapes,
    the ``lewi_half`` policy and a rank death plus a throttle.
    """

    #: Fig. 8-style matrix cells (MareNostrum4, 2 nodes x 48 cores, one
    #: thread per rank, multidep assembly) and a Thunder coupled split
    PAPER_SHAPES = {
        "mn4_sync": dict(cluster="marenostrum4", num_nodes=2, nranks=96),
        "mn4_48_48": dict(cluster="marenostrum4", num_nodes=2, nranks=96,
                          mode="coupled", fluid_ranks=48),
        "thunder_96_96": dict(cluster="thunder", num_nodes=2, nranks=192,
                              mode="coupled", fluid_ranks=96),
    }

    @staticmethod
    def _dlb_run(kwargs, ckpt_path, fault_plan=None):
        from repro.core.strategies import Strategy
        cfg = RunConfig(**{"dlb": True, "threads_per_rank": 1,
                           "checkpoint_every": 2,
                           "assembly_strategy": Strategy.MULTIDEP,
                           "sgs_strategy": Strategy.ATOMICS, **kwargs})
        result = run_cfpd(cfg, workload=get_workload(SPEC),
                          checkpoint_path=str(ckpt_path),
                          fault_plan=fault_plan)
        plans = result.engine_diag.get("batch", {}).get("plans", {})
        events = ([(e.time, e.kind, e.rank) for e in result.faults.events]
                  if result.faults is not None else None)
        return (_digest(result), ckpt_path.read_bytes(),
                dataclasses.asdict(result.dlb_stats), events,
                plans.get("scalar_graphs", 0))

    def _check(self, tmp_path, kwargs, fault_plan=None):
        with oracle_stack():
            off = self._dlb_run(kwargs, tmp_path / "off.ckpt", fault_plan)
        on = self._dlb_run(kwargs, tmp_path / "on.ckpt", fault_plan)
        assert on[4] > 0, "engine_diag does not report the DLB fallback"
        assert on[2]["lend_events"] > 0 and on[2]["borrow_events"] > 0
        assert on[0] == off[0], "simulated metrics differ under DLB"
        assert on[1] == off[1], "checkpoint bytes differ under DLB"
        assert on[2] == off[2], "DLBStats differ under DLB"
        assert on[3] == off[3], "fault firing schedule differs under DLB"

    @pytest.mark.parametrize("name", sorted(PAPER_SHAPES))
    def test_paper_shape_identical(self, name, tmp_path):
        self._check(tmp_path, self.PAPER_SHAPES[name])

    def test_lewi_half_identical(self, tmp_path, monkeypatch):
        import functools

        from repro.app import driver
        from repro.core import DLB
        monkeypatch.setattr(driver, "DLB",
                            functools.partial(DLB, policy="lewi_half"))
        # lewi_half keeps half of the own cores: needs multi-thread ranks
        self._check(tmp_path, dict(cluster="thunder", num_nodes=1,
                                   nranks=16, threads_per_rank=3))

    def test_rank_death_and_throttle_identical(self, tmp_path):
        from repro.fault import FaultPlan, FaultSpec
        plan = FaultPlan(specs=(
            FaultSpec(kind="straggler", time=2e-5, rank=3, factor=4.0,
                      duration=3e-4),
            FaultSpec(kind="rank_death", time=4e-4, rank=5),
        ))
        self._check(tmp_path, dict(cluster="marenostrum4", num_nodes=2,
                                   nranks=96), fault_plan=plan)


class TestEngineDiagOutOfDigests:
    """Host-side counters never enter a simulated digest.

    ``engine_diag`` carries the plan counters — including
    ``scalar_graphs``, the graph runs that took per-task dispatch — which
    differ between the batched and the reference stack for the same
    simulated run.
    """

    def test_plan_counters_not_in_digests(self):
        from repro.campaign import simulated_digest
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=8, dlb=True)
        result = run_cfpd(cfg, workload=get_workload(SPEC))
        plans = result.engine_diag["batch"]["plans"]
        assert plans["scalar_graphs"] > 0      # DLB teams dispatch per task
        digests = (simulated_digest(result), _digest(result))
        plans["scalar_graphs"] += 1000
        plans["planned_graphs"] += 1000
        assert (simulated_digest(result), _digest(result)) == digests
        with oracle_stack():
            scalar = run_cfpd(cfg, workload=get_workload(SPEC))
        # the heap engine fills no cohort and no arena slot
        assert result.engine_diag["batch"]["cohorts"] > 0
        assert scalar.engine_diag["batch"]["cohorts"] == 0
        assert scalar.engine_diag["batch"]["arena"]["allocated"] == 0
        assert (simulated_digest(scalar), _digest(scalar)) == digests


class TestFaultPlanReplay:
    """Fault injection replays identically under the batched core.

    A plan with a straggler window, a rank death and a message-loss budget
    must fire at the same simulated times and leave the same simulated
    metrics on the reference stack and the batched one — fault timers and
    the keyed-mailbox failure path ride the same (when, seq) order.
    """

    def _fault_run(self, config_kwargs):
        from repro.fault import FaultPlan, FaultSpec
        cfg = RunConfig(**config_kwargs)
        plan = FaultPlan(specs=(
            FaultSpec(kind="straggler", time=1e-5, rank=0, factor=6.0,
                      duration=2e-4),
            FaultSpec(kind="rank_death", time=3e-4, rank=5),
            FaultSpec(kind="msg_delay", time=0.0, rank=2, delay=1e-5,
                      duration=5e-4),
        ))
        result = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        events = [(e.time, e.kind, e.rank) for e in result.faults.events]
        return events, _digest(result)

    @pytest.mark.parametrize("name", ["sync", "coupled"])
    def test_fault_events_and_digest_identical(self, name):
        with oracle_stack():
            ev_before, d_before = self._fault_run(CONFIGS[name])
        ev_after, d_after = self._fault_run(CONFIGS[name])
        assert ev_before == ev_after, (
            f"{name}: fault firing schedule differs from the reference")
        assert d_before == d_after, (
            f"{name}: simulated metrics after faults changed")

    def test_message_loss_deadlock_diagnostic_identical(self):
        """A dropped message deadlocks at the same simulated time with the
        same dropped count, reference or batched (the keyed mailbox's
        blocked getter surfaces in the diagnostic exactly like the
        Store's)."""
        from repro.fault import FaultInjector, FaultPlan, FaultSpec
        from repro.machine import marenostrum4
        from repro.sim import Engine
        from repro.smpi import DeadlockError, World

        def outcome(engine_cls=Engine, world_cls=World):
            eng = engine_cls()
            world = world_cls(eng, marenostrum4(), 2)
            injector = FaultInjector(world, FaultPlan(specs=(
                FaultSpec(kind="msg_drop", time=0.0, rank=0, count=1),)))
            injector.start()

            def program(comm):
                if comm.rank == 0:
                    yield from comm.compute(1e-6)
                    yield from comm.send("lost", dest=1)
                else:
                    yield from comm.recv(source=0)

            procs = world.launch(program)
            with pytest.raises(DeadlockError):
                world.run(procs)
            return injector.messages_dropped, eng.now

        before = outcome(ScalarEngine, StoreWorld)
        assert before == outcome()


#: ``repro.perf.bench._cfpd_digest`` of each workload CI compared between
#: the scalar and the batched core before the reference stack moved into
#: the test suite; values recorded on that build, where both cores agreed
FORMER_CI_WORKLOADS = {
    "default": [dict()],
    "adaptive": [dict(spec=WorkloadSpec(adaptive="local",
                                        inlet_waveform="sine"))],
    "breathing": [dict(spec=WorkloadSpec(
        adaptive="global", inlet_waveform="ventilator",
        injection_phase="inhale", injection_interval=4, n_steps=16))],
    "dlb": [dict(dlb=True), dict(mode="coupled", fluid_ranks=64, dlb=True)],
}
FORMER_CI_PINNED = {
    "default": "b5b7d177ebdb59e29a53174cf2579bb5e51c8f1589db6b7735bd67a0feaaa6fd",
    "adaptive": "0a296c36a876e2d774c5454007df1ecb6acaaa6b27be0f059d54a551e38b62a1",
    "breathing": "bc5fcf2288b35327f9b11e190cdb9537fc643777930cb0d209b8fe76ee7e99ce",
    "dlb": "0eca75765c2012727c06125196995db8ac85b68a8d51e9ded6e1ecefda71bc12"
           "6c82a7785f3a36924c7baa0af48cfd3e073a3eed73fb835a633306138010d93c",
}


class TestFormerCIDigests:
    """The four end-to-end workloads CI used to compare between the two
    event cores, on the production core and on the reference stack."""

    @staticmethod
    def _digest(runs) -> str:
        out = ""
        for kwargs in runs:
            kwargs = dict(kwargs)
            spec = kwargs.pop("spec", None)
            out += _cfpd_digest(run_cfpd(RunConfig(**kwargs), spec=spec))
        return out

    @pytest.mark.parametrize("name", sorted(FORMER_CI_WORKLOADS))
    def test_both_stacks_match_pinned(self, name):
        runs = FORMER_CI_WORKLOADS[name]
        assert self._digest(runs) == FORMER_CI_PINNED[name], (
            f"{name}: production core digest changed")
        with oracle_stack():
            reference = self._digest(runs)
        assert reference == FORMER_CI_PINNED[name], (
            f"{name}: reference stack digest changed")


class TestArenaRecycling:
    """``defer``/``call_later`` recycle arena slots: no per-step growth.

    Steady state must serve allocations from the free list (capacity a
    tiny fraction of total allocations) and two identical runs must not
    leak simulation objects between them.
    """

    def test_arena_steady_state(self):
        result = run_cfpd(RunConfig(**CONFIGS["sync"]), spec=SPEC)
        arena = result.engine_diag["batch"]["arena"]
        assert arena["live"] == 0, "slots leaked past the end of the run"
        assert arena["recycled"] > 0
        # steady-state table size is bounded by peak concurrency, not by
        # the number of events: orders of magnitude below total allocations
        assert arena["capacity"] < arena["allocated"] / 10

    def test_no_object_growth_between_runs(self):
        import gc
        cfg = RunConfig(**CONFIGS["sync"])
        run_cfpd(cfg, spec=SPEC)     # warm caches (graphs, geometry, ...)
        gc.collect()
        n0 = len(gc.get_objects())
        run_cfpd(cfg, spec=SPEC)
        gc.collect()
        n1 = len(gc.get_objects())
        # the second run may retain a bounded residue (result object grown
        # lists, memoized helpers) but nothing proportional to the ~1e4
        # events the run processed
        assert n1 - n0 < 2000, f"object count grew by {n1 - n0}"
