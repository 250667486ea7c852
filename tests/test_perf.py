"""Unit tests for the performance layer (repro.perf): the one event core
and its test-suite reference, instrumentation, benchmark runner, and the
per-module fast-path equivalences (comm, assembly, tracker)."""

import hashlib
import importlib

import numpy as np
import pytest

from repro.fem import assemble_operator
from repro.machine import marenostrum4, thunder
from repro.mesh import AirwayConfig, MeshResolution, build_airway_mesh
from repro.particles import (
    STATUS_ACTIVE,
    ElementLocator,
    FluidProperties,
    NewmarkTracker,
    ParticleProperties,
    ParticleState,
    inject_at_inlet,
)
from repro.perf import Counters, engine_counters
from repro.sim import Engine
from repro.smpi import World

from .oracles import (
    PerTaskTeam,
    ScalarEngine,
    StoreWorld,
    UncompactedTracker,
    UnfusedTracker,
    monolithic_assembly,
    oracle_stack,
)


def small_airway():
    return build_airway_mesh(AirwayConfig(generations=3, seed=2018),
                             MeshResolution(points_per_ring=6, rings=2))


# -- one event core ---------------------------------------------------------

class TestOneCore:
    """``src`` ships one event core; the scalar core, per-task team and
    ``Store`` mailboxes live in ``tests/oracles.py`` as its reference."""

    def test_engine_is_the_batched_core(self):
        from repro.sim import Event

        eng = Engine()
        assert eng.arena.capacity == 0 and eng._buckets == {}
        assert not hasattr(eng, "_queue")
        assert "_defer" not in Event.__slots__
        assert isinstance(eng.call_later(1.0, lambda: None), int)

    def test_toggles_module_is_gone(self):
        import repro.perf as perf

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.perf.toggles")
        for name in ("Toggles", "TOGGLES", "set_toggles", "configured"):
            assert not hasattr(perf, name)

    def test_team_plans_and_world_keyed_mailboxes_unconditional(self):
        from repro.core import Team, TaskGraph
        from repro.machine import CoreModel, WorkSpec
        from repro.smpi.comm import _KeyedMailbox

        core = CoreModel(name="unit", freq_ghz=1.0, base_ipc=1.0,
                         out_of_order=True, atomic_stall_cycles=0.0,
                         mem_stall_cycles=0.0)
        eng = Engine()
        team = Team(eng, core, 1)
        world = World(eng, thunder(1), 2)
        assert not hasattr(team, "_plan_enabled")
        assert not hasattr(world, "_batch")
        assert all(isinstance(world.mailbox(r), _KeyedMailbox)
                   for r in range(2))
        g = TaskGraph()
        g.add_task(WorkSpec(1e9))

        def prog():
            yield from team.run(g)

        eng.process(prog())
        eng.run()
        plans = engine_counters(eng)["batch"]["plans"]
        assert plans["planned_graphs"] == 1 and plans["scalar_graphs"] == 0

    def test_oracle_stack_overrides_and_restores(self):
        from repro.app import driver
        from repro.core import Team

        with oracle_stack():
            assert driver.Engine is ScalarEngine
            assert driver.Team is PerTaskTeam
            assert driver.World is StoreWorld
        assert (driver.Engine, driver.Team, driver.World) == (
            Engine, Team, World)

    def test_oracle_stack_restored_after_exception(self):
        from repro.app import driver

        with pytest.raises(RuntimeError):
            with oracle_stack():
                raise RuntimeError("boom")
        assert driver.Engine is Engine and driver.World is World


# -- instrumentation -------------------------------------------------------

class TestInstrument:
    def test_counters(self):
        c = Counters()
        c.add("events")
        c.add("events", 9)
        assert c.get("events") == 10
        assert c.get("missing") == 0
        assert c.report() == {"events": 10}

    def test_engine_counters(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)

        eng.process(proc())
        eng.run()
        snap = engine_counters(eng)
        assert snap["events_processed"] > 0
        assert snap["sim_now"] == pytest.approx(1.0)
        assert snap["alive_processes"] == 0


# -- benchmark runner ------------------------------------------------------

class TestBench:
    def test_table_modes(self):
        from repro.perf.bench import _benchmark_table

        full = {r["name"] for r in _benchmark_table(quick=False)}
        quick = {r["name"] for r in _benchmark_table(quick=True)}
        assert quick < full
        assert "run_cfpd_sync" in quick
        assert "run_cfpd_sync_dlb" in full - quick

    def test_compare_reports_flags_regressions(self):
        from repro.perf.bench import compare_reports

        ref = {"benchmarks": [
            {"name": "a", "after_seconds": 1.0},
            {"name": "b", "after_seconds": 1.0}]}
        cur = {"benchmarks": [
            {"name": "a", "after_seconds": 1.5},     # within 2x
            {"name": "b", "after_seconds": 2.5},     # regression
            {"name": "new", "after_seconds": 9.0}]}  # not in ref: skipped
        failures = compare_reports(cur, ref)
        assert len(failures) == 1
        assert failures[0].startswith("b:")

    def test_trajectory_uniform_host_drift_passes(self):
        from repro.perf.bench import trajectory_check

        ref = {"benchmarks": [
            {"name": n, "after_seconds": 1.0, "kind": "kernel"}
            for n in "abc"]}
        cur = {"benchmarks": [  # host 30% slower, code unchanged
            {"name": n, "after_seconds": 1.3, "kind": "kernel"}
            for n in "abc"]}
        trajectory, failures, drift = trajectory_check(cur, ref)
        assert not failures
        assert drift == pytest.approx(1 / 1.3, rel=1e-6)
        for entry in trajectory.values():
            assert entry["speedup_vs_reference"] < 1.0
            assert entry["speedup_vs_reference_drift_adjusted"] == \
                pytest.approx(1.0, abs=1e-3)

    def test_trajectory_real_regression_not_masked_by_drift(self):
        from repro.perf.bench import trajectory_check

        ref = {"benchmarks": [
            {"name": n, "after_seconds": 1.0, "kind": "kernel"}
            for n in "abcd"]}
        cur = {"benchmarks": [
            {"name": "a", "after_seconds": 1.3, "kind": "kernel"},
            {"name": "b", "after_seconds": 1.3, "kind": "kernel"},
            {"name": "c", "after_seconds": 1.3, "kind": "kernel"},
            {"name": "d", "after_seconds": 3.0, "kind": "kernel"}]}
        _, failures, drift = trajectory_check(cur, ref)
        assert drift == pytest.approx(1 / 1.3, rel=1e-6)  # median holds
        assert len(failures) == 1 and failures[0].startswith("d:")

    def test_trajectory_ignores_non_kernel_rows(self):
        """End-to-end rows never enter the drift estimate; those with an
        in-build speedup gate are recorded, not trajectory-gated, and the
        after-only ones (no ``min_speedup``) are gated like kernels."""
        from repro.perf.bench import trajectory_check

        ref = {"benchmarks": [
            {"name": "k", "after_seconds": 1.0, "kind": "kernel"},
            {"name": "e2e", "after_seconds": 1.0, "kind": "end_to_end"},
            {"name": "pair", "after_seconds": 1.0, "kind": "end_to_end"}]}
        cur = {"benchmarks": [
            {"name": "k", "after_seconds": 1.0, "kind": "kernel"},
            {"name": "e2e", "after_seconds": 5.0, "kind": "end_to_end"},
            {"name": "pair", "after_seconds": 5.0, "kind": "end_to_end",
             "min_speedup": 1.67},
            {"name": "new", "after_seconds": 9.0, "kind": "kernel"}]}
        trajectory, failures, drift = trajectory_check(cur, ref)
        assert len(failures) == 1 and failures[0].startswith("e2e:")
        assert drift == 1.0            # e2e rows excluded from the estimate
        assert {"e2e", "pair"} <= set(trajectory)
        assert "new" not in trajectory

    def test_run_benchmarks_micro_smoke(self, monkeypatch):
        """One table row end-to-end through the runner (fast smoke)."""
        import repro.perf.bench as bench

        monkeypatch.setattr(
            bench, "_benchmark_table",
            lambda quick: [{"name": "engine_events", "kind": "micro",
                            "fn": bench._engine_events_workload,
                            "units": "dispatches"}])
        report = bench.run_benchmarks(quick=True, verbose=False)
        assert report["schema"] == "repro-bench-v1"
        [b] = report["benchmarks"]
        assert b["name"] == "engine_events"
        # after-only row: no before side, no in-build speedup
        assert b["before_seconds"] is None and b["speedup"] is None
        assert b["after_seconds"] > 0
        assert b["throughput"]["units"] == "dispatches"
        # 16 teams x 25 runs x 6 tasks + 48 chains x 101 callbacks
        assert b["throughput"]["count"] == 16 * 25 * 6 + 48 * 101
        assert b["throughput"]["after_per_second"] > 0
        assert "before_per_second" not in b["throughput"]

    def test_default_out_carries_no_pr_number(self, monkeypatch,
                                              tmp_path):
        """A bare run must never overwrite a committed BENCH_prN.json."""
        import os
        import re

        import repro.perf.bench as bench

        assert not re.fullmatch(r"BENCH_pr\d+\.json", bench._DEFAULT_OUT)
        monkeypatch.setattr(
            bench, "run_benchmarks",
            lambda quick, repeats: {"benchmarks": [], "summary": {
                "all_simulated_results_identical": None,
                "speedup_gates_ok": None, "detail_checks_ok": None}})
        monkeypatch.chdir(tmp_path)
        assert bench.main([]) == 0
        written = os.listdir(tmp_path)
        assert written == [bench._DEFAULT_OUT]
        assert not any(re.fullmatch(r"BENCH_pr\d+\.json", name)
                       for name in written)

    def test_digest_check_option_is_gone(self, capsys):
        """The scalar/batched digest comparison is a tier-1 test now
        (``tests/test_perf_identical.py``); the bench no longer has it."""
        from repro.perf.bench import main

        with pytest.raises(SystemExit) as exc:
            main(["--digest-check", "engine_batch"])
        assert exc.value.code == 2
        assert "--digest-check" in capsys.readouterr().err

    def test_auto_baseline_ignores_out_directory(self, tmp_path):
        """A report written outside the repository root still resolves
        the newest committed lower-numbered report there."""
        import os
        import re
        from pathlib import Path

        from repro.perf.bench import resolve_auto_baseline

        root = Path(__file__).resolve().parents[1]
        committed = sorted(int(re.search(r"pr(\d+)", p.name).group(1))
                           for p in root.glob("BENCH_pr*.json"))
        assert committed, "no committed BENCH_prN.json in the repo root"
        top = committed[-1]
        resolved = resolve_auto_baseline(
            str(tmp_path / f"BENCH_pr{top + 1}.json"))
        assert resolved is not None
        assert os.path.samefile(resolved, root / f"BENCH_pr{top}.json")
        assert resolve_auto_baseline(str(tmp_path / "BENCH_smoke.json")) \
            == resolved

    def test_auto_baseline_tolerates_numbering_gaps(self, tmp_path,
                                                    monkeypatch):
        import repro.perf.bench as bench

        reports = tmp_path / "reports"
        reports.mkdir()
        for n in (2, 5, 9):
            (reports / f"BENCH_pr{n}.json").write_text("{}")
        (reports / "BENCH_local.json").write_text("{}")
        monkeypatch.setattr(bench, "_REPORT_DIR", str(reports))
        out = tmp_path / "elsewhere"
        assert bench.resolve_auto_baseline(str(out / "BENCH_pr8.json")) \
            == str(reports / "BENCH_pr5.json")
        assert bench.resolve_auto_baseline(str(out / "BENCH_pr10.json")) \
            == str(reports / "BENCH_pr9.json")
        assert bench.resolve_auto_baseline(str(out / "BENCH_pr2.json")) \
            is None

    def test_rows_report_repeat_times_and_spread(self, monkeypatch):
        """Every row carries each repeat's time and the spread per side;
        after-only rows carry ``None`` for the before side."""
        import repro.perf.bench as bench

        # perf_counter readings: before repeats take 1, 2 and 2.5 s, after
        # repeats 0.5, 1 and 0.5 s
        ticks = iter([0.0, 1.0, 1.0, 3.0, 3.0, 5.5,
                      10.0, 10.5, 10.5, 11.5, 11.5, 12.0])
        monkeypatch.setattr(bench.time, "perf_counter", lambda: next(ticks))
        monkeypatch.setattr(
            bench, "_benchmark_table",
            lambda quick: [{"name": "pair", "kind": "kernel",
                            "fn": lambda: "same", "before_fn": lambda: "same",
                            "units": None, "repeats": 3, "min_speedup": 1.0}])
        [b] = bench.run_benchmarks(quick=True, verbose=False)["benchmarks"]
        assert b["before_times"] == [1.0, 2.0, 2.5]
        assert b["after_times"] == [0.5, 1.0, 0.5]
        assert b["before_seconds"] == 1.0 and b["after_seconds"] == 0.5
        assert b["before_spread"] == pytest.approx(1.5)
        assert b["after_spread"] == pytest.approx(1.0)
        assert b["speedup"] == 2.0

        ticks = iter([0.0, 2.0])
        monkeypatch.setattr(
            bench, "_benchmark_table",
            lambda quick: [{"name": "solo", "kind": "micro",
                            "fn": lambda: None, "units": None}])
        [b] = bench.run_benchmarks(quick=True, verbose=False)["benchmarks"]
        # one repeat measures no spread
        assert b["after_times"] == [2.0] and b["after_spread"] is None
        assert b["before_times"] is None and b["before_spread"] is None


# -- smpi fast-path equivalence --------------------------------------------

def _collective_round(world):
    """allreduce + reduce + alltoall on every alive rank of ``world``."""

    def program(comm):
        red = yield from comm.allreduce(float(comm.rank + 1))
        mx = yield from comm.reduce(comm.rank, root=0,
                                    op=lambda a, b: max(a, b))
        a2a = yield from comm.alltoall(
            [comm.rank * 100 + d for d in range(comm.size)])
        yield from comm.barrier()
        return (red, mx, a2a)

    return world.run(world.launch(program))


class TestCommFastPath:
    def test_collective_results_and_timing_unchanged(self):
        results = {}
        for label, engine_cls, world_cls in (
                ("before", ScalarEngine, StoreWorld),
                ("after", Engine, World)):
            eng = engine_cls()
            world = world_cls(eng, marenostrum4(), 8, mapping="block")
            results[label] = (_collective_round(world), eng.now)
        assert results["before"] == results["after"]

    def test_collectives_with_dead_rank_unchanged(self):
        def run(engine_cls=Engine, world_cls=World):
            eng = engine_cls()
            world = world_cls(eng, thunder(1), 4, mapping="block")

            def program(comm):
                if comm.rank == 3:
                    yield from comm.compute(10.0)  # killed before this ends
                    return None
                total = yield from comm.allreduce(float(comm.rank + 1))
                return total

            procs = world.launch(program)
            world.kill_rank(3, "fault injection")
            results = world.run(procs)
            # exceptions compare by identity: normalize the dead rank's
            return ([repr(r) if isinstance(r, Exception) else r
                     for r in results], eng.now)

        before = run(ScalarEngine, StoreWorld)
        after = run()
        assert before == after
        # survivors' reduction: ranks 0..2 contribute 1+2+3
        assert after[0][0] == pytest.approx(6.0)

    def test_isend_fast_path_delivers(self):
        eng = Engine()
        world = World(eng, marenostrum4(), 2)

        def program(comm):
            if comm.rank == 0:
                req = comm.isend(np.arange(4), dest=1, nbytes=32)
                yield from comm.wait(req)
                return None
            data = yield from comm.recv(source=0)
            return list(data)

        results = world.run(world.launch(program))
        assert results[1] == [0, 1, 2, 3]
        assert eng.now > 0.0


# -- assembly fast-path equivalence ----------------------------------------

class TestAssemblyPatternCache:
    def test_fast_matches_baseline(self):
        airway = small_airway()
        mesh = airway.mesh
        rng = np.random.default_rng(3)
        vel = rng.normal(size=(mesh.nnodes, 3))
        ids = np.arange(mesh.nelem)

        ref_m, ref_rhs, ref_scatter, ref_nn = monolithic_assembly(
            mesh, kappa=0.7, mass_coeff=2.0, velocity=vel, element_ids=ids,
            source=1.5)
        # two fast assemblies: first builds the pattern, second reuses it
        fast1 = assemble_operator(mesh, kappa=0.7, mass_coeff=2.0,
                                  velocity=vel, element_ids=ids, source=1.5)
        fast2 = assemble_operator(mesh, kappa=0.7, mass_coeff=2.0,
                                  velocity=vel, element_ids=ids, source=1.5)
        for res in (fast1, fast2):
            m = res.matrix
            # sparsity structure is exactly scipy's canonical CSR
            assert np.array_equal(m.indices, ref_m.indices)
            assert np.array_equal(m.indptr, ref_m.indptr)
            # values agree to summation-order tolerance
            assert np.allclose(m.data, ref_m.data, rtol=0, atol=1e-12)
            # work meters and rhs are exact
            assert np.array_equal(res.scatter_counts, ref_scatter)
            assert np.array_equal(res.element_nodes, ref_nn)
            assert np.array_equal(res.rhs, ref_rhs)
        # repeated fast assemblies are bit-identical to each other
        assert np.array_equal(fast1.matrix.data, fast2.matrix.data)

    def test_restricted_element_sets_get_separate_patterns(self):
        airway = small_airway()
        mesh = airway.mesh
        half = np.arange(mesh.nelem // 2)
        full = assemble_operator(mesh, kappa=1.0)
        part = assemble_operator(mesh, kappa=1.0, element_ids=half)
        part_ref = monolithic_assembly(mesh, kappa=1.0, element_ids=half)[0]
        assert full.matrix.nnz > part.matrix.nnz
        assert np.array_equal(part.matrix.indices, part_ref.indices)
        assert np.allclose(part.matrix.data, part_ref.data,
                           rtol=0, atol=1e-12)

    def test_stale_pattern_detected(self):
        from repro.mesh import ElementType

        airway = small_airway()
        mesh = airway.mesh
        assemble_operator(mesh, kappa=1.0)  # populates the cache
        # mutate the connectivity behind the cache's back: a tet becomes a
        # prism, changing the scattered-value count for the same element set
        tet = int(np.nonzero(mesh.elem_types == ElementType.TET)[0][0])
        mesh.elem_types[tet] = ElementType.PRISM
        mesh.elem_nodes[tet, 4:] = mesh.elem_nodes[tet, 0]
        with pytest.raises(ValueError, match="stale"):
            assemble_operator(mesh, kappa=1.0)


# -- tracker fast-path equivalence ----------------------------------------

def _broadcast_locate(flow, points):
    """:meth:`AirwayFlow.locate` as (n, ns, 3) allocating broadcasts — the
    reference the buffered per-plane kernel must match bit for bit."""
    a = flow._arr
    rel = points[:, None, :] - a.starts[None, :, :]       # (np, ns, 3)
    t = np.einsum("psj,sj->ps", rel, a.directions)        # axial coord
    t_in = (t >= -1e-12) & (t <= a.lengths[None, :] + 1e-12)
    t_clamped = np.clip(t, 0.0, a.lengths[None, :])
    closest = (a.starts[None, :, :]
               + t_clamped[:, :, None] * a.directions[None, :, :])
    r = np.linalg.norm(points[:, None, :] - closest, axis=2)
    rfrac = r / a.radii[None, :]
    # prefer segments whose axial span contains the point
    penalty = np.where(t_in, 0.0, 1e6)
    score = rfrac + penalty
    seg_idx = np.argmin(score, axis=1)
    rows = np.arange(len(points))
    axial = t_clamped[rows, seg_idx] / a.lengths[seg_idx]
    radial = rfrac[rows, seg_idx]
    return seg_idx, axial, radial


#: tracker trajectory digests (``_state_digest``) recorded on the last build
#: that still carried the retired particle toggles, where every single
#: particle toggle off — and all three off together — produced the same
#: values
PINNED_TRACKER = {
    "locator": "307a46be91e2e96628aa987903e4f494c4ace368dbf73d3dc276a403f965dc9c",
    "reinjected": "c9bfa669121651f74729f89ecbcd003d7638c84f18d967f75154b8f8f00c88c2",
    "plain": "54d6af84bef2481f110a512ee528f76e3ca1a0bca465c2e9a46e44d356a1665a",
}


def _state_digest(state, elems=()):
    """Digest of a particle state's bytes plus per-step element ids."""
    h = hashlib.sha256()
    for arr in (state.x, state.v, state.a, state.status):
        h.update(np.ascontiguousarray(arr).tobytes())
    for e in elems:
        h.update(np.asarray(e, dtype=np.int64).tobytes())
    return h.hexdigest()


class TestLocatorActiveOnly:
    def _track(self, n_steps=25):
        airway = small_airway()
        state = inject_at_inlet(airway, 400, seed=11)
        from repro.particles import AirwayFlow

        flow = AirwayFlow(airway.segments)
        tracker = NewmarkTracker(flow, particles=ParticleProperties(),
                                 fluid=FluidProperties())
        return airway, state, tracker

    def test_elements_of_state_matches_full_query(self):
        airway, state, tracker = self._track()
        nranks = 8
        from repro.partition import decompose_mesh

        labels = decompose_mesh(airway, nranks).labels
        locator = ElementLocator(airway, labels)
        for _ in range(25):
            tracker.step(state, 1e-3)
            got = locator.elements_of_state(state)
            ref = locator.elements_of(state.x)
            assert np.array_equal(got, ref)
            assert np.array_equal(
                locator.rank_histogram_state(state, nranks),
                locator.rank_histogram(state.x[state.active], nranks))
        # the run must actually exercise the frozen-particle cache
        assert (state.status != STATUS_ACTIVE).any()

    def test_deposition_and_positions_unchanged_by_fast_locator(self):
        airway, state, tracker = self._track()
        locator = ElementLocator(airway)
        hists = []
        for _ in range(25):
            tracker.step(state, 1e-3)
            hists.append(locator.elements_of_state(state).copy())
        assert _state_digest(state, hists) == PINNED_TRACKER["locator"]

    def test_cache_grows_with_repeated_injection(self):
        airway, state, tracker = self._track()
        locator = ElementLocator(airway)
        locator.elements_of_state(state)
        state.extend(inject_at_inlet(airway, 100, seed=12))
        got = locator.elements_of_state(state)
        assert len(got) == state.n
        assert np.array_equal(got, locator.elements_of(state.x))


class TestParticleFastPath:
    """PR 4: warm-start location, active-set compaction, fused kernels."""

    def _track(self, n=400, seed=11, tracker_cls=NewmarkTracker):
        airway = small_airway()
        state = inject_at_inlet(airway, n, seed=seed)
        from repro.particles import AirwayFlow

        flow = AirwayFlow(airway.segments)
        tracker = tracker_cls(flow, particles=ParticleProperties(),
                              fluid=FluidProperties())
        return airway, state, tracker

    def _reinjected_run(self, tracker_cls=NewmarkTracker,
                        exact_locate=False):
        """Two dt regimes and a mid-run injection; returns the final state
        and the per-step element ids of every particle."""
        airway, state, tracker = self._track(tracker_cls=tracker_cls)
        locator = ElementLocator(airway)
        elems = []
        for i in range(20):
            tracker.step(state, 1e-3 if i < 10 else 1e-4)
            if i == 10:
                state.extend(inject_at_inlet(airway, 80, seed=13))
            if exact_locate:
                elems.append(locator.elements_of(state.x))
            else:
                elems.append(locator.elements_of_state(state).copy())
        return state, elems

    def test_warm_locate_matches_brute_force_on_random_points(self):
        from scipy.spatial import cKDTree

        from repro.fem.geometry import element_adjacency
        from repro.particles.locator_fast import warm_locate

        airway = small_airway()
        mesh = airway.mesh
        centroids = mesh.centroids()
        tree = cKDTree(centroids)
        adj = element_adjacency(mesh)
        rng = np.random.default_rng(5)
        lo, hi = mesh.coords.min(axis=0), mesh.coords.max(axis=0)
        points = rng.uniform(lo, hi, size=(500, 3))
        # stale and random host guesses alike must stay exact
        hosts = rng.integers(0, mesh.nelem, size=500)
        eids, stats = warm_locate(tree, centroids, adj, points, hosts)
        brute = np.argmin(
            np.linalg.norm(points[:, None, :] - centroids[None, :, :],
                           axis=2), axis=1)
        assert eids.dtype == np.intp
        assert np.array_equal(eids, tree.query(points)[1])
        assert np.array_equal(eids, brute)
        assert stats.self_ball + stats.ring_ball + stats.fallback == stats.n

    def test_warm_locate_accepts_near_hosts(self):
        from scipy.spatial import cKDTree

        from repro.fem.geometry import element_adjacency
        from repro.particles.locator_fast import warm_locate

        airway = small_airway()
        mesh = airway.mesh
        centroids = mesh.centroids()
        tree = cKDTree(centroids)
        adj = element_adjacency(mesh)
        # points very near their host centroid: the self ball must fire
        hosts = np.arange(0, mesh.nelem, 7)
        points = centroids[hosts] + 1e-9
        eids, stats = warm_locate(tree, centroids, adj, points, hosts)
        assert np.array_equal(eids, tree.query(points)[1])
        assert stats.self_ball > 0

    def test_reinjected_trajectory_pinned(self):
        """Warm-start location, compaction and the fused step together
        land on the pinned trajectory."""
        state, elems = self._reinjected_run()
        assert _state_digest(state, elems) == PINNED_TRACKER["reinjected"]

    #: each retired particle toggle -> its off path: the tracker class from
    #: ``tests/oracles.py`` and whether elements come from the exact global
    #: KD-tree query instead of the warm-start locator
    OFF_PATHS = {
        "particle_warm_start": (NewmarkTracker, True),
        "particle_compaction": (UncompactedTracker, False),
        "particle_fused_step": (UnfusedTracker, False),
    }

    @pytest.mark.parametrize("toggle", ["particle_warm_start",
                                        "particle_compaction",
                                        "particle_fused_step"])
    def test_single_toggle_off_tracker_bit_identical(self, toggle):
        """The off path a retired particle toggle selected, kept as a test
        oracle, replays the fast path's trajectory bit for bit."""
        s_ref, e_ref = self._reinjected_run()
        s_off, e_off = self._reinjected_run(*self.OFF_PATHS[toggle])
        assert s_ref.x.tobytes() == s_off.x.tobytes()
        assert s_ref.v.tobytes() == s_off.v.tobytes()
        assert s_ref.a.tobytes() == s_off.a.tobytes()
        assert np.array_equal(s_ref.status, s_off.status)
        for a, b in zip(e_ref, e_off):
            assert np.array_equal(a, b)

    def test_plain_tracker_state_pinned(self):
        _, state, tracker = self._track()
        for _ in range(15):
            tracker.step(state, 1e-3)
        assert _state_digest(state) == PINNED_TRACKER["plain"]

    def test_repeated_injection_keeps_locator_exact(self):
        """Cache growth across several injections with a frozen/active
        mix: the warm-start host cache must stay consistent."""
        airway, state, tracker = self._track()
        locator = ElementLocator(airway)
        for i in range(30):
            tracker.step(state, 1e-3)
            if i % 10 == 9:
                state.extend(inject_at_inlet(airway, 60, seed=100 + i))
            got = locator.elements_of_state(state)
            assert np.array_equal(got, locator.elements_of(state.x))
        assert (state.status != STATUS_ACTIVE).any()
        assert state.n > 400

    def test_locator_dtypes_are_intp(self):
        airway, state, _ = self._track(n=10)
        locator = ElementLocator(airway)
        assert locator.elements_of(state.x).dtype == np.intp
        assert locator.elements_of(np.zeros((0, 3))).dtype == np.intp
        assert locator.elements_of_state(state).dtype == np.intp

    def test_flowfield_fused_locate_identical(self):
        from repro.particles import AirwayFlow

        airway = small_airway()
        flow = AirwayFlow(airway.segments)
        state = inject_at_inlet(airway, 300, seed=4)
        rng = np.random.default_rng(9)
        pts = state.x + 1e-4 * rng.standard_normal(state.x.shape)
        s_ref, a_ref, r_ref = _broadcast_locate(flow, pts)
        s_f, a_f, r_f = flow.locate(pts)
        assert np.array_equal(s_ref, s_f)
        assert a_ref.tobytes() == a_f.tobytes()
        assert r_ref.tobytes() == r_f.tobytes()

    def test_compaction_survives_external_status_edit(self):
        """An external status write between steps invalidates the
        compacted permutation (detected via the status snapshot)."""
        airway, state, tracker = self._track()
        for _ in range(5):
            tracker.step(state, 1e-3)
        # freeze an active particle behind the tracker's back
        idx = int(np.argmax(state.status == STATUS_ACTIVE))
        state.status[idx] = 2  # STATUS_ESCAPED
        x_before = state.x[idx].copy()
        tracker.step(state, 1e-3)
        # the edited particle must not have moved
        assert state.status[idx] == 2
        assert np.array_equal(state.x[idx], x_before)

    def test_empty_locate(self):
        from repro.particles import AirwayFlow

        flow = AirwayFlow(small_airway().segments)
        seg, axial, radial = flow.locate(np.zeros((0, 3)))
        assert seg.dtype == np.intp and len(seg) == 0
        assert len(axial) == 0 and len(radial) == 0
        assert flow.velocity(np.zeros((0, 3))).shape == (0, 3)

    def test_bench_rows_present_and_gated(self):
        """The particle rows are after-only kernels: no in-build speedup,
        gated by the cross-PR trajectory check instead."""
        from repro.perf.bench import _benchmark_table

        rows = {r["name"]: r for r in _benchmark_table(quick=True)}
        for name in ("particle_location", "tracker_step", "interpolation"):
            assert rows[name]["kind"] == "kernel"
            assert "before_fn" not in rows[name]
            assert "min_speedup" not in rows[name]
