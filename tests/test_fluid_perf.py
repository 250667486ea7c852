"""Pinned digests and unit tests for the numeric fluid fast paths.

Momentum-operator recycling, the cached deflation setup and the
allocation-free Krylov cores are unconditional.  Their fields and Krylov
iteration counts are pinned below to the values recorded on the last
build that still carried the ``fluid_operator_recycle``,
``deflation_setup_cache`` and ``krylov_buffers`` toggles, where all eight
toggle combinations produced them bit for bit, for both pressure solvers.
The recycler's own bit-for-bit self-check against the naive
``vector_operator`` + ``apply_dirichlet`` system runs at every solver
construction.
"""

import hashlib

import numpy as np
import pytest
from scipy import sparse

from repro.fem import (FlowBC, FractionalStepSolver, apply_dirichlet,
                       assemble_operator, vector_operator)
from repro.fem.dirichlet import DirichletSlots
from repro.fem.fractional_step import FLUID_COUNTERS
from repro.fem.vector import vector_expansion_perm
from repro.mesh.airway import Segment
from repro.mesh.generator import MeshResolution, build_tube_mesh

#: sha256 over (u bytes, p bytes, per-step iteration counts) of
#: ``_run_steps`` on the test tube, per pressure solver
PINNED_STEPS = {
    "cg": "90bc42559c52308d1065b299cffcfc16d4e053db97571c48ac410b331b5d1caa",
    "deflated": "300382682cc7aef579e881aa76132a257f96774ebd387538ccbed7a51a6123e3",
}

#: digests of the bench-sized tube (``repro.perf.bench._fluid_tube``) over
#: both pressure solvers: fixed steps, CFL-controlled ``advance_to``, and
#: ``advance_to`` with the ventilator hub driving the inlet
PINNED_TUBE = {
    "fixed": "ab0149dd66a8659bded17bda079d540ecb63248fc2307fcb270ae3b6a2d25954",
    "adaptive": "2f9a22f3885f758a35815960dc6e90a1f4a57ed6b61192c3d19795e95b563a99",
    "breathing": "20793a4f5d1e35aef988455072a0bd8902a67516b79bb34f40746d0471ace584",
}


@pytest.fixture(scope="module")
def tube():
    seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                  direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                  radius=0.01)
    mesh = build_tube_mesh(seg, MeshResolution(points_per_ring=8,
                                               max_sections=6))
    z = mesh.coords[:, 2]
    r = np.linalg.norm(mesh.coords[:, :2], axis=1)
    inlet = np.nonzero(np.isclose(z, 0.0) & (r < 0.0099))[0]
    outlet = np.nonzero(np.isclose(z, -0.04))[0]
    wall = np.nonzero(np.isclose(r, 0.01))[0]
    u_in = np.zeros((len(inlet), 3))
    u_in[:, 2] = -1.0 * (1.0 - (r[inlet] / 0.01) ** 2)
    bc = FlowBC(inlet_nodes=inlet, inlet_velocity=u_in, wall_nodes=wall,
                outlet_nodes=outlet)
    return mesh, bc


def _run_steps(mesh, bc, pressure_solver, n_steps=6):
    solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                  dt=2e-3, pressure_solver=pressure_solver)
    infos = solver.run(n_steps, tol=1e-6)
    iters = [(i.momentum_iterations, i.pressure_iterations) for i in infos]
    return solver.u.tobytes(), solver.p.tobytes(), iters


def _bench_tube_digest(advance) -> str:
    """Fresh solvers on the bench tube, one per pressure solver, advanced
    by ``advance(solver)``, which returns the per-step records to hash."""
    from repro.perf.bench import _fluid_tube

    mesh, bc = _fluid_tube()
    digest = hashlib.sha256()
    for pressure_solver in ("cg", "deflated"):
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=2e-3,
                                      pressure_solver=pressure_solver)
        records = advance(solver)
        digest.update(solver.u.tobytes())
        digest.update(solver.p.tobytes())
        digest.update(repr(records).encode())
    return digest.hexdigest()


def _fixed(solver):
    return [(i.momentum_iterations, i.pressure_iterations)
            for i in solver.run(6, tol=1e-5)]


def _adaptive(solver):
    from repro.fem import CflController, DtLadder

    control = CflController(ladder=DtLadder(dt_min=5e-4, dt_max=4e-3))
    return [(i.momentum_iterations, i.pressure_iterations, round(i.dt, 12),
             i.rung)
            for i in solver.advance_to(8e-3, control=control, tol=1e-5)]


def _breathing(solver):
    from repro.cosim import (BreathingPattern, LungModel,
                             VENTILATION_PATTERNS, VentilatorSettings,
                             hub_for)
    from repro.fem import CflController, DtLadder

    pattern = BreathingPattern(
        LungModel(), VentilatorSettings(**VENTILATION_PATTERNS["rest"]))
    hub = hub_for(pattern, n_cycles=1, horizon=8e-3)
    control = CflController(ladder=DtLadder(dt_min=5e-4, dt_max=4e-3))
    infos = solver.advance_to(8e-3, control=control,
                              inlet_scale=hub.scale_at, tol=1e-5)
    return [(i.momentum_iterations, i.pressure_iterations, round(i.dt, 12),
             i.rung, round(i.inlet_scale, 12)) for i in infos]


class TestFluidFastPath:
    @pytest.mark.parametrize("pressure_solver", ["cg", "deflated"])
    def test_tube_digest_pinned(self, tube, pressure_solver):
        """Fields and iteration counts match the pinned values, and a
        rerun replays them bit for bit."""
        mesh, bc = tube
        u, p, iters = _run_steps(mesh, bc, pressure_solver)
        digest = hashlib.sha256(u + p + repr(iters).encode()).hexdigest()
        assert digest == PINNED_STEPS[pressure_solver]
        assert _run_steps(mesh, bc, pressure_solver) == (u, p, iters)

    @pytest.mark.parametrize("workload", ["fixed", "adaptive", "breathing"])
    def test_bench_tube_digest_pinned(self, workload):
        advance = {"fixed": _fixed, "adaptive": _adaptive,
                   "breathing": _breathing}[workload]
        assert _bench_tube_digest(advance) == PINNED_TUBE[workload]

    def test_counters_track_the_active_path(self, tube):
        mesh, bc = tube
        before = dict(FLUID_COUNTERS)
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3,
                                      density=1.0, dt=2e-3,
                                      pressure_solver="deflated")
        solver.run(2, tol=1e-6)
        assert FLUID_COUNTERS["momentum_recycled"] \
            == before["momentum_recycled"] + 2
        assert FLUID_COUNTERS["deflation_setups_built"] \
            == before["deflation_setups_built"] + 1
        assert FLUID_COUNTERS["deflation_setups_reused"] \
            == before["deflation_setups_reused"] + 2
        assert FLUID_COUNTERS["pressure_deflated_solves"] \
            == before["pressure_deflated_solves"] + 2

    def test_stale_pattern_raises(self, tube):
        """The recycler refuses to gather through a pattern that no longer
        matches the scalar assembly (static-mesh contract)."""
        mesh, bc = tube
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3,
                                      density=1.0, dt=2e-3)
        solver._scalar_nnz += 1
        with pytest.raises(ValueError, match="stale"):
            solver.step(tol=1e-6)

    def test_lumped_mass_cached(self, tube):
        mesh, bc = tube
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=2e-3)
        np.testing.assert_array_equal(
            solver._lumped, np.asarray(solver.M.sum(axis=1)).ravel())
        nodes = bc.outlet_nodes
        normal = np.array([0.0, 0.0, -1.0])
        u_n = solver.u[nodes] @ normal
        w = np.asarray(solver.M.sum(axis=1)).ravel()[nodes]
        expected = float((u_n * w).sum() / w.sum())
        assert solver.flow_rate_through(nodes, normal) == expected


class TestVectorExpansionPerm:
    def test_reproduces_vector_operator_bitwise(self, tube):
        mesh, _ = tube
        scalar = assemble_operator(mesh, kappa=1e-3, mass_coeff=500.0,
                                   velocity=np.ones((mesh.nnodes, 3))).matrix
        perm, indices, indptr = vector_expansion_perm(scalar, mesh.nnodes)
        naive = vector_operator(mesh, kappa=1e-3, mass_coeff=500.0,
                                velocity=np.ones((mesh.nnodes, 3)))
        np.testing.assert_array_equal(indices, naive.indices)
        np.testing.assert_array_equal(indptr, naive.indptr)
        np.testing.assert_array_equal(scalar.data[perm], naive.data)


class TestDirichletSlots:
    def _system(self, n=40, seed=4):
        rng = np.random.default_rng(seed)
        A = sparse.random(n, n, density=0.15, random_state=rng).tocsr()
        A = A + sparse.identity(n)  # stored diagonal
        dofs = np.array([0, 5, 17, n - 1])
        values = np.array([1.0, -2.0, 0.5, 3.0])
        return A.tocsr(), dofs, values

    def test_apply_matches_apply_dirichlet_bitwise(self):
        A, dofs, values = self._system()
        slots = DirichletSlots(A, dofs, values)
        rng = np.random.default_rng(7)
        for _ in range(3):
            data = rng.normal(size=A.nnz)
            B = sparse.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
            b = rng.normal(size=A.shape[0])
            ref_A, ref_b = apply_dirichlet(B, b.copy(), dofs, values)
            got_A, got_b = slots.apply(data, b.copy())
            np.testing.assert_array_equal(got_A.indptr, ref_A.indptr)
            np.testing.assert_array_equal(got_A.indices, ref_A.indices)
            np.testing.assert_array_equal(got_A.data, ref_A.data)
            np.testing.assert_array_equal(got_b, ref_b)

    def test_diag_slots_view_the_diagonal(self):
        A, dofs, values = self._system()
        slots = DirichletSlots(A, dofs, values)
        assert slots.diag_slots is not None
        data = np.arange(1.0, A.nnz + 1)
        got_A, _ = slots.apply(data, np.zeros(A.shape[0]))
        np.testing.assert_array_equal(
            got_A.data[slots.diag_slots], got_A.diagonal())

    def test_stale_data_length_raises(self):
        A, dofs, values = self._system()
        slots = DirichletSlots(A, dofs, values)
        with pytest.raises(ValueError, match="stale"):
            slots.apply(np.zeros(A.nnz + 3), np.zeros(A.shape[0]))
