"""Tests for the static-geometry cache (repro.fem.geometry) and its
consumers: cache identity/invalidation, memory accounting, the eviction
budget, the operator-split assembly path, the cached SGS geometry, the
shared centroid KD-tree, and the driver's vectorized exchange topology."""

import numpy as np
import pytest

from repro.fem import (
    SGSState,
    assemble_operator,
    cache_budget_bytes,
    cache_for,
    drop_cache,
    geometry_blocks,
    set_cache_budget,
    update_sgs,
)
from repro.fem import geometry as geom_mod
from repro.mesh import AirwayConfig, MeshResolution, build_airway_mesh

from .oracles import (inline_geometry, inline_sgs_update,
                      monolithic_assembly)


def small_airway():
    return build_airway_mesh(AirwayConfig(generations=3, seed=2018),
                             MeshResolution(points_per_ring=6, rings=2))


@pytest.fixture
def mesh():
    return small_airway().mesh


# -- cache identity, counters, invalidation --------------------------------

class TestGeometryCache:
    def test_hits_and_misses_counted(self, mesh):
        hits0 = geom_mod.COUNTERS.get("hits")
        misses0 = geom_mod.COUNTERS.get("misses")
        b1 = geometry_blocks(mesh)
        assert geom_mod.COUNTERS.get("misses") == misses0 + 1
        b2 = geometry_blocks(mesh)
        assert geom_mod.COUNTERS.get("hits") == hits0 + 1
        assert b2 is b1  # same cached list, not a recompute

    def test_blocks_match_inline_geometry(self, mesh):
        """Cached arrays are bit-identical to the kernels' inline compute."""
        from repro.fem.shape import reference_element
        from repro.mesh import NODES_PER_TYPE

        for blk in geometry_blocks(mesh):
            nn = NODES_PER_TYPE[blk.etype]
            conn = mesh.elem_nodes[blk.eids][:, :nn]
            grads, dvol = inline_geometry(mesh.coords, conn,
                                          reference_element(blk.etype))
            assert np.array_equal(blk.conn, conn)
            assert np.array_equal(blk.grads, grads)
            assert np.array_equal(blk.dvol, dvol)
            assert np.array_equal(blk.vol, dvol.sum(axis=1))
            assert np.array_equal(blk.h, np.cbrt(dvol.sum(axis=1)))

    def test_inplace_coordinate_mutation_invalidates(self, mesh):
        geometry_blocks(mesh)
        inv0 = geom_mod.COUNTERS.get("invalidations")
        cache0 = cache_for(mesh)
        mesh.coords[0, 0] += 1e-3
        blocks = geometry_blocks(mesh)  # must rebuild, not serve stale
        assert geom_mod.COUNTERS.get("invalidations") == inv0 + 1
        assert cache_for(mesh) is not cache0
        # the rebuilt geometry reflects the mutated coordinates
        from repro.fem.shape import reference_element
        from repro.mesh import NODES_PER_TYPE

        blk = blocks[0]
        nn = NODES_PER_TYPE[blk.etype]
        _, dvol = inline_geometry(mesh.coords,
                                  mesh.elem_nodes[blk.eids][:, :nn],
                                  reference_element(blk.etype))
        assert np.array_equal(blk.dvol, dvol)

    def test_inplace_connectivity_mutation_invalidates(self, mesh):
        geometry_blocks(mesh)
        inv0 = geom_mod.COUNTERS.get("invalidations")
        mesh.elem_nodes[0, 0], mesh.elem_nodes[0, 1] = (
            int(mesh.elem_nodes[0, 1]), int(mesh.elem_nodes[0, 0]))
        cache_for(mesh)
        assert geom_mod.COUNTERS.get("invalidations") == inv0 + 1

    def test_bytes_accounting_and_drop(self, mesh):
        drop_cache(mesh)
        bytes0 = geom_mod.COUNTERS.get("bytes_cached")
        geometry_blocks(mesh)
        cache = cache_for(mesh)
        assert cache.total_bytes > 0
        assert (geom_mod.COUNTERS.get("bytes_cached")
                == bytes0 + cache.total_bytes)
        drop_cache(mesh)
        assert geom_mod.COUNTERS.get("bytes_cached") == bytes0

    def test_eviction_budget(self, mesh):
        drop_cache(mesh)
        full = geometry_blocks(mesh)
        nbytes = sum(b.nbytes for b in full)
        drop_cache(mesh)
        previous = set_cache_budget(max(1, nbytes // 2))
        try:
            ev0 = geom_mod.COUNTERS.get("evictions")
            geometry_blocks(mesh)  # oversized single entry: kept anyway
            cache = cache_for(mesh)
            assert len(cache) == 1
            geometry_blocks(mesh, np.arange(mesh.nelem // 2))
            # inserting a second entry pushed past the budget: LRU evicted
            assert geom_mod.COUNTERS.get("evictions") > ev0
            assert len(cache) == 1
            assert cache.total_bytes <= nbytes
        finally:
            set_cache_budget(previous)
            drop_cache(mesh)

    def test_budget_accessors(self):
        previous = set_cache_budget(12345)
        try:
            assert cache_budget_bytes() == 12345
            with pytest.raises(ValueError, match="positive"):
                set_cache_budget(0)
        finally:
            set_cache_budget(previous)


# -- operator-split assembly -----------------------------------------------

class TestOperatorSplit:
    def _operands(self, mesh):
        rng = np.random.default_rng(7)
        return dict(kappa=1.9e-5, mass_coeff=230.0,
                    velocity=rng.normal(size=(mesh.nnodes, 3)), source=0.4)

    def test_split_matches_monolithic(self, mesh):
        kw = self._operands(mesh)
        mono, mono_rhs, mono_scatter, mono_nn = monolithic_assembly(mesh,
                                                                    **kw)
        split1 = assemble_operator(mesh, **kw)  # builds the constant part
        split2 = assemble_operator(mesh, **kw)  # reuses it
        for res in (split1, split2):
            assert np.array_equal(res.matrix.indices, mono.indices)
            assert np.array_equal(res.matrix.indptr, mono.indptr)
            # values agree to summation-order tolerance (the split sums the
            # constant and convective element matrices in a different order)
            assert np.allclose(res.matrix.data, mono.data,
                               rtol=1e-12, atol=1e-14)
            assert np.array_equal(res.rhs, mono_rhs)
            assert np.array_equal(res.scatter_counts, mono_scatter)
            assert np.array_equal(res.element_nodes, mono_nn)
        # repeated split assemblies are bit-identical to each other
        assert np.array_equal(split1.matrix.data, split2.matrix.data)

    def test_constant_operator_is_cached_copy(self, mesh):
        """velocity=None: the whole operator is constant across repeats."""
        a = assemble_operator(mesh, kappa=1.0, mass_coeff=2.0)
        hits0 = geom_mod.COUNTERS.get("hits")
        b = assemble_operator(mesh, kappa=1.0, mass_coeff=2.0)
        assert geom_mod.COUNTERS.get("hits") > hits0
        assert np.array_equal(a.matrix.data, b.matrix.data)
        assert a.matrix.data is not b.matrix.data

    def test_returned_arrays_are_copy_safe(self, mesh):
        """Mutating a result must not corrupt the cached constant blocks."""
        kw = self._operands(mesh)
        first = assemble_operator(mesh, **kw)
        first.rhs += 99.0
        first.matrix.data[:] = -1.0
        first.scatter_counts[:] = 0
        second = assemble_operator(mesh, **kw)
        mono, mono_rhs, mono_scatter, _ = monolithic_assembly(mesh, **kw)
        assert np.array_equal(second.rhs, mono_rhs)
        assert np.allclose(second.matrix.data, mono.data,
                           rtol=1e-12, atol=1e-14)
        assert np.array_equal(second.scatter_counts, mono_scatter)

    def test_stale_connectivity_still_detected(self, mesh):
        from repro.mesh import ElementType

        assemble_operator(mesh, kappa=1.0)
        tet = int(np.nonzero(mesh.elem_types == ElementType.TET)[0][0])
        mesh.elem_types[tet] = ElementType.PRISM
        mesh.elem_nodes[tet, 4:] = mesh.elem_nodes[tet, 0]
        with pytest.raises(ValueError, match="stale"):
            assemble_operator(mesh, kappa=1.0)


# -- SGS with cached geometry ----------------------------------------------

class TestSGSGeometry:
    def test_cached_geometry_is_bit_identical(self, mesh):
        rng = np.random.default_rng(5)
        vel = rng.normal(size=(mesh.nnodes, 3))

        state = SGSState.zeros(mesh.nelem)
        ref = np.zeros((mesh.nelem, 3))
        for _ in range(3):
            update_sgs(mesh, state, vel, viscosity=1.9e-5, dt=1e-4)
            inline_sgs_update(mesh, ref, vel, viscosity=1.9e-5, dt=1e-4)
        assert np.array_equal(ref, state.values)

    def test_restricted_element_set(self, mesh):
        rng = np.random.default_rng(6)
        vel = rng.normal(size=(mesh.nnodes, 3))
        ids = np.arange(mesh.nelem // 3)

        state = SGSState.zeros(mesh.nelem)
        update_sgs(mesh, state, vel, viscosity=1.9e-5, dt=1e-4,
                   element_ids=ids)
        ref = inline_sgs_update(mesh, np.zeros((mesh.nelem, 3)), vel,
                                viscosity=1.9e-5, dt=1e-4, element_ids=ids)
        assert np.array_equal(ref, state.values)


# -- shared centroid KD-tree -----------------------------------------------

class TestSharedCentroidTree:
    def test_fields_share_one_tree(self, mesh):
        from repro.particles.interpolation import MeshVelocityField

        drop_cache(mesh)
        vel = np.zeros((mesh.nnodes, 3))
        from scipy.spatial import cKDTree

        f1 = MeshVelocityField(mesh, vel)
        f2 = MeshVelocityField(mesh, vel)
        assert f1._tree is f2._tree
        # the shared tree answers like a private one
        pts = mesh.coords[:10] + 1e-4
        private = cKDTree(mesh.centroids())
        assert np.array_equal(f1.host_elements(pts), private.query(pts)[1])


# -- driver exchange topology ----------------------------------------------

class TestExchangeTopology:
    def test_vectorized_topology_matches_nested_loop(self):
        from repro.app.costs import DEFAULT_COSTS
        from repro.app.driver import RunConfig, _RunContext
        from repro.app.workload import WorkloadSpec, get_workload

        wl = get_workload(WorkloadSpec(generations=3, points_per_ring=6,
                                       n_steps=2))
        config = RunConfig(cluster="thunder", num_nodes=1, nranks=8,
                           mode="coupled", fluid_ranks=6)
        ctx = _RunContext(wl, config, DEFAULT_COSTS)
        fluid_n, particle_n = 6, 2
        overlap = wl.overlap_bytes(fluid_n, particle_n,
                                   method=config.partition_method)
        sends = [[] for _ in range(fluid_n)]
        recvs = [[] for _ in range(particle_n)]
        for i in range(fluid_n):          # the former nested python loop
            for j in range(particle_n):
                if overlap[i, j] > 0:
                    sends[i].append((ctx.particle_world_ranks[j],
                                     float(overlap[i, j])))
                    recvs[j].append(ctx.fluid_world_ranks[i])
        assert ctx.sends == sends
        assert ctx.recvs == recvs
        assert any(sends)  # the workload must actually exercise the path


class TestElementAdjacency:
    def test_radii_match_brute_force(self, mesh):
        adj = geom_mod.element_adjacency(mesh)
        centroids = mesh.centroids()
        n = mesh.nelem
        d = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :],
                           axis=2)
        np.fill_diagonal(d, np.inf)
        # r_self: half the distance to the nearest *other* centroid
        assert np.allclose(adj.r_self, 0.5 * d.min(axis=1), rtol=1e-12)
        # r_safe: half the distance to the nearest *non-candidate* centroid
        for e in range(0, n, max(1, n // 40)):
            cand = set(adj.candidates[e].tolist())
            out = [d[e, j] for j in range(n) if j not in cand]
            expect = 0.5 * min(out) if out else np.inf
            assert adj.r_safe[e] == pytest.approx(expect, rel=1e-12)

    def test_candidates_contain_self_and_are_valid(self, mesh):
        adj = geom_mod.element_adjacency(mesh)
        n = mesh.nelem
        assert adj.candidates.dtype == np.intp
        assert (adj.candidates[:, 0] == np.arange(n)).all()
        assert (adj.candidates >= 0).all() and (adj.candidates < n).all()
        assert (adj.r_self <= adj.r_safe + 1e-15).all()

    def test_cached_under_fingerprint(self, mesh):
        a1 = geom_mod.element_adjacency(mesh)
        a2 = geom_mod.element_adjacency(mesh)
        assert a1 is a2
        # coordinate mutation invalidates (fingerprinted like every block)
        mesh.coords[0, 0] += 1e-3
        a3 = geom_mod.element_adjacency(mesh)
        assert a3 is not a1
        mesh.coords[0, 0] -= 1e-3
