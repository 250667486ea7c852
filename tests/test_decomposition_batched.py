"""The batched two-level decomposition against the per-rank reference.

:func:`repro.partition.decompose_mesh` and ``Workload.decomposition`` build
every rank's subdomains, adjacency, halo, coloring and work meters in
whole-mesh passes.  The reference below is the per-rank implementation
they replaced (one RCB, one incidence product, one conflict graph and one
coloring per rank), kept as it was except that the rank partition is
passed in and each rank comes back as a tuple or dict; the batched
results must equal it field by field.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.app import Workload, WorkloadSpec
from repro.fem import element_work_meters
from repro.mesh import (
    AirwayConfig,
    MeshResolution,
    Segment,
    build_airway_mesh,
    build_tube_mesh,
)
from repro.mesh.generator import AirwayMesh
from repro.partition import (
    decompose_mesh,
    greedy_coloring,
    halo_counts,
    partition_graph,
    rank_partition,
    rcb_partition,
    segmented_rcb,
    subdomain_decomposition,
)


# -- per-rank reference ------------------------------------------------------

def ref_subdomain_decomposition(mesh, element_ids, nsub, method="rcb",
                                min_shared_nodes=1,
                                min_elements_per_subdomain=6):
    nlocal = len(element_ids)
    if nlocal == 0:
        return np.zeros(0, dtype=np.int32), []
    # never create subdomains so small that task overhead dominates
    nsub = max(1, min(nsub, nlocal,
                      nlocal // max(1, min_elements_per_subdomain) or 1))
    if method == "rcb":
        sub_labels = rcb_partition(mesh.centroids()[element_ids],
                                   nsub).astype(np.int32)
    elif method == "contiguous":
        bounds = np.linspace(0, nlocal, nsub + 1).astype(np.int64)
        sub_labels = np.zeros(nlocal, dtype=np.int32)
        for s in range(nsub):
            sub_labels[bounds[s]:bounds[s + 1]] = s
    else:
        raise ValueError(f"unknown subdomain method {method!r}")
    # adjacency: count nodes shared between subdomain pairs
    from scipy import sparse

    conn = mesh.elem_nodes[element_ids]
    valid = conn.ravel() >= 0
    nodes = conn.ravel()[valid]
    subs = np.repeat(sub_labels, conn.shape[1])[valid]
    inc = sparse.csr_matrix(
        (np.ones(len(nodes), dtype=np.int32), (subs, nodes)),
        shape=(nsub, mesh.nnodes))
    inc.data[:] = 1  # count each (subdomain, node) incidence once
    counts = (inc @ inc.T).tocoo()
    mask = (counts.data >= min_shared_nodes) & (counts.row != counts.col)
    adjacency = [set() for _ in range(nsub)]
    for x, y in zip(counts.row[mask], counts.col[mask]):
        adjacency[x].add(int(y))
    return sub_labels, [frozenset(s) for s in adjacency]


def ref_halo_counts(mesh, labels, nranks):
    from scipy import sparse

    valid = mesh.elem_nodes.ravel() != -1
    nodes = mesh.elem_nodes.ravel()[valid]
    owners = np.repeat(labels, 6)[valid]
    inc = sparse.csr_matrix(
        (np.ones(len(nodes), dtype=np.int8), (nodes, owners)),
        shape=(mesh.nnodes, nranks))
    inc.data[:] = 1
    ranks_per_node = np.asarray(inc.sum(axis=1)).ravel()
    shared = ranks_per_node >= 2
    counts = np.zeros(nranks, dtype=np.int64)
    for r in range(nranks):
        touched = np.asarray(
            inc[:, r].todense()).ravel().astype(bool)
        counts[r] = int((touched & shared).sum())
    return counts


def ref_rank_labels(airway, nranks, method="multilevel", seed=0):
    if isinstance(airway, AirwayMesh):
        mesh = airway.mesh
        dual = airway.dual_with_junctions if method == "multilevel" else None
    else:
        mesh = airway
        dual = mesh.face_adjacency if method == "multilevel" else None
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if method == "multilevel":
        labels = partition_graph(dual(), nranks, seed=seed)
    elif method == "rcb":
        labels = rcb_partition(mesh.centroids(), nranks)
    else:
        raise ValueError(f"unknown method {method!r}")
    return labels


def ref_decompose_mesh(mesh, nranks, labels, subdomains_per_rank=16,
                       min_shared_nodes=1, min_elements_per_subdomain=6):
    """Per rank: (element_ids, sub_labels, adjacency, halo nodes)."""
    halos = ref_halo_counts(mesh, labels, nranks)
    domains = []
    for r in range(nranks):
        element_ids = np.nonzero(labels == r)[0]
        sub_labels, adjacency = ref_subdomain_decomposition(
            mesh, element_ids, subdomains_per_rank,
            min_shared_nodes=min_shared_nodes,
            min_elements_per_subdomain=min_elements_per_subdomain)
        domains.append((element_ids, sub_labels, adjacency, int(halos[r])))
    return domains


def ref_colors(mesh, ids):
    return (greedy_coloring(mesh.node_sharing_adjacency(ids))
            if len(ids) else np.zeros(0, dtype=np.int32))


def ref_neighbor_bytes(wl, labels, nranks):
    from scipy import sparse

    valid = wl.mesh.elem_nodes.ravel() >= 0
    nodes = wl.mesh.elem_nodes.ravel()[valid]
    owners = np.repeat(labels, 6)[valid]
    inc = sparse.csr_matrix(
        (np.ones(len(nodes), dtype=np.int32), (nodes, owners)),
        shape=(wl.mesh.nnodes, nranks))
    inc.data[:] = 1
    shared = (inc.T @ inc).tocoo()   # (r, s): nodes touched by both
    out = [[] for _ in range(nranks)]
    for r, t, count in zip(shared.row, shared.col, shared.data):
        if r != t and count > 0:
            out[int(r)].append(
                (int(t), float(count) * wl.costs.halo_bytes_per_node))
    return out


def ref_rank_work(wl, nranks, labels, domains):
    """The per-rank meter loop of ``Workload.decomposition`` over
    ``ref_decompose_mesh`` domains: one dict of ``RankWork`` fields per
    rank."""
    K = wl.operators()["continuity"]
    row_nnz = np.diff(K.indptr)
    node_owner = rcb_partition(wl.mesh.coords, nranks,
                               weights=row_nnz.astype(np.float64))
    neighbor_bytes = ref_neighbor_bytes(wl, labels, nranks)
    ranks = []
    for rank, (ids, sub_labels, adjacency, halo) in enumerate(domains):
        a_instr, atomics = element_work_meters(
            wl.mesh, wl.costs.assembly_instr, ids)
        s_instr, _ = element_work_meters(wl.mesh, wl.costs.sgs_instr, ids)
        owned_rows = node_owner == rank
        ranks.append(dict(
            rank=rank, element_ids=ids, assembly_instr=a_instr,
            assembly_atomics=atomics, sgs_instr=s_instr,
            colors=ref_colors(wl.mesh, ids), sub_labels=sub_labels,
            sub_adjacency=adjacency,
            solver_nnz=float(row_nnz[owned_rows].sum()),
            halo_bytes=halo * wl.costs.halo_bytes_per_node,
            neighbors=neighbor_bytes[rank]))
    return ranks


# -- helpers -------------------------------------------------------------------

def assert_same_array(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
    assert np.array_equal(got, want), what


def assert_same_domains(dec, domains, mesh):
    assert len(dec.domains) == len(domains)
    for dom, (ids, sub_labels, adjacency, halo) in zip(dec.domains,
                                                       domains):
        assert_same_array(dom.element_ids, ids, "element_ids")
        assert_same_array(dom.sub_labels, sub_labels, "sub_labels")
        assert dom.sub_adjacency == adjacency
        assert dom.halo_nodes == halo
        assert_same_array(dom.colors, ref_colors(mesh, ids), "colors")


def tube():
    seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                  direction=np.array([0.0, 0.0, -1.0]), length=0.08,
                  radius=0.01)
    return build_tube_mesh(seg, MeshResolution(points_per_ring=8))


@functools.lru_cache(maxsize=None)
def airway(generations):
    return build_airway_mesh(AirwayConfig(generations=generations,
                                          seed=2018),
                             MeshResolution(points_per_ring=8, rings=3))


@functools.lru_cache(maxsize=None)
def workload(generations):
    return Workload(WorkloadSpec(generations=generations))


# Every airway generation meets three rank counts and every rank count at
# least two generations; the multilevel partitioner costs ~1-2 s per mesh
# at 64-96 ranks, so those counts run on the smallest airway only.
WORKLOAD_CASES = (
    [(2, 1, "rcb"), (2, 16, "rcb"), (2, 96, "rcb"), (3, 3, "rcb"),
     (3, 64, "rcb"), (3, 96, "rcb"), (4, 1, "rcb"), (4, 16, "rcb"),
     (4, 64, "rcb"), (5, 3, "rcb"), (5, 64, "rcb"), (5, 96, "rcb")]
    + [(2, 3, "multilevel"), (2, 96, "multilevel"), (3, 16, "multilevel"),
       (4, 3, "multilevel"), (5, 16, "multilevel")])
#: (subdomains_per_rank, min_shared_nodes); the first is the run default
SUBDOMAIN_PARAMS = ((64, 4), (64, 1), (16, 4), (16, 1))
RANKS = (1, 3, 16, 64, 96)


class TestWorkloadDecomposition:
    @pytest.mark.parametrize("generations,nranks,method", WORKLOAD_CASES)
    def test_rank_work_matches_per_rank_reference(self, generations, nranks,
                                                  method):
        wl = workload(generations)
        labels = wl.rank_labels(nranks, method)
        (spr, min_shared), *others = SUBDOMAIN_PARAMS
        data = wl.decomposition(nranks, subdomains_per_rank=spr,
                                method=method, min_shared_nodes=min_shared)
        assert data.labels is labels
        want = ref_rank_work(wl, nranks, labels, ref_decompose_mesh(
            wl.mesh, nranks, labels, spr, min_shared, 3))
        assert len(data.ranks) == nranks
        for rw, ref in zip(data.ranks, want):
            assert rw.rank == ref["rank"]
            for name in ("element_ids", "assembly_instr", "assembly_atomics",
                         "sgs_instr", "colors", "sub_labels"):
                assert_same_array(getattr(rw, name), ref[name], name)
            assert rw.sub_adjacency == ref["sub_adjacency"]
            assert rw.solver_nnz == ref["solver_nnz"]
            assert rw.halo_bytes == ref["halo_bytes"]
            assert rw.neighbors == ref["neighbors"]
        # the subdomain parameters only move the subdomain fields
        for spr, min_shared in others:
            data = wl.decomposition(nranks, subdomains_per_rank=spr,
                                    method=method,
                                    min_shared_nodes=min_shared)
            want = ref_decompose_mesh(wl.mesh, nranks, labels, spr,
                                      min_shared, 3)
            for rw, (_, sub_labels, adjacency, _) in zip(data.ranks, want):
                assert_same_array(rw.sub_labels, sub_labels, "sub_labels")
                assert rw.sub_adjacency == adjacency

    @pytest.mark.parametrize("generations,nranks,method",
                             [(2, 3, "multilevel"), (3, 64, "rcb"),
                              (5, 96, "rcb")])
    def test_rank_labels_are_the_reference_partition(self, generations,
                                                     nranks, method):
        wl = workload(generations)
        want = ref_rank_labels(wl.airway, nranks, method)
        assert_same_array(wl.rank_labels(nranks, method), want, "labels")


class TestDecomposeMesh:
    @pytest.mark.parametrize(
        "nranks,method",
        [(n, "rcb") for n in RANKS] + [(n, "multilevel") for n in (1, 3, 16)])
    def test_tube_mesh(self, nranks, method):
        mesh = tube()
        labels = ref_rank_labels(mesh, nranks, method)
        for spr, min_shared in SUBDOMAIN_PARAMS:
            dec = decompose_mesh(mesh, nranks, subdomains_per_rank=spr,
                                 method=method, min_shared_nodes=min_shared)
            assert_same_array(dec.labels, labels, "labels")
            assert_same_domains(
                dec, ref_decompose_mesh(mesh, nranks, labels, spr,
                                        min_shared), mesh)

    def test_one_element_per_subdomain_branch(self):
        """Tiny ranks with no granularity floor get one subdomain per
        element: RCB's ``len(idx) <= nparts`` branch at the top level."""
        mesh = tube()
        labels = ref_rank_labels(mesh, 96, "rcb")
        dec = decompose_mesh(mesh, 96, subdomains_per_rank=16,
                             method="rcb", min_elements_per_subdomain=1,
                             labels=labels)
        assert any(d.nsub == d.nelem > 1 for d in dec.domains)
        assert_same_domains(
            dec, ref_decompose_mesh(mesh, 96, labels, 16, 1, 1), mesh)

    @pytest.mark.parametrize("generations", [2, 5])
    def test_empty_ranks(self, generations):
        """Ranks that own no element get empty meters and no subdomains."""
        aw = airway(generations)
        labels = 2 * ref_rank_labels(aw, 16, "rcb") + 1   # evens empty
        dec = decompose_mesh(aw, 33, subdomains_per_rank=64, method="rcb",
                             min_shared_nodes=4, labels=labels)
        assert [d.nelem for d in dec.domains[::2]] == [0] * 17
        assert all(d.sub_adjacency == [] for d in dec.domains[::2])
        assert_same_domains(
            dec, ref_decompose_mesh(aw.mesh, 33, labels, 64, 4), aw.mesh)

    @pytest.mark.parametrize("generations", [2, 3, 4, 5])
    @pytest.mark.parametrize("nranks", [1, 7, 96])
    def test_halo_counts(self, generations, nranks):
        mesh = airway(generations).mesh
        labels = rcb_partition(mesh.centroids(), nranks)
        assert_same_array(halo_counts(mesh, labels, nranks),
                          ref_halo_counts(mesh, labels, nranks), "halos")

    def test_rank_partition_validates(self):
        with pytest.raises(ValueError):
            rank_partition(tube(), 0)
        with pytest.raises(ValueError):
            rank_partition(tube(), 4, method="magic")


class TestSingleRankSubdomains:
    @pytest.mark.parametrize("method", ["rcb", "contiguous"])
    @pytest.mark.parametrize("nsub,min_shared,floor",
                             [(8, 1, 6), (16, 4, 6), (64, 2, 1), (5, 1, 3)])
    def test_matches_reference(self, method, nsub, min_shared, floor):
        mesh = tube()
        for ids in (np.arange(mesh.nelem), np.arange(0, mesh.nelem, 3),
                    np.arange(7)):
            got = subdomain_decomposition(
                mesh, ids, nsub, method=method, min_shared_nodes=min_shared,
                min_elements_per_subdomain=floor)
            want = ref_subdomain_decomposition(
                mesh, ids, nsub, method=method, min_shared_nodes=min_shared,
                min_elements_per_subdomain=floor)
            assert_same_array(got[0], want[0], "sub_labels")
            assert got[1] == want[1]


class TestSegmentedRCB:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                              st.integers(min_value=1, max_value=48)),
                    min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_rcb_partition_per_segment(self, segments, seed, grid):
        """On random clouds — on a coarse grid, many coordinate ties —
        every segment gets exactly ``rcb_partition``'s labels."""
        rng = np.random.default_rng(seed)
        lengths = [n for n, _ in segments]
        nparts = [k for _, k in segments]
        total = sum(lengths)
        points = (rng.integers(0, 3, size=(total, 3)).astype(np.float64)
                  if grid else rng.normal(size=(total, 3)))
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        got = segmented_rcb(points, bounds, nparts)
        assert got.dtype == np.int32
        for i, k in enumerate(nparts):
            lo, hi = bounds[i], bounds[i + 1]
            assert_same_array(got[lo:hi], rcb_partition(points[lo:hi], k),
                              f"segment {i}")

    def test_validation(self):
        with pytest.raises(ValueError):
            segmented_rcb(np.zeros(5), [0, 5], [2])
        with pytest.raises(ValueError):
            segmented_rcb(np.zeros((5, 3)), [0, 5], [0])
