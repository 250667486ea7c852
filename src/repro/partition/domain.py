"""Domain decomposition: mesh -> MPI rank domains -> multidep subdomains.

Mirrors Alya's two-level decomposition:

* the mesh is partitioned into one domain per MPI rank (Metis in the paper;
  here the multilevel partitioner or RCB);
* inside each rank, the local elements are decomposed into *subdomains*,
  one multidependence task each, with the subdomain adjacency (share at
  least one node) providing the runtime-computed dependence lists.

The rank partition balances **element counts** — per-element costs differ by
type (prisms ~3x tets), which is precisely what produces the assembly load
imbalance of L96 ~ 0.66 the paper measures in Table 1.

Every rank is decomposed in the same whole-mesh passes: the elements are
grouped by rank, and node incidences are keyed by ``(rank, node)`` so that
no cross-rank pair ever forms — each rank sees exactly what a decomposition
of its own elements alone would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh.generator import AirwayMesh
from ..mesh.mesh import Mesh
from .metis import partition_graph
from .rcb import rcb_partition, segmented_rcb

__all__ = ["RankDomain", "Decomposition", "decompose_mesh", "rank_partition",
           "subdomain_decomposition", "halo_counts"]


@dataclass
class RankDomain:
    """Everything one MPI rank knows about its piece of the mesh."""

    rank: int
    element_ids: np.ndarray          # global element ids (memory order)
    sub_labels: np.ndarray           # per local element: subdomain id
    sub_adjacency: list[frozenset]   # per subdomain: neighbouring sub ids
    halo_nodes: int                  # interface nodes shared with other ranks
    colors: np.ndarray               # per local element: first-fit color of
                                     # the rank-local node-sharing graph

    @property
    def nelem(self) -> int:
        """Local element count."""
        return len(self.element_ids)

    @property
    def nsub(self) -> int:
        """Number of multidep subdomains."""
        return len(self.sub_adjacency)


@dataclass
class Decomposition:
    """A full two-level decomposition of a mesh."""

    mesh: Mesh
    nranks: int
    labels: np.ndarray               # per global element: owning rank
    domains: list[RankDomain]

    def domain(self, rank: int) -> RankDomain:
        """The :class:`RankDomain` of ``rank``."""
        return self.domains[rank]

    def elements_per_rank(self) -> np.ndarray:
        """Element count per rank."""
        return np.bincount(self.labels, minlength=self.nranks)


def rank_partition(airway: AirwayMesh | Mesh, nranks: int,
                   method: str = "multilevel", seed: int = 0) -> np.ndarray:
    """Per-element owning rank: the first level of :func:`decompose_mesh`.

    ``method`` selects the partitioner: ``"multilevel"`` (graph,
    Metis-like — uses the junction-aware dual graph for airway meshes) or
    ``"rcb"`` (geometric, faster for large meshes).
    """
    if isinstance(airway, AirwayMesh):
        mesh = airway.mesh
        dual = airway.dual_with_junctions if method == "multilevel" else None
    else:
        mesh = airway
        dual = mesh.face_adjacency if method == "multilevel" else None
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if method == "multilevel":
        return partition_graph(dual(), nranks, seed=seed)
    if method == "rcb":
        return rcb_partition(mesh.centroids(), nranks)
    raise ValueError(f"unknown method {method!r}")


def _subdomain_counts(nelem: np.ndarray, nsub: int,
                      min_elements_per_subdomain: int) -> np.ndarray:
    """Subdomains per rank: ``nsub``, but never so small that task
    overhead dominates (and none on an empty rank)."""
    floor = nelem // max(1, min_elements_per_subdomain)
    counts = np.maximum(1, np.minimum(np.minimum(nsub, nelem),
                                      np.where(floor > 0, floor, 1)))
    return np.where(nelem > 0, counts, 0)


def _rank_node_incidence(mesh: Mesh, element_ids: np.ndarray,
                         ranks: np.ndarray):
    """Element-node incidence of ``element_ids`` owned by ``ranks``, with
    one column per distinct ``(rank, node)`` pair.

    Returns ``(rows, cols, keys)``: per node entry, the position of its
    element in ``element_ids`` and its column; and per column the key
    ``rank * nnodes + node`` (sorted).
    """
    conn = mesh.elem_nodes[element_ids]
    valid = conn.ravel() >= 0
    rows = np.repeat(np.arange(len(element_ids)), conn.shape[1])[valid]
    keys = (np.asarray(ranks, dtype=np.int64)[rows] * mesh.nnodes
            + conn.ravel()[valid])
    keys, cols = np.unique(keys, return_inverse=True)
    return rows, cols.ravel(), keys


def _halos(keys: np.ndarray, nnodes: int, nranks: int) -> np.ndarray:
    """Interface node count per rank from the ``(rank, node)`` keys."""
    nodes = keys % nnodes
    shared = np.bincount(nodes, minlength=nnodes) >= 2
    return np.bincount(keys[shared[nodes]] // nnodes, minlength=nranks)


def _subdomain_adjacency(rows: np.ndarray, cols: np.ndarray, ncols: int,
                         subs: np.ndarray, first_sub: np.ndarray,
                         nsub: int, min_shared_nodes: int
                         ) -> list[frozenset]:
    """Per subdomain: the (rank-local) ids of the subdomains sharing at
    least ``min_shared_nodes`` of its ``(rank, node)`` columns.

    ``subs`` maps element positions to global subdomain ids; subdomain
    ``g`` of a rank whose first global id is ``first_sub[g]`` is local id
    ``g - first_sub[g]``.  One sparse product covers every rank.
    """
    from scipy import sparse

    inc = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int32), (subs[rows], cols)),
        shape=(nsub, ncols))
    inc.data[:] = 1  # count each (subdomain, node) incidence once
    counts = (inc @ inc.T).tocsr()
    src = np.repeat(np.arange(nsub), np.diff(counts.indptr))
    keep = (counts.data >= min_shared_nodes) & (src != counts.indices)
    dst = counts.indices[keep]
    local = (dst - first_sub[dst]).tolist()
    ptr = np.zeros(nsub + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=nsub), out=ptr[1:])
    ptr = ptr.tolist()
    # via set(): a frozenset copied from a set is sized for its contents,
    # one built from a list keeps the growth headroom (up to 2x memory)
    return [frozenset(set(local[ptr[g]:ptr[g + 1]])) for g in range(nsub)]


def _first_fit_colors(rows: np.ndarray, cols: np.ndarray, ncols: int,
                      n: int) -> np.ndarray:
    """First-fit coloring of the element conflict graph (share a column),
    in position order.

    Equals :func:`~repro.partition.greedy_coloring` of the node-sharing
    graph without building it: the colors already taken around element
    ``v`` are the union, over its columns, of a bitmask of the colors of
    the earlier elements on that column.
    """
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    ptr = ptr.tolist()
    cols = cols.tolist()
    masks = [0] * ncols
    colors = [0] * n
    for v in range(n):
        mine = cols[ptr[v]:ptr[v + 1]]
        used = 0
        for k in mine:
            used |= masks[k]
        bit = ~used & (used + 1)  # lowest free color
        for k in mine:
            masks[k] |= bit
        colors[v] = bit.bit_length() - 1
    return np.array(colors, dtype=np.int32)


def subdomain_decomposition(mesh: Mesh, element_ids: np.ndarray,
                            nsub: int, method: str = "rcb",
                            min_shared_nodes: int = 1,
                            min_elements_per_subdomain: int = 6
                            ) -> tuple[np.ndarray, list[frozenset]]:
    """Split a rank's elements into ``nsub`` subdomains and compute their
    node-sharing adjacency (the multidependence lists).

    ``method="rcb"`` (default) produces *spatially compact* subdomains —
    what Metis gives the paper — so each subdomain touches only a handful
    of neighbours and non-adjacent tasks really run concurrently.
    ``method="contiguous"`` chunks the memory order instead (maximal
    per-task locality, denser adjacency on thin rank domains).

    ``min_shared_nodes`` sets how many nodes two subdomains must share to
    count as adjacent.  The paper's rule is >= 1; on strongly scaled-down
    meshes the subdomains are so small that single-node contacts inflate
    the adjacency degree far beyond the production regime (~6-8
    neighbours), so experiments may raise the threshold — a documented
    scale compensation (see EXPERIMENTS.md).

    :func:`decompose_mesh` gives every rank the same result in one pass.
    """
    element_ids = np.asarray(element_ids, dtype=np.int64)
    nlocal = len(element_ids)
    if nlocal == 0:
        return np.zeros(0, dtype=np.int32), []
    nsub = int(_subdomain_counts(np.array([nlocal]), nsub,
                                 min_elements_per_subdomain)[0])
    if method == "rcb":
        sub_labels = segmented_rcb(mesh.centroids()[element_ids],
                                   [0, nlocal], [nsub])
    elif method == "contiguous":
        bounds = np.linspace(0, nlocal, nsub + 1).astype(np.int64)
        sub_labels = np.repeat(np.arange(nsub, dtype=np.int32),
                               np.diff(bounds))
    else:
        raise ValueError(f"unknown subdomain method {method!r}")
    rows, cols, keys = _rank_node_incidence(
        mesh, element_ids, np.zeros(nlocal, dtype=np.int64))
    adjacency = _subdomain_adjacency(rows, cols, len(keys), sub_labels,
                                     np.zeros(nsub, dtype=np.int64), nsub,
                                     min_shared_nodes)
    return sub_labels, adjacency


def halo_counts(mesh: Mesh, labels: np.ndarray, nranks: int) -> np.ndarray:
    """Interface (halo) node count per rank: nodes touched by elements of
    at least two different ranks."""
    _, _, keys = _rank_node_incidence(mesh, np.arange(mesh.nelem), labels)
    return _halos(keys, mesh.nnodes, nranks)


def decompose_mesh(airway: AirwayMesh | Mesh, nranks: int,
                   subdomains_per_rank: int = 16,
                   method: str = "multilevel",
                   min_shared_nodes: int = 1,
                   min_elements_per_subdomain: int = 6,
                   seed: int = 0,
                   labels: np.ndarray | None = None) -> Decomposition:
    """Two-level decomposition of a mesh (or airway mesh) for ``nranks``.

    ``method`` selects the rank-level partitioner (see
    :func:`rank_partition`); pass ``labels`` to reuse a rank partition
    already computed by it.  The subdomains of every rank come from
    :func:`subdomain_decomposition`'s rules, computed for all ranks at once.
    """
    mesh = airway.mesh if isinstance(airway, AirwayMesh) else airway
    if labels is None:
        labels = rank_partition(airway, nranks, method=method, seed=seed)
    # each rank's elements, contiguous and in memory order
    order = np.argsort(labels, kind="stable")
    nelem = np.bincount(labels, minlength=nranks)
    bounds = np.zeros(nranks + 1, dtype=np.int64)
    np.cumsum(nelem, out=bounds[1:])
    nsub = _subdomain_counts(nelem, subdomains_per_rank,
                             min_elements_per_subdomain)
    sub_bounds = np.zeros(nranks + 1, dtype=np.int64)
    np.cumsum(nsub, out=sub_bounds[1:])
    sub_labels = segmented_rcb(mesh.centroids()[order], bounds, nsub)
    ranks = np.repeat(np.arange(nranks), nelem)
    rows, cols, keys = _rank_node_incidence(mesh, order, ranks)
    adjacency = _subdomain_adjacency(
        rows, cols, len(keys), sub_bounds[ranks] + sub_labels,
        np.repeat(sub_bounds[:-1], nsub), int(sub_bounds[-1]),
        min_shared_nodes)
    colors = _first_fit_colors(rows, cols, len(keys), len(order))
    halos = _halos(keys, mesh.nnodes, nranks)
    domains = [RankDomain(rank=r,
                          element_ids=order[bounds[r]:bounds[r + 1]],
                          sub_labels=sub_labels[bounds[r]:bounds[r + 1]],
                          sub_adjacency=adjacency[sub_bounds[r]:
                                                  sub_bounds[r + 1]],
                          halo_nodes=int(halos[r]),
                          colors=colors[bounds[r]:bounds[r + 1]])
               for r in range(nranks)]
    return Decomposition(mesh=mesh, nranks=nranks, labels=labels,
                         domains=domains)
