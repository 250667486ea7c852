"""Mesh-based velocity interpolation for particle transport.

Alya evaluates the carrier velocity at each particle from the finite-
element field of its host element.  This module provides that code path on
our meshes: locate the host element (KD-tree, as in
:class:`~repro.particles.tracker.ElementLocator`) and interpolate the
nodal velocity with inverse-distance weights over the element's nodes —
the robust fallback interpolation particle codes use on hybrid elements
(exact inverse isoparametric maps are only cheap for tets).

The default experiments use the analytic
:class:`~repro.particles.flowfield.AirwayFlow` (documented substitution);
``MeshVelocityField`` lets users transport particles in *any* nodal field,
e.g. one produced by :class:`repro.fem.FractionalStepSolver`.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ..fem import geometry as _geom
from ..mesh.mesh import Mesh

__all__ = ["MeshVelocityField"]


def _shared_centroid_tree(mesh: Mesh) -> cKDTree:
    """One centroid KD-tree per mesh, under geometry-cache invalidation."""
    def build():
        centroids = mesh.centroids()
        return cKDTree(centroids), centroids.nbytes
    return _geom.cached_extra(mesh, "centroid_tree", build)


class MeshVelocityField:
    """Interpolates a nodal velocity field at arbitrary points.

    Parameters
    ----------
    mesh:
        The mesh carrying the field.
    nodal_velocity:
        (nnodes, 3) velocity at the mesh nodes.
    """

    def __init__(self, mesh: Mesh, nodal_velocity: np.ndarray):
        nodal_velocity = np.asarray(nodal_velocity, dtype=np.float64)
        if nodal_velocity.shape != (mesh.nnodes, 3):
            raise ValueError(
                f"nodal_velocity must be ({mesh.nnodes}, 3), got "
                f"{nodal_velocity.shape}")
        self.mesh = mesh
        self.nodal_velocity = nodal_velocity
        # one centroid tree per mesh, shared by every field on it
        self._tree = _shared_centroid_tree(mesh)
        # padded connectivity and a validity mask for vectorized gathers
        self._conn = mesh.elem_nodes
        self._valid = mesh.elem_nodes >= 0
        self._ws: dict = {}

    def _buffers(self, n: int) -> dict:
        """Reusable (capacity, 6[, 3]) buffers for the gather path."""
        ws = self._ws
        if not ws or ws["capacity"] < n:
            cap = max(n, 2 * ws.get("capacity", 0))
            nn = self._conn.shape[1]
            ws = self._ws = {
                "capacity": cap,
                "xyz": np.empty((cap, nn, 3)),
                "d": np.empty((cap, nn)),
                "w": np.empty((cap, nn)),
                "wsum": np.empty((cap, 1)),
                "vel": np.empty((cap, nn, 3)),
                "out": np.empty((cap, 3)),
            }
        return ws

    def velocity(self, points: np.ndarray) -> np.ndarray:
        """(n, 3) interpolated velocity at ``points``.

        Host element = nearest centroid; within the element the nodal
        values are combined with inverse-distance weights (exact at the
        nodes, smooth inside).
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(points) == 0:
            return np.zeros((0, 3))
        _, eids = self._tree.query(points)
        conn = self._conn[eids]                      # (n, 6)
        valid = self._valid[eids]                    # (n, 6)
        safe_conn = np.where(valid, conn, 0)
        return self._interpolate(points, valid, safe_conn)

    def _interpolate(self, points: np.ndarray, valid: np.ndarray,
                           safe_conn: np.ndarray) -> np.ndarray:
        """The inverse-distance combine through preallocated buffers —
        identical op sequence to the allocating formulation (kept as the
        oracle in ``tests/test_interpolation.py``), bit-identical output."""
        n = len(points)
        ws = self._buffers(n)
        xyz = ws["xyz"][:n]
        d, w, wsum = ws["d"][:n], ws["w"][:n], ws["wsum"][:n]
        vel = ws["vel"][:n]
        self.mesh.coords.take(safe_conn, axis=0, out=xyz)
        np.subtract(xyz, points[:, None, :], out=xyz)
        # np.linalg.norm(..., axis=2): x*x, add.reduce, sqrt
        np.multiply(xyz, xyz, out=xyz)
        np.add.reduce(xyz, axis=2, out=d)
        np.sqrt(d, out=d)
        np.maximum(d, 1e-15, out=d)
        np.divide(1.0, d, out=d)
        np.multiply(d, valid, out=w)     # where(valid, 1/max(d,eps), 0)
        np.add.reduce(w, axis=1, out=wsum[:, 0])
        np.divide(w, wsum, out=w)
        self.nodal_velocity.take(safe_conn, axis=0, out=vel)
        return np.einsum("nk,nkj->nj", w, vel, out=ws["out"][:n]).copy()

    def host_elements(self, points: np.ndarray) -> np.ndarray:
        """Host element id per point (nearest centroid)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(points) == 0:
            return np.zeros(0, dtype=np.intp)
        _, eids = self._tree.query(points)
        return eids.astype(np.intp, copy=False)
