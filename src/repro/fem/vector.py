"""Vector-valued (3-DOF-per-node) finite-element operators.

The momentum equation of the incompressible Navier-Stokes system (paper
Eqs. 1-2) is vector-valued: velocity carries three degrees of freedom per
node.  This module assembles the vector counterparts of the scalar
operators in :mod:`repro.fem.assembly`:

* block-diagonal mass / convection / diffusion (each velocity component
  sees the same scalar stencil — the Laplacian form of the viscous term),
* the discrete **gradient** (n_p x 3n_u) and **divergence** operators
  coupling velocity and pressure, needed by the fractional-step scheme.

DOF layout: component-major interleaved — node ``i`` owns rows
``3 i + c`` for component ``c`` (the layout Alya uses for cache locality).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from ..mesh.elements import NODES_PER_TYPE
from ..mesh.mesh import Mesh
from . import geometry as _geom
from .shape import reference_element

__all__ = ["vector_operator", "vector_expansion_perm", "gradient_operator",
           "divergence_operator", "interleave", "deinterleave"]


def interleave(field: np.ndarray) -> np.ndarray:
    """(n, 3) nodal field -> (3n,) interleaved DOF vector."""
    field = np.asarray(field)
    if field.ndim != 2 or field.shape[1] != 3:
        raise ValueError(f"field must be (n, 3), got {field.shape}")
    return field.reshape(-1)


def deinterleave(dofs: np.ndarray) -> np.ndarray:
    """(3n,) interleaved DOF vector -> (n, 3) nodal field."""
    dofs = np.asarray(dofs)
    if dofs.ndim != 1 or dofs.shape[0] % 3:
        raise ValueError(f"dofs must be (3n,), got {dofs.shape}")
    return dofs.reshape(-1, 3)


def vector_operator(mesh: Mesh, kappa: float = 0.0, mass_coeff: float = 0.0,
                    velocity: Optional[np.ndarray] = None,
                    stabilize: bool = True) -> sparse.csr_matrix:
    """Assemble ``mass_coeff*M + C(velocity) + kappa*K`` with 3 DOF/node.

    Component-block-diagonal: the scalar element matrix is replicated on
    each velocity component (Laplacian viscous form; no cross-component
    coupling).  Returns a (3n x 3n) CSR matrix in interleaved layout.
    """
    from .assembly import assemble_operator

    scalar = assemble_operator(mesh, kappa=kappa, mass_coeff=mass_coeff,
                               velocity=velocity,
                               stabilize=stabilize).matrix.tocoo()
    return _expand_to_vector(scalar, mesh.nnodes)


def _expand_to_vector(scalar: sparse.coo_matrix, n: int) -> sparse.csr_matrix:
    """Replicate a scalar (n x n) COO operator on 3 interleaved components."""
    rows, cols, vals = [], [], []
    for c in range(3):
        rows.append(3 * scalar.row + c)
        cols.append(3 * scalar.col + c)
        vals.append(scalar.data)
    return sparse.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(3 * n, 3 * n)).tocsr()


def vector_expansion_perm(scalar: sparse.csr_matrix, n: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather permutation turning scalar CSR data into vector CSR data.

    For a scalar operator with a fixed sparsity pattern, the block-diagonal
    vector expansion of :func:`vector_operator` is purely structural: entry
    ``k`` of the vector matrix's data is some fixed entry ``perm[k]`` of the
    scalar data.  This pushes marker data (each scalar slot's index) through
    the *same* COO expansion code, so the returned ``(perm, indices,
    indptr)`` reproduces ``vector_operator``'s output bit-identically via
    ``data = scalar.data[perm]`` — without re-running the COO round trip
    per call.  Valid for any scalar matrix on the same pattern (static-mesh
    contract, as for the assembly pattern cache).
    """
    marker = sparse.csr_matrix(
        (np.arange(1, scalar.nnz + 1, dtype=np.float64),
         scalar.indices, scalar.indptr), shape=scalar.shape)
    vec = _expand_to_vector(marker.tocoo(), n)
    perm = vec.data.astype(np.int64) - 1
    return perm, vec.indices, vec.indptr


def _build_coupling(mesh: Mesh) -> sparse.csr_matrix:
    """Assemble the (n x 3n) weak-gradient coupling matrix."""
    n = mesh.nnodes
    rows, cols, vals = [], [], []
    for blk in _geom.geometry_blocks(mesh):
        nn = NODES_PER_TYPE[blk.etype]
        ref = reference_element(blk.etype)
        conn = blk.conn
        # Ge[e, a, b, c] = sum_q N_a(q) dN_b/dx_c(q) w_q |J|
        Ge = np.einsum("qa,eqbc,eq->eabc", ref.N, blk.grads, blk.dvol)
        for a in range(nn):
            for b in range(nn):
                for c in range(3):
                    rows.append(conn[:, a])
                    cols.append(3 * conn[:, b] + c)
                    vals.append(Ge[:, a, b, c])
    return sparse.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows).astype(np.int64),
          np.concatenate(cols).astype(np.int64))),
        shape=(n, 3 * n)).tocsr()


def _pressure_velocity_coupling(mesh: Mesh) -> sparse.csr_matrix:
    """G[i, 3j+c] = integral N_i dN_j/dx_c dV  (the weak gradient).

    The assembled matrix itself is cached per mesh (it is fully static,
    under the geometry cache's invalidation), so the gradient and
    divergence operators of one solver setup share a single build.  Treat
    the returned matrix as read-only.
    """
    def build():
        coupling = _build_coupling(mesh)
        nbytes = (coupling.data.nbytes + coupling.indices.nbytes
                  + coupling.indptr.nbytes)
        return coupling, nbytes
    return _geom.cached_extra(mesh, "pv_coupling", build)


def gradient_operator(mesh: Mesh) -> sparse.csr_matrix:
    """Discrete pressure gradient: (3n x n), maps pressure to momentum RHS.

    Weak form: (grad p, v) = -(p, div v) after integration by parts on the
    interior; here we use the direct form G^T with
    G[i, 3j+c] = integral N_i dN_j/dx_c.
    """
    return _pressure_velocity_coupling(mesh).T.tocsr()


def divergence_operator(mesh: Mesh) -> sparse.csr_matrix:
    """Discrete divergence: (n x 3n), D u ~ integral N_i div(u_h) dV."""
    return _pressure_velocity_coupling(mesh)
