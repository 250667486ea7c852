"""Reference implementations the fast numeric kernels are checked against.

These are the straightforward formulations the cached, split and
buffered kernels of ``repro.fem`` replaced, kept as they were except that
every cache is gone: geometry is recomputed per call, the operator is
assembled monolithically into COO triplets and deduplicated by SciPy's
``tocsr``.  The particle tracker's plain twins follow: ascending active
ids without compaction, and the unfused velocity and Newmark update.
Tests compare the production kernels against them value by value
(``tests/test_perf.py``, ``tests/test_geometry.py``).
"""

import numpy as np
from scipy import sparse

from repro.mesh.elements import ElementType, NODES_PER_TYPE
from repro.fem.shape import reference_element
from repro.particles import STATUS_ACTIVE, NewmarkTracker

_C1 = 4.0
_C2 = 2.0


def inline_geometry(coords, conn, ref):
    """Per-element, per-quadrature-point physical gradients and |J| dV.

    Returns (grads, dvol) with grads (ne, nq, nn, 3) and dvol (ne, nq).
    """
    xe = coords[conn]                                     # (ne, nn, 3)
    # J[e,q,i,j] = sum_n dN[q,n,i] * xe[e,n,j]  =  dx_j / dxi_i
    J = np.einsum("qni,enj->eqij", ref.dN, xe)
    detJ = np.linalg.det(J)
    invJ = np.linalg.inv(J)
    # chain rule: dN/dx_j = dN/dxi_i * dxi_i/dx_j, and since J is the
    # transposed conventional Jacobian, dxi_i/dx_j = invJ[j, i].
    grads = np.einsum("qni,eqji->eqnj", ref.dN, invJ)
    dvol = np.abs(detJ) * ref.weights[None, :]
    return grads, dvol


def monolithic_assembly(mesh, kappa=1.0, mass_coeff=0.0, velocity=None,
                        stabilize=True, element_ids=None, source=0.0):
    """``mass_coeff*M + C(velocity) + kappa*K`` assembled per call.

    Returns ``(matrix, rhs, scatter_counts, element_nodes)`` with the
    matrix in canonical CSR form (duplicates summed, indices sorted).
    """
    n = mesh.nnodes
    if element_ids is None:
        element_ids = np.arange(mesh.nelem)
    element_ids = np.asarray(element_ids)
    rows_all, cols_all, vals_all = [], [], []
    rhs = np.zeros(n)
    scatter = np.zeros(len(element_ids), dtype=np.int64)
    elem_nn = np.zeros(len(element_ids), dtype=np.int32)
    id_order = np.argsort(element_ids, kind="stable")
    sorted_ids = element_ids[id_order]
    etype_arr = mesh.elem_types[element_ids]
    for etype in ElementType:
        sel = etype_arr == etype
        eids = element_ids[sel]
        if len(eids) == 0:
            continue
        nn = NODES_PER_TYPE[etype]
        ref = reference_element(etype)
        conn = mesh.elem_nodes[eids][:, :nn]
        grads, dvol = inline_geometry(mesh.coords, conn, ref)
        # diffusion: K_ab = sum_q kappa grad_a . grad_b dV
        Ke = kappa * np.einsum("eqaj,eqbj,eq->eab", grads, grads, dvol)
        if mass_coeff != 0.0:
            Ke += mass_coeff * np.einsum("qa,qb,eq->eab", ref.N, ref.N, dvol)
        if velocity is not None:
            # advection velocity at quadrature points
            uq = np.einsum("qa,eaj->eqj", ref.N, velocity[conn])
            # C_ab = N_a (u . grad N_b) dV
            ugb = np.einsum("eqj,eqbj->eqb", uq, grads)
            Ke += np.einsum("qa,eqb,eq->eab", ref.N, ugb, dvol)
            if stabilize:
                # VMS/SUPG-style: tau (u.grad N_a)(u.grad N_b), with
                # tau ~ h / (2|u|) per element.
                h = np.cbrt(dvol.sum(axis=1))                      # (ne,)
                umag = np.linalg.norm(uq, axis=2).mean(axis=1)     # (ne,)
                tau = h / (2.0 * umag + 1e-12)
                uga = ugb  # same contraction for the 'a' index
                Ke += np.einsum("e,eqa,eqb,eq->eab", tau, uga, ugb, dvol)
        rows_all.append(np.repeat(conn, nn, axis=1).ravel())
        cols_all.append(np.tile(conn, (1, nn)).ravel())
        vals_all.append(Ke.ravel())
        if source != 0.0:
            fe = source * np.einsum("qa,eq->ea", ref.N, dvol)
            np.add.at(rhs, conn.ravel(), fe.ravel())
        pos = id_order[np.searchsorted(sorted_ids, eids)]
        scatter[pos] = nn * nn + nn   # matrix entries + rhs entries
        elem_nn[pos] = nn
    if rows_all:
        matrix = sparse.coo_matrix(
            (np.concatenate(vals_all),
             (np.concatenate(rows_all), np.concatenate(cols_all))),
            shape=(n, n)).tocsr()
    else:
        matrix = sparse.csr_matrix((n, n))
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix, rhs, scatter, elem_nn


def inline_sgs_update(mesh, values, velocity, viscosity, dt,
                      element_ids=None):
    """One SGS sweep with the geometry recomputed inline; updates and
    returns ``values`` (nelem, 3)."""
    if element_ids is None:
        element_ids = np.arange(mesh.nelem)
    element_ids = np.asarray(element_ids)
    etypes = mesh.elem_types[element_ids]
    for etype in ElementType:
        sel = etypes == etype
        eids = element_ids[sel]
        if len(eids) == 0:
            continue
        nn = NODES_PER_TYPE[etype]
        ref = reference_element(etype)
        conn = mesh.elem_nodes[eids][:, :nn]
        xe = mesh.coords[conn]
        ue = velocity[conn]                                   # (ne, nn, 3)
        J = np.einsum("qni,enj->eqij", ref.dN, xe)
        detJ = np.abs(np.linalg.det(J))
        vol = (detJ * ref.weights[None, :]).sum(axis=1)       # (ne,)
        h = np.cbrt(np.maximum(vol, 1e-300))
        invJ = np.linalg.inv(J)
        grads = np.einsum("qni,eqji->eqnj", ref.dN, invJ)
        # mean velocity and mean convective term over quadrature points
        uq = np.einsum("qa,eaj->eqj", ref.N, ue).mean(axis=1)  # (ne, 3)
        gradu = np.einsum("eqnj,enk->eqjk", grads, ue).mean(axis=1)
        conv = np.einsum("ej,ejk->ek", uq, gradu)              # (ne, 3)
        umag = np.linalg.norm(uq, axis=1)
        inv_tau = _C1 * viscosity / h ** 2 + _C2 * umag / h
        tau = 1.0 / (inv_tau + 1.0 / dt + 1e-30)
        residual = -conv - values[eids] / dt
        values[eids] = tau[:, None] * residual
    return values


class UncompactedTracker(NewmarkTracker):
    """Newmark tracker that finds the active particles by a fresh
    ascending scan every step (no compacted ``_order`` prefix)."""

    def _active_indices(self, state):
        return np.nonzero(state.status == STATUS_ACTIVE)[0]


class UnfusedTracker(NewmarkTracker):
    """Newmark tracker with plain ``flow.velocity`` (no locate reuse) and
    the Newmark update as one allocating expression."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reuse_locate = False

    def _newmark(self, x, v, a, u_f, k, m, dt, gdt):
        denom = 1.0 + gdt * k / m
        v1 = (v + dt * (1.0 - self.gamma) * a
              + gdt * (k * u_f / m + self._g_eff)) / denom
        a1 = k * (u_f - v1) / m + self._g_eff
        x1 = (x + dt * v
              + dt * dt * ((0.5 - self.beta) * a + self.beta * a1))
        return x1, v1, a1
