"""Reference implementations the fast numeric kernels are checked against.

These are the straightforward formulations the cached, split and
buffered kernels of ``repro.fem`` replaced, kept as they were except that
every cache is gone: geometry is recomputed per call, the operator is
assembled monolithically into COO triplets and deduplicated by SciPy's
``tocsr``.  The particle tracker's plain twins follow: ascending active
ids without compaction, and the unfused velocity and Newmark update.
Tests compare the production kernels against them value by value
(``tests/test_perf.py``, ``tests/test_geometry.py``).

The second half is the reference event stack the batched DES core is
checked against: :class:`ScalarEngine` (one ``(when, seq, event)`` heap
plus a now-queue, one :class:`Event` per deferred callback),
:class:`PerTaskTeam` (every graph dispatched task by task, no execution
plans) and :class:`StoreWorld` (MPI mailboxes are predicate-matched
:class:`Store` queues).  :func:`oracle_stack` swaps all three into
``repro.app.driver`` so an end-to-end run replays on the reference stack;
its digests must equal the production core's.
"""

import contextlib
import heapq
from collections import deque
from typing import Any, Callable, Deque, Optional

import numpy as np
import pytest
from scipy import sparse

from repro.mesh.elements import ElementType, NODES_PER_TYPE
from repro.fem.shape import reference_element
from repro.particles import STATUS_ACTIVE, NewmarkTracker
from repro.core import Team
from repro.sim import Engine, Event, SimulationError
from repro.smpi import ANY_SOURCE, ANY_TAG, World

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


# -- the reference event stack -----------------------------------------------

class _DeferEvent(Event):
    """An event carrying one frame-free callback: the scalar run loop
    invokes ``fn(*args)`` from ``_defer`` when the event pops."""

    __slots__ = ("_defer",)


class ScalarEngine(Engine):
    """The scalar event core: a priority queue of (time, seq, event).

    Same-time posts go to the inherited FIFO now-queue of (seq, event):
    the global (time, seq) order is preserved (the queue is compared
    against the heap head by seq) while an event triggered at the current
    time skips the heap sift.  Every deferred callback is one
    :class:`_DeferEvent`; nothing touches the arena or the calendar.
    """

    def __init__(self) -> None:
        super().__init__()
        self._queue: list[tuple[float, int, Event]] = []

    def _callback_event(self, fn, args, triggered: bool) -> _DeferEvent:
        ev = _DeferEvent.__new__(_DeferEvent)
        ev.engine = self
        ev.callbacks = []
        ev._triggered = triggered
        ev._processed = False
        ev._ok = True if triggered else None
        ev._value = None
        ev._defer = (fn, args)
        return ev

    def defer(self, fn: Callable[..., None], *args: Any):
        ev = self._callback_event(fn, args, True)
        self._post(ev)
        return ev

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any):
        ev = self._callback_event(fn, args, False)
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), ev))
        return ev

    def schedule_fn_at(self, when: float, fn: Callable[..., None],
                       *args: Any):
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past "
                                  f"({when} < {self.now})")
        ev = self._callback_event(fn, args, False)
        heapq.heappush(self._queue, (when, next(self._seq), ev))
        return ev

    def cancel_scheduled(self, handle) -> None:
        handle._defer = None

    def _schedule_at(self, when: float, event: Event) -> None:
        heapq.heappush(self._queue, (when, next(self._seq), event))

    def _pop(self) -> Event:
        """Remove and return the globally next event, advancing the clock.

        The now-queue holds only events posted at the current time, in seq
        order; the heap may also hold entries *at* the current time (e.g. a
        zero-delay Timeout created after earlier posts), so when both are
        candidates the smaller seq wins — reproducing the exact total
        (time, seq) order of a single heap.
        """
        nq = self._now_queue
        q = self._queue
        if nq:
            if q and q[0][0] <= self.now and q[0][1] < nq[0][0]:
                _, _, event = heapq.heappop(q)
                return event
            return nq.popleft()[1]
        if not q:
            raise SimulationError(
                f"no events scheduled ({self.alive_process_count} "
                f"processes still alive at t={self.now:.6f}s)")
        when, _, event = heapq.heappop(q)
        if when < self.now:
            raise SimulationError("time went backwards")
        self.now = when
        return event

    def _fire(self, event: Event) -> None:
        if not event._triggered:
            # a Timeout or timer reaching its deadline: trigger it now
            event._triggered = True
            event._ok = True
        self._n_events_processed += 1
        event._processed = True
        d = getattr(event, "_defer", None)
        if d is not None:
            event._defer = None
            d[0](*d[1])
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            cb(event)

    def step(self) -> None:
        self._fire(self._pop())

    def run(self, until: Optional[float] = None) -> None:
        if until is not None and until < self.now:
            raise SimulationError("cannot run into the past")
        nq = self._now_queue
        q = self._queue
        while nq or q:
            if self._stop_reason is not None:
                return
            if not nq:
                when = q[0][0]
                if until is not None and when > until:
                    self.now = until
                    return
            self._fire(self._pop())
        if until is not None:
            self.now = until


class _NoRecorder:
    """A recorder that records nothing: attaching one makes a
    :class:`~repro.core.Team` dispatch every graph task by task."""

    def record(self, rank, category, label, t0, t1) -> None:
        pass


class PerTaskTeam(Team):
    """A team that never builds an execution plan: every task starts and
    finishes through its own deferred events."""

    def __init__(self, *args, recorder=None, **kwargs):
        super().__init__(*args, recorder=recorder or _NoRecorder(), **kwargs)


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event carrying the item; if the
    store is empty the event stays pending until a matching ``put`` arrives.
    An optional filter predicate supports tag/source matching for MPI
    mailboxes.
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self._items: Deque[Any] = deque()
        self._getters: Deque[tuple[Event, Optional[Callable[[Any], bool]],
                                   Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, delivering it to the oldest matching getter."""
        for idx, (ev, pred, _meta) in enumerate(self._getters):
            if pred is None or pred(item):
                del self._getters[idx]
                ev.succeed(item)
                return
        self._items.append(item)

    def get(self, predicate: Optional[Callable[[Any], bool]] = None,
            meta: Any = None) -> Event:
        """Request the oldest item matching ``predicate`` (or any item).

        ``meta`` is opaque bookkeeping attached to a pending get — the MPI
        layer stores the (source, tag) of a posted receive there so that
        failure detection can fail receives addressed to a dead peer.
        """
        ev = Event(self.engine)
        for idx, item in enumerate(self._items):
            if predicate is None or predicate(item):
                del self._items[idx]
                ev.succeed(item)
                return ev
        self._getters.append((ev, predicate, meta))
        return ev

    def fail_pending(self, match: Callable[[Any], bool],
                     exc: BaseException) -> int:
        """Fail every pending get whose ``meta`` satisfies ``match``.

        Waiters see ``exc`` raised.  Returns the number of failed getters.
        Used to break receives posted to a peer that has since died.
        """
        kept: Deque[tuple[Event, Optional[Callable[[Any], bool]], Any]] = (
            deque())
        failed = 0
        for ev, pred, meta in self._getters:
            if match(meta):
                ev.fail(exc)
                failed += 1
            else:
                kept.append((ev, pred, meta))
        self._getters = kept
        return failed

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (diagnostics only)."""
        return list(self._items)


class StoreMailbox(Store):
    """A :class:`Store` answering the mailbox receive call of
    ``repro.smpi``: every receive is a predicate run down the queue."""

    def get_keyed(self, comm_id: int, source: int, tag: int,
                  meta: Any) -> Event:
        def predicate(msg) -> bool:
            return (msg.comm_id == comm_id
                    and (source == ANY_SOURCE or msg.src == source)
                    and (tag == ANY_TAG or msg.tag == tag))

        return self.get(predicate, meta=meta)


class StoreWorld(World):
    """A world whose mailboxes are predicate-matched :class:`Store` queues."""

    def __init__(self, engine, cluster, nranks, mapping="block"):
        super().__init__(engine, cluster, nranks, mapping=mapping)
        self._mailboxes = [StoreMailbox(engine) for _ in range(nranks)]


@contextlib.contextmanager
def oracle_stack():
    """Run ``repro.app.driver`` on the reference event stack in this block:
    its ``Engine``, ``Team`` and ``World`` names resolve to
    :class:`ScalarEngine`, :class:`PerTaskTeam` and :class:`StoreWorld`."""
    from repro.app import driver

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "Engine", ScalarEngine)
        mp.setattr(driver, "Team", PerTaskTeam)
        mp.setattr(driver, "World", StoreWorld)
        yield
