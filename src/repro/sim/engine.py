"""Discrete-event simulation (DES) engine.

This module is the substrate on which the whole reproduction runs: simulated
MPI ranks, OpenMP-like worker cores, and the DLB library are all *processes*
(Python generators) advancing a shared simulated clock.  The design follows
the classic event-list pattern (as popularized by SimPy, re-implemented here
from scratch): processes yield :class:`Event` objects and are resumed when the
event triggers.

Only simulated time passes between events; the engine is deterministic given a
deterministic set of processes, which is what makes the paper's experiments
exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..perf import toggles as _perf_toggles
from .arena import KIND_COMPLETION, KIND_DEFER, KIND_TIMER, PENDING, EventArena

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. re-triggering an event)."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it can be made to :meth:`succeed` (optionally
    carrying a value) or :meth:`fail` (carrying an exception).  Processes that
    yield a pending event are suspended until it triggers.
    """

    __slots__ = ("engine", "callbacks", "_triggered", "_processed", "_ok",
                 "_value", "_defer")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self._triggered = False
        self._processed = False
        self._ok: Optional[bool] = None
        self._value: Any = None
        # (fn, args) invoked directly by the run loop when this event pops —
        # the frame-free form of a single callback (see Engine.defer).
        self._defer: Optional[tuple] = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has already occurred."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value the event carries (or the exception if it failed)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, scheduling its callbacks *now*."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        # inlined Engine._post — this is the hottest trigger path
        eng = self.engine
        eng._now_queue.append((next(eng._seq), self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiting processes see ``exc`` raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.engine._post(self)
        return self


class Timeout(Event):
    """An event that triggers automatically after ``delay`` simulated time.

    The trigger state is applied when the engine's clock reaches the deadline
    (not at construction), so timeouts compose correctly with :class:`AllOf`
    and :class:`AnyOf`.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._value = value
        engine._schedule_at(engine.now + delay, self)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process driving a generator of events.

    The process itself is an event: it triggers (with the generator's return
    value) when the generator finishes, so processes can wait on each other.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, engine: "Engine", generator: ProcessGenerator,
                 name: str = ""):
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume once at current time.
        boot = Event(engine)
        boot.callbacks.append(self._resume)
        boot.succeed()

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    @property
    def waiting_on(self) -> Optional[Event]:
        """The event this process is currently suspended on (diagnostics)."""
        return self._waiting_on

    def interrupt(self, exc: BaseException) -> None:
        """Throw ``exc`` into the process at the current simulated time.

        The generator sees the exception raised at its current ``yield``
        point; unless the program catches it, the process fails with
        ``exc``.  This is the primitive behind rank-death injection.
        """
        if self._triggered:
            raise SimulationError(
                f"cannot interrupt finished process {self.name!r}")
        if not isinstance(exc, BaseException):
            raise TypeError("interrupt() requires an exception instance")
        relay = Event(self.engine)
        relay.callbacks.append(self._resume)
        relay.fail(exc)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            # Already finished (e.g. interrupted while a pending event still
            # held a callback to us): stale wake-ups are ignored.
            return
        self._waiting_on = None
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            if not self._triggered:
                self.fail(exc)
                return
            raise
        if not isinstance(target, Event):
            self.generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        self._waiting_on = target
        if target._processed:
            # Callbacks already ran; schedule an immediate relay carrying the
            # event outcome so this process resumes at the current time.
            relay = Event(self.engine)
            relay.callbacks.append(self._resume)
            if target._ok:
                relay.succeed(target._value)
            else:
                relay.fail(target._value)
        else:
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev._processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when *all* child events have triggered.

    Value is the list of child values in construction order.  Fails as soon
    as any child fails.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([ev.value for ev in self.events])


class AnyOf(_Condition):
    """Triggers when the *first* child event triggers (value = its value)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event.ok:
            self.succeed(event.value)
        else:
            self.fail(event.value)


class Engine:
    """The event loop: a priority queue of (time, seq, event) entries.

    Usage::

        eng = Engine()

        def prog(eng):
            yield eng.timeout(1.5)
            return "done"

        p = eng.process(prog(eng))
        eng.run()
        assert eng.now == 1.5 and p.value == "done"
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._n_events_processed = 0
        self._procs: set[Process] = set()
        self._stop_reason: Optional[str] = None
        # Same-time posts go to a FIFO now-queue of (seq, event): the global
        # (time, seq) order is preserved (the queue is compared against the
        # heap head by seq) while the common case — an event triggered at the
        # current time — skips the heap sift entirely.
        self._now_queue: deque[tuple[int, Any]] = deque()
        #: scratch counters other layers may bump (e.g. Team plan counters);
        #: surfaced by ``repro.perf.instrument.engine_counters``.
        self.ext_counters: dict[str, int] = {}
        # Batched event-cohort core (engine_batch): instead of one global
        # heap of (when, seq, event) entries, keep a calendar of per-timestamp
        # *buckets* plus a heap of the distinct populated times.  The run
        # loop drains the cohort at the current timestamp (merged against the
        # now-queue by seq) and then jumps the clock directly to the next
        # populated time — one heap operation per *timestamp* instead of one
        # per event.  Deferred callbacks live in a recycled EventArena slot
        # instead of an Event object; queue payloads are either an int
        # (arena slot) or an Event, distinguished by type at dispatch.
        self._batch = _perf_toggles.TOGGLES.engine_batch
        if self._batch:
            self.arena = EventArena()
            self._buckets: dict[float, list] = {}
            self._times: list[float] = []
            # cohort at the current timestamp + its drain cursor; same-time
            # schedules append here (monotonic seqs keep it sorted)
            self._cur: list = []
            self._ci = 0
            # cohort instrumentation (see instrument.engine_counters)
            self._n_cohorts = 0
            self._cohort_events = 0
            self._max_cohort = 0
            self._cohort_hist = [0] * 16  # power-of-two size bins
            self._n_jumps = 0
            self._jump_total = 0.0
            self._n_arena_fired = 0
            self._n_event_dispatch = 0

    # -- factory helpers ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register ``generator`` as a new process starting at current time."""
        proc = Process(self, generator, name=name)
        self._procs.add(proc)
        proc.callbacks.append(self._procs.discard)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event triggering when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event triggering at the first of ``events``."""
        return AnyOf(self, events)

    def defer(self, fn: Callable[..., None], *args: Any):
        """Run ``fn(*args)`` when the engine next reaches the current time.

        Equivalent to a :class:`Process` whose generator would execute
        ``fn`` before its first yield (the bootstrap event is posted at the
        same queue position), without the generator/Process allocation.
        The callback-based task runtime and collective completion are built
        on this.  Returns an opaque handle (an arena slot under
        ``engine_batch``, an :class:`Event` otherwise); callers that need
        cancellation use :meth:`cancel_scheduled`.
        """
        if self._batch:
            # the hot path allocates no object at all: the callback rides in
            # a recycled arena slot, the queue entry is (seq, slot).  The
            # arena free-list claim is inlined (see EventArena.alloc) — this
            # and call_later together run ~15k times per CFPD run.
            seq = next(self._seq)
            arena = self.arena
            free = arena._free
            if free:
                slot = free.pop()
                arena._fn[slot] = fn
                arena._args[slot] = args
                arena._when[slot] = self.now
                arena._seq[slot] = seq
                arena._kind[slot] = KIND_DEFER
                arena._state[slot] = 1
            else:
                slot = arena._grow(self.now, seq, fn, args, KIND_DEFER)
            arena.allocated += 1
            self._now_queue.append((seq, slot))
            return slot
        # inlined Event(self) + ev.succeed() minus the already-triggered
        # guard (the event is freshly constructed): this runs ~50k times
        # per CFPD run.  fn/args ride in the _defer slot so the run loop
        # invokes them without a lambda frame or a callbacks list entry.
        ev = Event.__new__(Event)
        ev.engine = self
        ev.callbacks = []
        ev._triggered = True
        ev._processed = False
        ev._ok = True
        ev._value = None
        ev._defer = (fn, args)
        self._post(ev)
        return ev

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any):
        """Run ``fn(*args)`` after ``delay`` simulated time.

        Equivalent to a :class:`Timeout` with ``fn`` as its only callback —
        same queue entry, same seq — without the Timeout construction or the
        callback closure.  Used by the callback-based task runtime for the
        per-task execution delay.  Returns an opaque handle (see
        :meth:`defer`).
        """
        if self._batch:
            when = self.now + delay
            seq = next(self._seq)
            # inlined arena alloc + bucket insert (hot: one call per message
            # delivery, collective completion and plan timer)
            arena = self.arena
            free = arena._free
            if free:
                slot = free.pop()
                arena._fn[slot] = fn
                arena._args[slot] = args
                arena._when[slot] = when
                arena._seq[slot] = seq
                arena._kind[slot] = KIND_TIMER
                arena._state[slot] = 1
            else:
                slot = arena._grow(when, seq, fn, args, KIND_TIMER)
            arena.allocated += 1
            if when == self.now:
                self._cur.append((seq, slot))
            else:
                b = self._buckets.get(when)
                if b is None:
                    self._buckets[when] = [(seq, slot)]
                    heapq.heappush(self._times, when)
                else:
                    b.append((seq, slot))
            return slot
        ev = Event.__new__(Event)
        ev.engine = self
        ev.callbacks = []
        ev._triggered = False
        ev._processed = False
        ev._ok = None
        ev._value = None
        ev._defer = (fn, args)
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), ev))
        return ev

    def schedule_fn_at(self, when: float, fn: Callable[..., None],
                       *args: Any):
        """Run ``fn(*args)`` at the *absolute* simulated time ``when``.

        Unlike ``call_later(when - now, ...)`` — which schedules at
        ``now + (when - now)``, a float that can differ from ``when`` in the
        last ulp — the deadline is the exact float given, so precomputed
        execution plans (Team plan mode) land their completion events on
        bit-exact timestamps.  Returns a handle for :meth:`cancel_scheduled`.
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past "
                                  f"({when} < {self.now})")
        if self._batch:
            seq = next(self._seq)
            slot = self.arena.alloc(when, seq, fn, args, KIND_COMPLETION)
            self._bucket_insert(when, seq, slot)
            return slot
        ev = Event.__new__(Event)
        ev.engine = self
        ev.callbacks = []
        ev._triggered = False
        ev._processed = False
        ev._ok = None
        ev._value = None
        ev._defer = (fn, args)
        heapq.heappush(self._queue, (when, next(self._seq), ev))
        return ev

    def cancel_scheduled(self, handle) -> None:
        """Cancel a pending :meth:`call_later`/:meth:`schedule_fn_at` call.

        The queue entry stays where it is and is skipped (and its arena slot
        recycled) when it surfaces; the callback is guaranteed not to run.
        """
        if self._batch:
            self.arena.cancel(handle)
        else:
            handle._defer = None

    # -- scheduling (internal) ----------------------------------------------
    def _schedule_at(self, when: float, event: Event) -> None:
        if self._batch:
            self._bucket_insert(when, next(self._seq), event)
        else:
            heapq.heappush(self._queue, (when, next(self._seq), event))

    def _bucket_insert(self, when: float, seq: int, payload) -> None:
        """File a (seq, payload) entry under its timestamp's bucket.

        An entry at the *current* time joins the live cohort directly —
        monotonic seqs keep the cohort list sorted, and the run loop's merge
        against the now-queue preserves the global (when, seq) order.
        """
        if when == self.now:
            self._cur.append((seq, payload))
            return
        b = self._buckets.get(when)
        if b is None:
            self._buckets[when] = [(seq, payload)]
            heapq.heappush(self._times, when)
        else:
            b.append((seq, payload))

    def _post(self, event: Event) -> None:
        """Schedule a just-triggered event's callbacks at the current time."""
        self._now_queue.append((next(self._seq), event))

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

    # -- running --------------------------------------------------------------
    def step(self) -> None:
        """Process a single event from the queue, advancing the clock.

        Raises :class:`SimulationError` if the queue is empty — an empty
        queue while processes are still alive means every one of them is
        blocked on an event nobody will trigger (a deadlock).
        """
        if self._batch:
            self._step_batch()
            return
        event = self._pop()
        if not event._triggered:
            # A Timeout reaching its deadline: apply the trigger state now.
            event._triggered = True
            event._ok = True
        self._n_events_processed += 1
        event._processed = True
        d = event._defer
        if d is not None:
            event._defer = None
            d[0](*d[1])
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            cb(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        This is :meth:`step` in a loop with the pop logic inlined — the
        loop runs a hundred thousand times per simulated CFPD run, so the
        per-event function-call overhead is worth removing.  Behaviour is
        identical to repeated ``step()`` calls.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run into the past")
        if self._batch:
            self._run_batch(until)
            return
        nq = self._now_queue
        q = self._queue
        heappop = heapq.heappop
        n_done = 0
        try:
            while nq or q:
                if self._stop_reason is not None:
                    return
                if nq:
                    # Now-queue events are always at the current time; a
                    # heap entry also at the current time with a smaller seq
                    # (e.g. a zero-delay Timeout) must still run first.
                    if q and q[0][0] <= self.now and q[0][1] < nq[0][0]:
                        _, _, event = heappop(q)
                    else:
                        _, event = nq.popleft()
                else:
                    when = q[0][0]
                    if until is not None and when > until:
                        self.now = until
                        return
                    when, _, event = heappop(q)
                    if when < self.now:
                        raise SimulationError("time went backwards")
                    self.now = when
                if not event._triggered:
                    event._triggered = True
                    event._ok = True
                n_done += 1
                event._processed = True
                d = event._defer
                if d is not None:
                    # frame-free deferred call (Engine.defer / call_later)
                    event._defer = None
                    d[0](*d[1])
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    if len(callbacks) == 1:
                        # single-waiter fast path: skip the loop machinery
                        callbacks[0](event)
                    else:
                        for cb in callbacks:
                            cb(event)
        finally:
            self._n_events_processed += n_done
        if until is not None:
            self.now = until

    def _run_batch(self, until: Optional[float]) -> None:
        """Cohort-batched run loop (``engine_batch``).

        Per *timestamp* (not per event): pop the next populated time off the
        ``_times`` heap, take its whole bucket as the current cohort, and
        drain it merged against the now-queue by seq — reproducing the exact
        total (when, seq) order of the scalar engine's single heap while
        paying one heap operation per distinct timestamp.  Times whose
        bucket was already consumed (re-pushed while the clock sat on them)
        are skipped lazily.
        """
        nq = self._now_queue
        buckets = self._buckets
        times = self._times
        arena = self.arena
        a_state = arena._state
        a_fn = arena._fn
        a_args = arena._args
        a_free = arena._free
        heappop = heapq.heappop
        cur = self._cur
        ci = self._ci
        n_done = 0
        n_arena = 0
        n_events = 0
        try:
            while True:
                if self._stop_reason is not None:
                    return
                if nq:
                    if ci < len(cur) and cur[ci][0] < nq[0][0]:
                        payload = cur[ci][1]
                        ci += 1
                    else:
                        payload = nq.popleft()[1]
                elif ci < len(cur):
                    payload = cur[ci][1]
                    ci += 1
                else:
                    # timestamp fully drained: bulk-advance the clock to the
                    # next populated time
                    while times:
                        when = heappop(times)
                        bucket = buckets.pop(when, None)
                        if bucket is not None:
                            break
                    else:
                        if until is not None:
                            self.now = until
                        return
                    if until is not None and when > until:
                        buckets[when] = bucket
                        heapq.heappush(times, when)
                        self.now = until
                        return
                    if when < self.now:
                        raise SimulationError("time went backwards")
                    for _, p in bucket:
                        if type(p) is not int or a_state[p] != 2:
                            break
                    else:
                        # only cancelled slots: recycle them without moving
                        # the clock (a cancelled tail entry must not drag
                        # the simulation end time forward)
                        for _, p in bucket:
                            a_state[p] = 0
                            a_free.append(p)
                        continue
                    n = len(bucket)
                    self._n_cohorts += 1
                    self._cohort_events += n
                    if n > self._max_cohort:
                        self._max_cohort = n
                    self._cohort_hist[min(n.bit_length() - 1, 15)] += 1
                    self._n_jumps += 1
                    self._jump_total += when - self.now
                    self.now = when
                    cur = bucket
                    ci = 0
                    # visible before callbacks run: same-time schedules made
                    # during dispatch append to this cohort
                    self._cur = cur
                    continue
                if type(payload) is int:
                    # arena slot: free it, then invoke unless cancelled
                    st = a_state[payload]
                    a_state[payload] = 0
                    fn = a_fn[payload]
                    args = a_args[payload]
                    a_fn[payload] = None
                    a_args[payload] = None
                    a_free.append(payload)
                    if st == 1:  # PENDING
                        n_done += 1
                        n_arena += 1
                        fn(*args)
                    continue
                event = payload
                if not event._triggered:
                    event._triggered = True
                    event._ok = True
                n_done += 1
                n_events += 1
                event._processed = True
                d = event._defer
                if d is not None:
                    event._defer = None
                    d[0](*d[1])
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for cb in callbacks:
                            cb(event)
        finally:
            self._ci = ci
            self._n_events_processed += n_done
            self._n_arena_fired += n_arena
            self._n_event_dispatch += n_events

    def _step_batch(self) -> None:
        """Process a single event under ``engine_batch`` (see :meth:`step`).

        Cancelled arena slots are recycled and skipped — they do not count
        as a processed event (the scalar engine never queues them).
        """
        nq = self._now_queue
        while True:
            cur = self._cur
            ci = self._ci
            if nq:
                if ci < len(cur) and cur[ci][0] < nq[0][0]:
                    payload = cur[ci][1]
                    self._ci = ci + 1
                else:
                    payload = nq.popleft()[1]
            elif ci < len(cur):
                payload = cur[ci][1]
                self._ci = ci + 1
            else:
                while self._times:
                    when = heapq.heappop(self._times)
                    bucket = self._buckets.pop(when, None)
                    if bucket is not None:
                        break
                else:
                    raise SimulationError(
                        f"no events scheduled ({self.alive_process_count} "
                        f"processes still alive at t={self.now:.6f}s)")
                if when < self.now:
                    raise SimulationError("time went backwards")
                states = self.arena._state
                for _, p in bucket:
                    if type(p) is not int or states[p] != 2:
                        break
                else:
                    for _, p in bucket:
                        states[p] = 0
                        self.arena._free.append(p)
                    continue
                n = len(bucket)
                self._n_cohorts += 1
                self._cohort_events += n
                if n > self._max_cohort:
                    self._max_cohort = n
                self._cohort_hist[min(n.bit_length() - 1, 15)] += 1
                self._n_jumps += 1
                self._jump_total += when - self.now
                self.now = when
                self._cur = bucket
                self._ci = 0
                continue
            arena = self.arena
            if type(payload) is int:
                st = arena._state[payload]
                arena._state[payload] = 0
                fn = arena._fn[payload]
                args = arena._args[payload]
                arena._fn[payload] = None
                arena._args[payload] = None
                arena._free.append(payload)
                if st == PENDING:
                    self._n_events_processed += 1
                    self._n_arena_fired += 1
                    fn(*args)
                    return
                continue  # cancelled slot: recycle and keep looking
            event = payload
            if not event._triggered:
                event._triggered = True
                event._ok = True
            self._n_events_processed += 1
            self._n_event_dispatch += 1
            event._processed = True
            d = event._defer
            if d is not None:
                event._defer = None
                d[0](*d[1])
            callbacks, event.callbacks = event.callbacks, []
            for cb in callbacks:
                cb(event)
            return

    def stop(self, reason: str = "") -> None:
        """Abort :meth:`run` before the queue drains (simulated job kill).

        The current event finishes; no further events are processed.  The
        reason is kept in :attr:`stop_reason` so the MPI layer can surface
        a structured abort instead of a phantom deadlock.
        """
        self._stop_reason = reason or "stopped"

    @property
    def stop_reason(self) -> Optional[str]:
        """Why the engine was stopped, or ``None`` if it was not."""
        return self._stop_reason

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (diagnostics)."""
        return self._n_events_processed

    @property
    def alive_process_count(self) -> int:
        """Number of registered processes that have not finished yet."""
        return sum(1 for p in self._procs if p.is_alive)

    def blocked_processes(self) -> list["Process"]:
        """Alive processes, for deadlock diagnostics (name + waiting_on)."""
        return [p for p in self._procs if p.is_alive]
