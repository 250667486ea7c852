"""The one runtime switch of the performance layer: ``engine_batch``.

``engine_batch`` selects between the two event cores of :mod:`repro.sim`:
the batched cohort core (the default) and the scalar event core, which is
the reference the batched core is checked against
(``--digest-check engine_batch`` in :mod:`repro.perf.bench` and the
engine-batch identity tests).  Both cores preserve the exact (time, seq)
event order, so the switch changes **wall-clock** behaviour only.

Every other fast path of the performance layer is unconditional (see
``docs/performance.md``, "Retired toggles").

This module must stay dependency-free (no numpy, no repro imports): it is
imported by ``sim.engine``, which sits below everything else in the
package graph.

Capture semantics: an :class:`~repro.sim.Engine` reads the toggle once at
construction, and the ``Team`` and ``World`` objects built on it take the
decision from their engine, so flipping the toggle mid-run never mixes
cores within one simulation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

__all__ = ["Toggles", "TOGGLES", "set_toggles", "configured"]


@dataclass(frozen=True)
class Toggles:
    """Feature switches of the performance layer (on by default)."""

    #: ``sim.engine`` / ``core.runtime`` / ``smpi.comm``: batched event-cohort
    #: core — a calendar of per-timestamp event buckets with bulk clock
    #: advance, a free-list event arena for deferred callbacks
    #: (``defer``/``call_later`` allocate an arena slot instead of an
    #: ``Event``), whole-graph execution plans in ``Team`` (one completion
    #: event per graph instead of per task), and keyed message matching in
    #: ``World``.  Preserves the exact (when, seq) FIFO tie-break order of
    #: the scalar engine.
    engine_batch: bool = True


#: process-wide current toggle state
TOGGLES = Toggles()


def set_toggles(toggles: Toggles) -> Toggles:
    """Replace the process-wide toggle state; returns the previous one."""
    global TOGGLES
    previous = TOGGLES
    TOGGLES = toggles
    return previous


@contextmanager
def configured(**overrides: bool):
    """Context manager: run with the given toggle fields overridden."""
    bad = set(overrides) - {f.name for f in fields(Toggles)}
    if bad:
        raise TypeError(f"unknown toggles: {sorted(bad)}")
    previous = set_toggles(replace(TOGGLES, **overrides))
    try:
        yield TOGGLES
    finally:
        set_toggles(previous)
