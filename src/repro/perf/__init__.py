"""Performance layer: the measurement harness.

* :mod:`repro.perf.instrument` — counters, engine and fluid counter
  snapshots;
* :mod:`repro.perf.bench` — the benchmark runner that emits a
  ``BENCH_*.json`` report; run it with ``python -m repro.perf.bench``.

Every fast path of the simulation is unconditional; there are no
switches to flip.  The reference implementations they are checked
against live in the test suite (``tests/oracles.py``).

Attribute access is lazy (PEP 562): ``repro.perf.bench`` imports the
application layer, so eager re-exports here would import it with every
``repro.perf`` use.
"""

from __future__ import annotations

__all__ = [
    "Counters",
    "engine_counters",
    "run_benchmarks",
]

_INSTRUMENT_NAMES = {"Counters", "engine_counters"}


def __getattr__(name: str):
    if name in _INSTRUMENT_NAMES:
        from . import instrument
        return getattr(instrument, name)
    if name == "run_benchmarks":
        from .bench import run_benchmarks
        return run_benchmarks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
