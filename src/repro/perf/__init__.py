"""Performance layer: measurement harness + the ``engine_batch`` switch.

Two halves:

* **measurement** — :mod:`repro.perf.instrument` (counters, engine and
  fluid counter snapshots) and :mod:`repro.perf.bench` (the benchmark
  runner that emits a ``BENCH_*.json`` report; run it with
  ``python -m repro.perf.bench``);
* **engine control** — :mod:`repro.perf.toggles`, the ``engine_batch``
  switch between the batched event core and its scalar reference.

Attribute access is lazy (PEP 562): ``sim.engine`` imports
``repro.perf.toggles`` at import time, while ``repro.perf.bench`` imports
the application layer — eager re-exports here would create an import
cycle.
"""

from __future__ import annotations

__all__ = [
    "Toggles",
    "TOGGLES",
    "set_toggles",
    "configured",
    "Counters",
    "engine_counters",
    "run_benchmarks",
]

_TOGGLE_NAMES = {"Toggles", "TOGGLES", "set_toggles", "configured"}
_INSTRUMENT_NAMES = {"Counters", "engine_counters"}


def __getattr__(name: str):
    if name in _TOGGLE_NAMES:
        from . import toggles
        return getattr(toggles, name)
    if name in _INSTRUMENT_NAMES:
        from . import instrument
        return getattr(instrument, name)
    if name == "run_benchmarks":
        from .bench import run_benchmarks
        return run_benchmarks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
