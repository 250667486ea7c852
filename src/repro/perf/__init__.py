"""Performance layer: measurement harness + fast-path toggles (PR 2).

Two halves:

* **measurement** — :mod:`repro.perf.instrument` (counters, engine and
  fluid counter snapshots) and :mod:`repro.perf.bench` (the benchmark
  runner that emits ``BENCH_pr2.json``; run it with
  ``python -m repro.perf.bench``);
* **optimization control** — :mod:`repro.perf.toggles`, the switches gating
  every PR 2 fast path so before/after can be measured from one build.

Attribute access is lazy (PEP 562): low-level modules (``sim``, ``smpi``,
``core``, ``fem``, ``particles``) import ``repro.perf.toggles`` at import
time, while ``repro.perf.bench`` imports the application layer — eager
re-exports here would create an import cycle.
"""

from __future__ import annotations

__all__ = [
    "Toggles",
    "TOGGLES",
    "set_toggles",
    "baseline",
    "configured",
    "Counters",
    "engine_counters",
    "run_benchmarks",
]

_TOGGLE_NAMES = {"Toggles", "TOGGLES", "set_toggles", "baseline",
                 "configured"}
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
