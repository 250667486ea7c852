"""Host-speed reference: wall times expressed at a fixed machine speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
twofold within a minute (neighbours' load, CPU throttling).  A raw wall
time then measures the host as much as the program.  So the bounded
times of ``cold-cli`` and ``dlb-sweep`` are reported *normalised*: the
run takes probes of the host's speed between its operations and reports
a wall time ``t`` as the time it would take on a reference host
(README.md says why ``breathing-campaign`` is not normalised).

* In-process work (warm replays) is scaled by
  ``REF_PROBE_S / median(probe())`` over the run.  ``probe`` is numpy on
  arrays larger than the caches (element-wise math, a random gather and a
  sort).  On the 2-vCPU machine the benchmark was tuned on, the raw
  median DLB-off replay of two sets of runs taken minutes apart moved by
  +61%, the normalised one by -4%.
* A fresh program process is scaled by ``REF_SPAWN_S / spawn_probe()``
  taken just before it (see ``spawn_probe``).

The probes run none of the program's code, so a change to the program
moves a normalised time exactly as it moves the raw one.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: probe seconds of the reference host the normalised times refer to
REF_PROBE_S = 0.008
#: probes per sample point, after one discarded warm-up probe (the first
#: probe after the process sat idle or ran other code is slower)
PROBES_PER_SAMPLE = 3

_N = 1 << 18
_RNG = np.random.default_rng(20181)
_DATA = _RNG.random(_N)
_PERM = _RNG.permutation(_N)
# preallocated outputs: the probe allocates nothing, so its time does not
# depend on the state of the process's allocator
_BUF = np.empty(_N)
_GATHER = np.empty(_N)
_SORT = np.empty(_N // 4)


def probe() -> float:
    """Seconds of one fixed unit of reference work."""
    start = time.perf_counter()
    for _ in range(3):
        np.multiply(_DATA, _DATA, out=_BUF)
        np.add(_BUF, 1.0, out=_BUF)
        np.sqrt(_BUF, out=_BUF)
        np.take(_BUF, _PERM, out=_GATHER)
        _SORT[:] = _DATA[: _N // 4]
        _SORT.sort()
    return time.perf_counter() - start


#: seconds of a spawn probe on the reference host
REF_SPAWN_S = 0.5
#: what a spawn probe runs: interpreter start-up plus the imports of the
#: libraries the program loads (none of the program itself)
SPAWN_PROBE = "import numpy, scipy.sparse, scipy.sparse.linalg"


def spawn_probe(cwd: str) -> float:
    """Seconds to start a fresh interpreter that imports numpy and scipy.

    The in-process probe tracks warm, in-process work; a fresh program
    process (start-up, imports, first touches of its memory) slows with
    the host differently, and this probe slows with it.  On the 2-vCPU
    tuning machine a cold ``python -m repro run`` invocation followed the
    spawn probe taken just before it at a log-log slope of about 0.8
    (r = 0.78), where the in-process probe reached only r = 0.37.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_PROBE], cwd=cwd, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - start


class HostSpeed:
    """Probe readings taken through one run, and the factor they give."""

    def __init__(self):
        self.samples: list = []
        self.spent_s = 0.0               # wall seconds spent probing

    def sample(self, n: int = PROBES_PER_SAMPLE) -> None:
        """Take ``n`` probes now (call between operations, never inside)."""
        start = time.perf_counter()
        probe()
        self.samples.extend(probe() for _ in range(n))
        self.spent_s += time.perf_counter() - start

    def probe_s(self) -> float:
        return float(statistics.median(self.samples))

    def factor(self) -> float:
        """Multiply a wall time of this run by this to normalise it."""
        return REF_PROBE_S / self.probe_s()

    def info(self) -> dict:
        return {"probe_median_s": self.probe_s(), "factor": self.factor(),
                "probes": len(self.samples), "probing_s": self.spent_s,
                "ref_probe_s": REF_PROBE_S}
