"""Shared plumbing of the benchmark: statistics, environment record,
seeded inputs, correctness accounting and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from importlib import metadata

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: A seed kept out of tuning: a claim made with this benchmark must also
#: hold with ``--seed HOLDOUT_SEED``.
HOLDOUT_SEED = 20181

#: Scratch space for stores and span files, one per benchmark process
#: (removed when the run ends); pass processes inherit their parent's.
WORK_DIR = os.environ.get("PERFBENCH_WORK_DIR") or os.path.join(
    ROOT, ".perfbench-work", str(os.getpid()))


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. no program source)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        raise BenchError(f"no program source under {SRC!r} "
                         "(expected src/repro)")


def import_program():
    """Put ``src/`` first on the import path (the checkout's own code)."""
    require_program()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> dict:
    """Environment for child interpreters running the checkout's code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# -- statistics ----------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the sorted sample with exactly ten
    samples above it.  With ten or fewer samples no percentile has ten
    beyond it, and the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0
    index = n - 11
    return float(ordered[index]), 100.0 * (index + 1) / n


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- seeded inputs ---------------------------------------------------------------

def rng_for(workload: str, seed: int) -> random.Random:
    """The workload's input generator: one stream per (workload, seed)."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def inputs_digest(inputs) -> str:
    """SHA-256 of the generated inputs (canonical JSON)."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- environment ---------------------------------------------------------------

def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the program's source files (names and bytes): the
    commit stand-in when the checkout is not a git repository."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- correctness accounting ------------------------------------------------------

class Tally:
    """Operations attempted and failed (an operation that raised, exited
    non-zero or failed an output check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, what: str, problems) -> bool:
        """Count one operation; ``problems`` lists its failed checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"op": what, "problems": problems})
            return False
        return True

    @property
    def failed_frac(self) -> float:
        return self.failed / max(1, self.attempted)


def emit(tally: Tally, metrics: dict, info: dict) -> int:
    """Print the info line and the result line; return the exit code."""
    info = dict(info, failed_frac=tally.failed_frac,
                problems=tally.problems)
    print(json.dumps({"perfbench": info}, sort_keys=True))
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, tally.attempted),
                      "failed": tally.failed if tally.attempted
                      else 1,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1
