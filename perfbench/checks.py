"""Output checks.  Every failed check counts the operation as failed.

A job record is the campaign-store record ``repro.campaign.job_record``
produces and ``python -m repro run --json`` prints.
"""

from __future__ import annotations

RECORD_SCHEMA = "repro-campaign-job-v1"

# particle status codes of repro.particles (the keys of a deposition dict)
_STATUSES = ("0", "1", "2")     # active, deposited, escaped


def injected_particles(record: dict) -> int:
    """Particles the run injected, from its spec (and its cosim summary
    when the spec couples a breathing waveform)."""
    metrics = record["metrics"]
    cosim = metrics.get("cosim")
    if cosim:
        return int(cosim["total_injected"])
    spec = record["spec"]
    interval = int(spec["injection_interval"])
    injections = (len(range(0, int(spec["n_steps"]), interval))
                  if interval > 0 else 1)
    return int(metrics["n_particles"]) * injections


def check_record(record) -> list:
    """Problems with one job record (empty when it is correct)."""
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    problems = []
    if record.get("schema") != RECORD_SCHEMA:
        problems.append(f"schema {record.get('schema')!r} != "
                        f"{RECORD_SCHEMA!r}")
    digest = record.get("simulated_digest")
    if not (isinstance(digest, str) and len(digest) == 64):
        problems.append("missing simulated_digest")
    try:
        metrics = record["metrics"]
        deposition = metrics["deposition"]
        total = sum(int(deposition.get(k, 0)) for k in _STATUSES)
        injected = injected_particles(record)
        if total != injected:
            problems.append(f"deposited+escaped+active={total} != "
                            f"injected={injected}")
        cosim = metrics.get("cosim")
        if cosim:
            total = (int(cosim["deposited"]) + int(cosim["escaped"])
                     + int(cosim["active"]))
            if total != injected:
                problems.append(f"cosim deposited+escaped+active={total} "
                                f"!= injected={injected}")
        for name, value in metrics["pop"].items():
            if not 0.0 <= float(value) <= 1.0:
                problems.append(f"pop {name}={value} outside [0, 1]")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed record: {exc!r}")
    return problems


class DigestBook:
    """Simulated digests per input key: every repeat of one input (also
    across traced and untraced runs) must reproduce the first digest."""

    def __init__(self):
        self.digests: dict = {}

    def check(self, key, digest) -> list:
        first = self.digests.setdefault(key, digest)
        if digest != first:
            return [f"simulated_digest {str(digest)[:12]} differs from "
                    f"{first[:12]} of an earlier repeat of {key}"]
        return []
