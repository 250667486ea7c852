"""The cold ``python -m repro run --json`` path: pinned simulated digests
and the number of full decompositions one run builds."""

import json

import pytest

import repro.app.workload as workload_module
from repro.__main__ import main
from repro.app import RunConfig, Workload, WorkloadSpec, run_cfpd

#: ``simulated_digest`` of ``repro run --json`` per argument list, recorded
#: before the decomposition was batched; any change to the decomposition,
#: its meters or the replay that moves a simulated result breaks these.
PINNED_DIGESTS = {
    (): "4d0f8de86a27915c4dc43a664d111ad394945839a5fb540839b009b25075ee25",
    ("--mode", "coupled", "--nranks", "96", "--fluid-ranks", "64"):
        "762cdf9ec5d44993ff60464cb20e71ba8a06eb50365151932e1c3a6bda3a7dc7",
    ("--large",):
        "04fec7be013dbaa8b548c10691e4fe4b6ec92759c1ecae0686c74c2d6bbe0c9d",
    ("--generations", "4", "--nranks", "16"):
        "9558c3c2861ba58d661f1ac10c3ee0b822c3fd3787810b19da805027897ad7f5",
    ("--generations", "4", "--nranks", "16", "--dlb"):
        "6f33b26b7ee4b8b4a8e72683c065fe90ce3ece1205898d6d2625b2c867b23c1c",
}


@pytest.mark.parametrize("argv", list(PINNED_DIGESTS),
                         ids=lambda argv: " ".join(argv) or "default")
def test_cli_run_digest_is_pinned(argv, capsys):
    assert main(["run", "--json", *argv]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["simulated_digest"] == PINNED_DIGESTS[argv]


SMALL = WorkloadSpec(generations=3, points_per_ring=6, n_steps=2)


@pytest.mark.parametrize("config", [
    RunConfig(mode="coupled", nranks=96, fluid_ranks=64),
    RunConfig(subdomains_per_rank=32),
    RunConfig(),
], ids=["coupled-96-64", "sync-32-subdomains", "sync-default"])
def test_one_decomposition_per_run(config, monkeypatch):
    """Particle ownership, overlaps and subcycles need only the rank
    partition: a run builds exactly one full decomposition."""
    calls = []
    decompose = workload_module.decompose_mesh

    def counted(*args, **kwargs):
        calls.append(args[1])
        return decompose(*args, **kwargs)

    monkeypatch.setattr(workload_module, "decompose_mesh", counted)
    wl = Workload(SMALL)
    run_cfpd(config, workload=wl)
    fluid_ranks = config.fluid_ranks if config.mode == "coupled" \
        else config.nranks
    assert calls == [fluid_ranks]
