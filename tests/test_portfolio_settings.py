"""Tests for the one declaration of the search knobs, ``PortfolioSettings``.

Two things are pinned here so that a change to either is a visible,
deliberate edit: each surface's default settings (the record itself,
serve's ``JobSpec`` and distrib's ``DistributedJob``), and the mapping
from the ``serve submit`` and coordinator flags to the record each CLI
builds.
"""

from dataclasses import fields

import pytest

from repro.circuits import Circuit
from repro.distrib import DistributedJob
from repro.distrib import coordinator as coordinator_module
from repro.parallel import PortfolioSettings
from repro.serve import JobClient, JobSpec
from repro.serve import cli as serve_cli

SETTING_NAMES = [spec.name for spec in fields(PortfolioSettings)]

#: (gate_set, objective, epsilon_budget, time_limit, max_iterations,
#: num_workers, exchange_interval, backend, include_rewrites,
#: include_resynthesis, synthesis_time_budget, resynthesis_probability)
SURFACE_DEFAULTS = {
    "PortfolioSettings": (
        PortfolioSettings,
        ("clifford+t", "ftqc", 1e-6, 10.0, None, 4, 250, "serial", True, True, 2.0, 0.015),
    ),
    "JobSpec": (
        lambda: JobSpec(circuit=Circuit(1)),
        ("clifford+t", "ftqc", 1e-6, 10.0, None, 4, 250, "serial", True, True, 2.0, 0.015),
    ),
    "DistributedJob": (
        DistributedJob,
        ("clifford+t", "ftqc", 1e-6, 1e9, 60, 2, 50, "serial", True, True, 0.5, 0.015),
    ),
}


def test_the_record_declares_twelve_search_knobs():
    assert SETTING_NAMES == [
        "gate_set",
        "objective",
        "epsilon_budget",
        "time_limit",
        "max_iterations",
        "num_workers",
        "exchange_interval",
        "backend",
        "include_rewrites",
        "include_resynthesis",
        "synthesis_time_budget",
        "resynthesis_probability",
    ]


@pytest.mark.parametrize("surface", sorted(SURFACE_DEFAULTS))
def test_surface_defaults(surface):
    build, expected = SURFACE_DEFAULTS[surface]
    record = build()
    assert {name: getattr(record, name) for name in SETTING_NAMES} == dict(
        zip(SETTING_NAMES, expected)
    )


@pytest.mark.parametrize("build", [PortfolioSettings, DistributedJob])
def test_one_validation_point(build):
    with pytest.raises(ValueError, match="num_workers"):
        build(num_workers=0)
    with pytest.raises(ValueError, match="max_iterations"):
        build(max_iterations=0)


class _Captured(Exception):
    """Raised by the patched hand-off to stop a CLI once it built its record."""


SUBMIT_CASES = {
    # the serve-smoke CI step
    "ci": (
        "--max-iterations 20 --num-workers 1 --wait --wait-timeout 300",
        dict(max_iterations=20, num_workers=1),
    ),
    "no-flags": ("", {}),
    "every-flag": (
        "--name labelled --gate-set nam --objective nisq --time-limit 5 --max-iterations 7 "
        "--seed 3 --num-workers 2 --exchange-interval 9 --tenant acme --deadline 30 "
        "--weight 2",
        dict(
            name="labelled",
            gate_set="nam",
            objective="nisq",
            time_limit=5.0,
            max_iterations=7,
            seed=3,
            num_workers=2,
            exchange_interval=9,
            tenant="acme",
            deadline=30.0,
            weight=2.0,
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(SUBMIT_CASES))
def test_serve_submit_flags_build_the_same_job_spec(case, monkeypatch):
    flags, overrides = SUBMIT_CASES[case]
    captured = []

    def submit(self, spec):
        captured.append(spec)
        raise _Captured

    monkeypatch.setattr(JobClient, "submit", submit)
    argv = ["submit", "repeated_blocks", "--connect", "127.0.0.1:1", *flags.split()]
    with pytest.raises(_Captured):
        serve_cli.main(argv)
    [spec] = captured
    # The hand-written construction the CLI used before it read the record's
    # defaults: every flag default spelled out.
    settings = dict(
        name="repeated_blocks",
        gate_set="clifford+t",
        objective="ftqc",
        time_limit=10.0,
        max_iterations=None,
        seed=None,
        num_workers=4,
        exchange_interval=250,
        tenant="default",
        deadline=None,
        weight=1.0,
    )
    settings.update(overrides)
    assert spec == JobSpec(circuit=spec.circuit, **settings)


COORDINATOR_CASES = {
    # the distrib-smoke CI steps
    "ci-cache": (
        "--port 8798 --suite builtin --cases repeated_blocks --replicas 2 --shards 2 "
        "--seed 17 --no-lower --max-iterations 60 --num-workers 1 --exchange-interval 30 "
        "--resynthesis-probability 0.4 --synthesis-time-budget 0.3 "
        "--cache tcp://127.0.0.1:8799 --timeout 600",
        dict(
            suite="builtin",
            lower=False,
            max_iterations=60,
            num_workers=1,
            exchange_interval=30,
            resynthesis_probability=0.4,
            synthesis_time_budget=0.3,
            share_resynthesis_cache="tcp://127.0.0.1:8799",
        ),
    ),
    "ci-steal": (
        "--port 8797 --suite ftqc --scale tiny --cases ghz_5,bv_5 --replicas 2 --shards 2 "
        "--seed 7 --max-iterations 30 --num-workers 2 --exchange-interval 15 "
        "--no-resynthesis --timeout 600",
        dict(max_iterations=30, num_workers=2, exchange_interval=15, include_resynthesis=False),
    ),
    "no-flags": ("", {}),
    "remaining-flags": (
        "--scale small --gate-set nam --objective nisq --epsilon 1e-4 --backend threads "
        "--cross-exchange",
        dict(
            scale="small",
            gate_set="nam",
            objective="nisq",
            epsilon_budget=1e-4,
            backend="threads",
            cross_host_exchange=True,
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(COORDINATOR_CASES))
def test_coordinator_flags_build_the_same_distributed_job(case, monkeypatch):
    flags, overrides = COORDINATOR_CASES[case]
    captured = []

    def coordinator(job, plan, **kwargs):
        captured.append(job)
        raise _Captured

    monkeypatch.setattr(coordinator_module, "Coordinator", coordinator)
    with pytest.raises(_Captured):
        coordinator_module.main(flags.split())
    [job] = captured
    # The hand-written construction the CLI used before it read the record's
    # defaults: every flag default spelled out.
    settings = dict(
        suite="ftqc",
        scale="tiny",
        gate_set="clifford+t",
        objective="ftqc",
        lower=True,
        epsilon_budget=1e-6,
        max_iterations=60,
        num_workers=2,
        exchange_interval=50,
        backend="serial",
        include_resynthesis=True,
        synthesis_time_budget=0.5,
        resynthesis_probability=0.015,
        share_resynthesis_cache=None,
        cross_host_exchange=False,
    )
    settings.update(overrides)
    assert job == DistributedJob(**settings)
