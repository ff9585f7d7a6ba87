"""Distributed suite evaluation: coordinator, two host agents, shared cache.

End-to-end demo of ``repro.distrib`` on one machine, using real sockets and
real agent processes — exactly what a multi-machine deployment looks like,
minus the machines (swap ``127.0.0.1`` for hostnames and run each CLI on
its own box; see ``docs/distributed.md``).

Two phases:

1. **Determinism** — a 2-"host" run of a small FTQC suite is compared,
   fingerprint for fingerprint, against the single-host execution of the
   same seed and run plan.  The merge is machine-count-agnostic, so they
   must be bit-identical.
2. **Cross-host cache** — both hosts optimize replicas of the same
   repeated-block circuit while attached to one TCP cache server; each
   host's lookups start hitting entries the *other machine* synthesized,
   visible as ``cache_remote_hits`` in the merged report.

Run with::

    python examples/distributed_suite.py
"""

import multiprocessing

from repro.distrib import (
    Coordinator,
    DistributedJob,
    HostAgent,
    make_run_plan,
    run_local,
    start_tcp_cache_server,
)


def run_cluster(job, plan, hosts=2, timeout=300.0):
    """One distributed run: a coordinator thread plus ``hosts`` agent processes."""
    coordinator = Coordinator(job, plan, timeout=timeout)
    address = coordinator.start()
    context = multiprocessing.get_context()
    agents = [
        context.Process(target=HostAgent(address, name=f"host-{i}").run) for i in range(hosts)
    ]
    for agent in agents:
        agent.start()
    result = coordinator.join(timeout=timeout + 30.0)
    for agent in agents:
        agent.join(timeout=30.0)
    return result


def determinism_demo() -> None:
    print("== distributed suite run vs single-host baseline ==")
    job = DistributedJob(
        suite="ftqc",
        scale="tiny",
        include_resynthesis=False,  # bit-reproducible configuration
        max_iterations=60,
        num_workers=2,
        exchange_interval=30,
    )
    plan = make_run_plan(["ghz_5", "bv_5", "tof_4", "grover_3"], root_seed=7, replicas=2)
    print(f"plan: {plan.describe()}")
    baseline = run_local(job, plan)
    distributed = run_cluster(job, plan, hosts=2)
    print(f"hosts: {', '.join(distributed.hosts)}")
    for case in distributed.cases:
        merged = case.merged
        print(
            f"  {case.name}: {merged.initial_cost:g} -> {merged.best_cost:g} "
            f"({merged.cost_reduction:.0%}) over {len(case.replicas)} replicas"
        )
    match = distributed.fingerprint() == baseline.fingerprint()
    print(f"fingerprints match single-host baseline: {match}")
    assert match, "merge determinism violated"
    print()


def shared_cache_demo() -> None:
    print("== cross-host shared resynthesis cache (tcp backend) ==")
    server, address = start_tcp_cache_server()
    url = f"tcp://{address[0]}:{address[1]}"
    print(f"cache server at {url}")
    try:
        job = DistributedJob(
            suite="builtin",
            lower=False,
            max_iterations=60,
            num_workers=1,
            exchange_interval=30,
            resynthesis_probability=0.4,
            synthesis_time_budget=0.3,
            share_resynthesis_cache=url,
        )
        # Two replicas of one circuit: a host holds one run at a time, so
        # with both hosts up each runs one replica, and a remote hit below
        # was served by a block the *other host* synthesized.
        plan = make_run_plan(["repeated_blocks"], root_seed=17, replicas=2)
        result = run_cluster(job, plan)
        perf = result.perf
        print(
            f"cache: {perf.cache_hits} hits / {perf.cache_misses} misses "
            f"({perf.cache_hit_rate:.0%}), {perf.cache_remote_hits} cross-host remote hits"
        )
        for note in perf.notes:
            print(f"  note: {note}")
    finally:
        server.terminate()
        server.join(timeout=10.0)
    print()


def main() -> None:
    determinism_demo()
    shared_cache_demo()


if __name__ == "__main__":
    main()
