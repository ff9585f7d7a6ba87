"""Tests for the distributed evaluation subsystem (``repro.distrib``).

The load-bearing property is the determinism contract: the merged result of
a sharded run is a pure function of ``root seed + shard plan``, independent
of how many hosts execute it, in which order shards complete, and whether a
host dies mid-run.  These tests drive a real coordinator over localhost
sockets with real agent subprocesses (1/2/4 hosts), permute completion
order with staggered agents, kill an agent mid-shard, and compare bit-level
fingerprints against the single-host baseline throughout.
"""

import multiprocessing
import pickle
import time

import pytest

from repro.distrib import (
    Coordinator,
    DistributedJob,
    make_shard_plan,
    merge_case_results,
    merge_portfolio_results,
    result_fingerprint,
    run_host_agent,
    run_local,
    start_tcp_cache_server,
)
from repro.distrib.worker import build_cases, distrib_authkey, run_case
from repro.parallel import build_portfolio, optimize_circuit_portfolio
from repro.suite.suite import select_cases
from repro.suite import ftqc_suite
from repro.utils.linalg import hilbert_schmidt_distance

CASES = ["ghz_5", "bv_5"]


def fast_job(**overrides) -> DistributedJob:
    """Rewrites-only tiny-suite job: deterministic and quick."""
    settings = dict(
        suite="ftqc",
        scale="tiny",
        include_resynthesis=False,
        max_iterations=30,
        num_workers=2,
        exchange_interval=15,
    )
    settings.update(overrides)
    return DistributedJob(**settings)


def run_distributed(job, plan, hosts, delays=None, case_delays=None, steal=True, timeout=180.0):
    """Drive a coordinator with ``hosts`` agent subprocesses; return the result."""
    coordinator = Coordinator(job, plan, timeout=timeout, steal=steal)
    address = coordinator.start()
    context = multiprocessing.get_context()
    agents = [
        context.Process(
            target=run_host_agent,
            args=(address,),
            kwargs={
                "name": f"host-{index}",
                "shard_delay": (delays or {}).get(index, 0.0),
                "case_delay": (case_delays or {}).get(index, 0.0),
            },
        )
        for index in range(hosts)
    ]
    for agent in agents:
        agent.start()
    try:
        result = coordinator.join(timeout=timeout + 30.0)
    finally:
        for agent in agents:
            agent.join(timeout=30.0)
            if agent.is_alive():  # pragma: no cover - hung agent cleanup
                agent.terminate()
    return result


class TestShardPlan:
    def test_plan_is_deterministic(self):
        first = make_shard_plan(CASES, num_shards=2, root_seed=7, replicas=2)
        second = make_shard_plan(CASES, num_shards=2, root_seed=7, replicas=2)
        assert first == second

    def test_run_seeds_do_not_depend_on_shard_count(self):
        wide = make_shard_plan(CASES, num_shards=4, root_seed=7, replicas=2)
        narrow = make_shard_plan(CASES, num_shards=1, root_seed=7, replicas=2)
        flat = lambda plan: [run for shard in plan.shards for run in shard.runs]  # noqa: E731
        assert flat(wide) == flat(narrow)

    def test_contiguous_balanced_shards(self):
        plan = make_shard_plan(["a", "b", "c"], num_shards=2, root_seed=1, replicas=3)
        sizes = [len(shard) for shard in plan.shards]
        assert sum(sizes) == 9 and max(sizes) - min(sizes) <= 1

    def test_replica_major_order_separates_replicas(self):
        plan = make_shard_plan(CASES, num_shards=2, root_seed=7, replicas=2)
        assert {run.replica for run in plan.shards[0].runs} == {0}
        assert {run.replica for run in plan.shards[1].runs} == {1}

    def test_shards_capped_at_run_count(self):
        plan = make_shard_plan(["a"], num_shards=8, root_seed=1)
        assert len(plan.shards) == 1

    def test_distinct_seeds_across_replicas_and_cases(self):
        plan = make_shard_plan(CASES, num_shards=1, root_seed=7, replicas=3)
        seeds = [run.seed for run in plan.shards[0].runs]
        assert len(set(seeds)) == len(seeds)

    def test_none_root_seed_gives_none_run_seeds(self):
        plan = make_shard_plan(CASES, num_shards=1)
        assert all(run.seed is None for run in plan.shards[0].runs)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_shard_plan([], num_shards=1)
        with pytest.raises(ValueError):
            make_shard_plan(["a", "a"], num_shards=1)
        with pytest.raises(ValueError):
            make_shard_plan(["a"], num_shards=0)
        with pytest.raises(ValueError):
            make_shard_plan(["a"], num_shards=1, replicas=0)
        with pytest.raises(ValueError):
            DistributedJob(suite="nope")

    def test_plan_and_job_are_picklable(self):
        plan = make_shard_plan(CASES, num_shards=2, root_seed=7)
        job = fast_job()
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert pickle.loads(pickle.dumps(job)) == job


class TestMergeSemantics:
    def _replica_results(self, job=None, replicas=2):
        job = job or fast_job()
        plan = make_shard_plan(["ghz_5"], num_shards=replicas, root_seed=11, replicas=replicas)
        circuits = build_cases(job, list(plan.case_names))
        by_run = {
            (run.name, run.replica): run_case(job, run, circuits[run.name])
            for shard in plan.shards
            for run in shard.runs
        }
        return plan, by_run

    def test_merge_is_arrival_order_independent(self):
        plan, by_run = self._replica_results()
        forward = merge_case_results(plan, dict(sorted(by_run.items())))
        backward = merge_case_results(plan, dict(sorted(by_run.items(), reverse=True)))
        assert [result_fingerprint(case.merged) for case in forward] == [
            result_fingerprint(case.merged) for case in backward
        ]

    def test_merge_reranks_and_sums(self):
        plan, by_run = self._replica_results()
        [case] = merge_case_results(plan, by_run)
        replicas = case.replicas
        merged = case.merged
        assert merged.best_cost == min(r.best_cost for r in replicas)
        assert merged.total_iterations == sum(r.total_iterations for r in replicas)
        assert merged.num_workers == sum(r.num_workers for r in replicas)
        assert merged.worker_seeds == [s for r in replicas for s in r.worker_seeds]
        winner = min(range(len(replicas)), key=lambda i: (replicas[i].best_cost, i))
        assert merged.best_worker == winner
        assert merged.error_bound == replicas[winner].error_bound

    def test_merged_trace_is_running_minimum(self):
        plan, by_run = self._replica_results()
        [case] = merge_case_results(plan, by_run)
        trace = case.merged.incumbent_trace
        assert trace == sorted(trace, reverse=True) or all(
            later <= earlier for earlier, later in zip(trace, trace[1:])
        )

    def test_tie_breaks_to_lowest_replica(self):
        plan, by_run = self._replica_results()
        [case] = merge_case_results(plan, by_run)
        # ghz_5 rewrites-only: replicas plateau at the same cost, so the tie
        # rule is what decides — lowest replica index must win.
        if case.replicas[0].best_cost == case.replicas[1].best_cost:
            assert case.merged.best_worker == 0

    def test_missing_run_raises(self):
        plan, by_run = self._replica_results()
        incomplete = dict(by_run)
        del incomplete[("ghz_5", 0)]
        with pytest.raises(ValueError, match=r"no result: ghz_5#r0$"):
            merge_case_results(plan, incomplete)
        with pytest.raises(ValueError, match=r"no result: ghz_5#r0, ghz_5#r1$"):
            merge_case_results(plan, {})

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_portfolio_results([])


class TestOneBuildPath:
    """A host's run and a direct portfolio call build through one builder."""

    def test_run_case_matches_optimize_circuit_portfolio(self):
        # Iteration-bounded Clifford+T with resynthesis on: the synthesis
        # path (and its private per-worker caches) is part of what must agree.
        job = fast_job(include_resynthesis=True, max_iterations=40, exchange_interval=20)
        [run] = make_shard_plan(["tof_4"], num_shards=1, root_seed=5).shards[0].runs
        circuit = build_cases(job, [run.name])[run.name]
        hosted = run_case(job, run, circuit)
        direct = optimize_circuit_portfolio(
            circuit,
            job.gate_set,
            objective=job.objective,
            epsilon_budget=job.epsilon_budget,
            time_limit=job.time_limit,
            max_iterations=job.max_iterations,
            seed=run.seed,
            num_workers=job.num_workers,
            exchange_interval=job.exchange_interval,
            backend=job.backend,
            synthesis_time_budget=job.synthesis_time_budget,
        )
        assert hosted.perf.phase_calls.get("resynthesis", 0) > 0
        assert result_fingerprint(hosted) == result_fingerprint(direct)


class TestBuildCases:
    def test_suite_cases_match_assembled_suite(self):
        job = fast_job(lower=False)
        circuits = build_cases(job, CASES)
        expected = select_cases(ftqc_suite("tiny"), CASES)
        assert [circuits[c.name].instructions for c in expected] == [
            c.circuit.instructions for c in expected
        ]

    def test_builtin_generator_cases(self):
        job = fast_job(suite="builtin", lower=False)
        circuits = build_cases(job, ["repeated_blocks"])
        assert len(circuits["repeated_blocks"]) > 0

    def test_unknown_names_fail_loudly(self):
        with pytest.raises(ValueError, match="unknown"):
            build_cases(fast_job(), ["not_a_case"])
        with pytest.raises(ValueError, match="unknown builtin"):
            build_cases(fast_job(suite="builtin"), ["not_a_generator"])


class TestDistributedDeterminism:
    """The acceptance property: merged output independent of hosts/order."""

    @pytest.fixture(scope="class")
    def baseline(self):
        job = fast_job()
        plan = make_shard_plan(CASES, num_shards=4, root_seed=7, replicas=2)
        return job, plan, run_local(job, plan)

    @pytest.mark.parametrize("hosts", [1, 2, 4])
    def test_host_count_does_not_change_merged_result(self, baseline, hosts):
        job, plan, local = baseline
        result = run_distributed(job, plan, hosts=hosts)
        assert result.fingerprint() == local.fingerprint()
        assert [c.merged.error_bound for c in result.cases] == [
            c.merged.error_bound for c in local.cases
        ]
        # Registration is racy by design (a fast cluster can finish before
        # the slowest agent says hello); the merged result above is what
        # must not depend on it.
        assert 1 <= len(result.hosts) <= hosts

    def test_permuted_completion_order_same_result(self, baseline):
        job, plan, local = baseline
        # Stagger one host so shard completion order inverts vs the uniform
        # run; the merge must normalize it away.
        result = run_distributed(job, plan, hosts=2, delays={0: 1.0})
        assert result.fingerprint() == local.fingerprint()

    def test_killed_host_mid_shard_requeues_and_completes(self, baseline):
        job, plan, local = baseline
        coordinator = Coordinator(job, plan, timeout=180.0)
        address = coordinator.start()
        context = multiprocessing.get_context()
        victim = context.Process(
            target=run_host_agent,
            args=(address,),
            kwargs={"name": "victim", "shard_delay": 8.0},
        )
        victim.start()
        # The victim registers and takes a shard within ~a second, then sits
        # in its 8s pre-execution delay — killing it now is mid-shard.
        time.sleep(2.0)
        victim.terminate()
        survivor = context.Process(
            target=run_host_agent, args=(address,), kwargs={"name": "survivor"}
        )
        survivor.start()
        try:
            result = coordinator.join(timeout=200.0)
        finally:
            survivor.join(timeout=30.0)
            victim.join(timeout=10.0)
        assert result.requeues, "the killed host's shard must be re-queued"
        assert "victim" in result.requeues[0]
        assert result.fingerprint() == local.fingerprint()


class TestCaseGranularFaultTolerance:
    """A lost host forfeits only its unfinished runs — completed work survives."""

    def test_lost_host_keeps_completed_cases(self):
        from multiprocessing.connection import Client

        job = fast_job()
        # One batch holding all four runs, so the victim dies holding three.
        plan = make_shard_plan(CASES, num_shards=1, root_seed=7, replicas=2)
        local = run_local(job, plan)
        coordinator = Coordinator(job, plan, timeout=120.0)
        address = coordinator.start()
        # Drive the wire protocol by hand: complete exactly one run as
        # "victim", then drop the connection — deterministic, no timing.
        connection = Client(address, authkey=distrib_authkey())
        connection.send(("hello", "victim"))
        connection.recv()
        connection.send(("next", None))
        op, (assignment_id, runs, wire_job) = connection.recv()
        assert op == "assign" and len(runs) == plan.num_runs
        first = runs[0]
        circuits = build_cases(wire_job, [first.name])
        first_result = run_case(wire_job, first, circuits[first.name])
        connection.send(
            ("case-result", (assignment_id, (first.name, first.replica), first_result))
        )
        op, _update = connection.recv()
        assert op == "ok"
        connection.close()  # the host "crashes" holding three unfinished runs

        survivor = multiprocessing.get_context().Process(
            target=run_host_agent, args=(address,), kwargs={"name": "survivor"}
        )
        survivor.start()
        try:
            result = coordinator.join(timeout=150.0)
        finally:
            survivor.join(timeout=30.0)
            if survivor.is_alive():  # pragma: no cover - hung agent cleanup
                survivor.terminate()
        # The completed run is credited to the dead host, never re-run ...
        assert result.case_hosts[(first.name, first.replica)] == "victim"
        # ... and the re-queue covers exactly the three unfinished runs.
        assert len(result.requeues) == 1
        assert "victim" in result.requeues[0]
        assert f"{first.name}#r{first.replica}" not in result.requeues[0]
        for run in runs[1:]:
            assert f"{run.name}#r{run.replica}" in result.requeues[0]
            assert result.case_hosts[(run.name, run.replica)] == "survivor"
        assert result.fingerprint() == local.fingerprint()


class TestElasticStealing:
    """An idle host takes the tail of the largest outstanding batch."""

    @pytest.fixture(scope="class")
    def two_shard_setup(self):
        job = fast_job()
        plan = make_shard_plan(CASES, num_shards=2, root_seed=7, replicas=2)
        return job, plan, run_local(job, plan)

    def test_straggler_tail_is_stolen_and_nothing_is_lost(self, two_shard_setup):
        job, plan, local = two_shard_setup
        # host-1 sleeps 4s before each case: host-0 clears its own 2-run
        # shard in well under that and goes idle, so the coordinator splits
        # the straggler's batch instead of letting it set the wall-clock.
        # host-0's 1s pre-assignment sleep keeps the scenario honest under
        # slow process startup: host-1 always registers and takes its shard
        # before host-0 could drain the queue by itself.
        result = run_distributed(
            job, plan, hosts=2, delays={0: 1.0}, case_delays={1: 4.0}
        )
        assert result.steals, "the idle host must steal the straggler's tail"
        assert "host-0 stole" in result.steals[0]
        # Zero lost and zero re-run cases: every planned run completed
        # exactly once, with no re-queues.
        assert result.requeues == []
        assert len(result.case_hosts) == plan.num_runs
        # Stolen runs are re-seeded from the plan, so the merged outcome is
        # bit-identical to the single-host baseline.
        assert result.fingerprint() == local.fingerprint()
        # The stolen run really did execute on the thief.
        stolen_keys = [
            (run.name, run.replica)
            for shard in plan.shards[1:]
            for run in shard.runs
        ]
        assert any(result.case_hosts[key] == "host-0" for key in stolen_keys)

    def test_steal_disabled_keeps_strict_shard_ownership(self, two_shard_setup):
        job, plan, local = two_shard_setup
        result = run_distributed(job, plan, hosts=2, case_delays={1: 2.0}, steal=False)
        assert result.steals == []
        assert result.requeues == []
        assert result.fingerprint() == local.fingerprint()
        # Strict ownership: a shard's runs are never split across hosts.
        # (Which host gets which shard is a pull race — not asserted.)
        for shard in plan.shards:
            owners = {result.case_hosts[(run.name, run.replica)] for run in shard.runs}
            assert len(owners) == 1


class TestCrossHostExchange:
    """Exchange-on runs: adoption happens and stays sound."""

    def test_adopted_incumbent_bound_is_true_accumulated_error(self):
        # tof_4/grover_3 descend over many rounds, so a replica that starts
        # after its sibling finished is still mid-descent when the sibling's
        # final incumbent reaches the board — a real adoption, not a no-op.
        # One host pulls the shards in plan order (replica 0's runs, then
        # replica 1's), so the non-anchor replica is guaranteed to start
        # last; with two hosts, which one pulled the anchor shard was a race.
        job = fast_job(
            max_iterations=60, exchange_interval=5, cross_host_exchange=True
        )
        plan = make_shard_plan(
            ["tof_4", "grover_3"], num_shards=2, root_seed=11, replicas=2
        )
        result = run_distributed(job, plan, hosts=1, steal=False)
        assert result.adoptions, "the late replica must adopt the global best"
        assert any("adopted incumbent" in note for note in result.adoptions)
        # Soundness: the job is rewrites-only, so every transformation is
        # exact and the true accumulated error of any incumbent is 0.  The
        # adopted bound must say exactly that — and the merged circuit must
        # really be unitarily exact, so the bound *equals* the true error
        # rather than merely bounding it.
        circuits = build_cases(job, list(plan.case_names))
        for case in result.cases:
            assert case.merged.error_bound == 0.0
            assert case.merged.error_bound <= job.epsilon_budget
            distance = hilbert_schmidt_distance(
                case.merged.best_circuit.unitary(), circuits[case.name].unitary()
            )
            assert distance < 1e-6  # float32 unitaries: exact up to roundoff

    def test_exchange_off_sends_no_progress_and_stays_bit_identical(self):
        job = fast_job()
        plan = make_shard_plan(CASES, num_shards=2, root_seed=7, replicas=2)
        local = run_local(job, plan)
        result = run_distributed(job, plan, hosts=2)
        assert result.adoptions == []
        assert result.fingerprint() == local.fingerprint()


class TestAdoptIncumbent:
    """Unit seam: the portfolio-side half of cross-host exchange."""

    def _run(self, seed=13):
        circuit = build_cases(fast_job(), ["ghz_5"])["ghz_5"]
        optimizer = build_portfolio(
            "clifford+t",
            objective="ftqc",
            time_limit=1e9,
            max_iterations=30,
            seed=seed,
            num_workers=2,
            exchange_interval=15,
            backend="serial",
            include_resynthesis=False,
        )
        return optimizer.start(circuit), circuit

    def test_adopts_strict_improvement_and_carries_the_bound(self):
        from repro.circuits import Circuit

        run, circuit = self._run()
        try:
            run.step_round()
            # A strictly better "incumbent" at a known accumulated error:
            # the empty circuit costs 0 under any gate-count objective.
            bait = Circuit(circuit.num_qubits)
            assert run.adopt_incumbent(bait, error=0.125)
            assert run.incumbent_cost == 0.0
            assert run.incumbent_error == 0.125
            assert run.best_worker is None
            # The bound travels into the merged result unchanged.
            assert run.result().error_bound == 0.125
        finally:
            run.close()

    def test_rejects_non_improvements(self):
        run, circuit = self._run()
        try:
            run.step_round()
            cost = run.incumbent_cost
            error = run.incumbent_error
            # Same circuit (ties) and worse circuits must both be refused,
            # and refusal must not touch the incumbent record.
            assert not run.adopt_incumbent(run.incumbent_circuit, error=0.5)
            assert not run.adopt_incumbent(circuit, error=0.5)
            assert run.incumbent_cost == cost
            assert run.incumbent_error == error
        finally:
            run.close()


class TestCrossHostCache:
    def test_tcp_cache_reports_cross_host_remote_hits(self):
        server, address = start_tcp_cache_server()
        url = f"tcp://{address[0]}:{address[1]}"
        try:
            job = DistributedJob(
                suite="builtin",
                lower=False,
                max_iterations=40,
                num_workers=1,
                exchange_interval=20,
                resynthesis_probability=0.4,
                synthesis_time_budget=0.3,
                share_resynthesis_cache=url,
            )
            plan = make_shard_plan(
                ["repeated_blocks"], num_shards=2, root_seed=17, replicas=2
            )
            result = run_distributed(job, plan, hosts=2, timeout=240.0)
        finally:
            server.terminate()
            server.join(timeout=10.0)
        assert len(result.hosts) == 2
        assert result.perf is not None
        # Each host ran exactly one replica with a fresh cache front end, so
        # every remote hit was served by the *other machine's* insertions.
        assert result.cache_remote_hits > 0
        assert result.perf.caches and all(
            stats.backend == "tcp" for stats in result.perf.caches
        )


class TestDeterministicFailureGuards:
    def test_coordinator_rejects_unresolvable_case_names(self):
        plan = make_shard_plan(["no_such_case"], num_shards=1, root_seed=1)
        with pytest.raises(ValueError, match="no host can resolve"):
            Coordinator(fast_job(), plan)
        builtin_plan = make_shard_plan(["no_such_generator"], num_shards=1, root_seed=1)
        with pytest.raises(ValueError, match="no host can resolve"):
            Coordinator(fast_job(suite="builtin"), builtin_plan)

    def test_repeatedly_failing_shard_aborts_instead_of_spinning(self):
        # A valid plan whose execution fails deterministically on every
        # host: the portfolio rejects the bogus backend at run time.
        job = fast_job(backend="not-a-backend")
        plan = make_shard_plan(["ghz_5"], num_shards=1, root_seed=1)
        coordinator = Coordinator(job, plan, timeout=60.0, max_shard_attempts=2)
        address = coordinator.start()
        context = multiprocessing.get_context()
        agent = context.Process(
            target=run_host_agent, args=(address,), kwargs={"name": "doomed"}
        )
        agent.start()
        try:
            # max_shard_attempts=2 promises two *re-queue retries*, so the
            # run must only abort after the third assignment fails — and the
            # fatal message must name what was still outstanding.
            with pytest.raises(
                RuntimeError,
                match=r"failed on 3 host assignments \(1 initial \+ 2 re-queue retries\)",
            ) as aborted:
                coordinator.join(timeout=90.0)
            assert "still outstanding: [ghz_5#r0] in plan shards [0]" in str(aborted.value)
        finally:
            agent.join(timeout=30.0)
            if agent.is_alive():  # pragma: no cover - hung agent cleanup
                agent.terminate()


class TestNoDeprecatedCacheSpellings:
    """Distrib and serve must not lean on legacy cache spellings.

    :func:`repro.perf.parse_backend_spec` rejects the retired spellings
    (``True``, bare kind names) with a ``TypeError``/``ValueError`` naming
    the grammar, so a path that still spelled one would fail outright.
    These tests run the real distrib and serve execution paths (resynthesis
    on, so the cache argument is actually exercised) with
    ``DeprecationWarning`` promoted to an error, matching a
    ``-W error::DeprecationWarning`` interpreter, so nothing on them may
    warn either.
    """

    @pytest.fixture(autouse=True)
    def _deprecations_are_errors(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            yield

    def test_run_local_is_warning_clean(self):
        job = fast_job(
            include_resynthesis=True,
            max_iterations=10,
            synthesis_time_budget=0.2,
        )
        # A full local plan execution builds every run's portfolio (where
        # the cache argument is spelled out) and covers the distrib path.
        plan = make_shard_plan(["ghz_5"], num_shards=1, root_seed=3)
        result = run_local(job, plan)
        assert len(result.cases) == 1

    def test_serve_scheduler_is_warning_clean(self):
        from repro.circuits import Circuit
        from repro.serve import JobScheduler, JobSpec

        circuit = Circuit(2, name="pair")
        circuit.h(0).h(0).cx(0, 1).cx(0, 1).t(1)
        scheduler = JobScheduler()
        try:
            job_id = scheduler.submit(
                JobSpec(
                    circuit=circuit,
                    seed=5,
                    max_iterations=20,
                    num_workers=1,
                    exchange_interval=10,
                    include_resynthesis=True,
                    synthesis_time_budget=0.2,
                    time_limit=120.0,
                )
            )
            scheduler.run_until_idle()
            assert scheduler.status(job_id).state == "done"
        finally:
            scheduler.close()
