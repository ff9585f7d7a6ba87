"""Tests for the distributed evaluation subsystem (``repro.distrib``).

The load-bearing property is the determinism contract: the merged result of
a distributed run is a pure function of ``root seed + run plan``,
independent of how many hosts execute it, in which order runs complete, and
whether a host dies mid-run.  These tests drive a real coordinator over
localhost sockets with real agent subprocesses (1/2/4 hosts), permute
completion order with staggered agents, kill an agent mid-run, and compare
bit-level fingerprints against the single-host baseline throughout.
"""

import multiprocessing
import pickle
import time

import pytest

from repro.distrib import (
    Coordinator,
    DistributedJob,
    HostAgent,
    make_run_plan,
    merge_case_results,
    merge_portfolio_results,
    result_fingerprint,
    run_local,
    start_tcp_cache_server,
)
from repro.distrib.worker import build_cases, distrib_authkey, run_case
from repro.parallel import PortfolioSettings, build_portfolio, optimize_circuit_portfolio
from repro.suite.suite import select_cases
from repro.suite import ftqc_suite
from repro.utils.linalg import hilbert_schmidt_distance
from repro.utils.rng import derive_seed

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


def run_distributed(job, plan, hosts, case_delays=None, timeout=180.0):
    """Drive a coordinator with ``hosts`` agent subprocesses; return the result."""
    coordinator = Coordinator(job, plan, timeout=timeout)
    address = coordinator.start()
    context = multiprocessing.get_context()
    agents = [
        context.Process(
            target=HostAgent(
                address,
                name=f"host-{index}",
                case_delay=(case_delays or {}).get(index, 0.0),
            ).run
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
    """``make_run_plan``: the deterministic, replica-major run order."""

    def test_plan_is_deterministic(self):
        first = make_run_plan(CASES, root_seed=7, replicas=2)
        second = make_run_plan(CASES, root_seed=7, replicas=2)
        assert first == second

    def test_run_seeds_derive_from_replica_and_case_index(self):
        plan = make_run_plan(CASES, root_seed=7, replicas=2)
        assert [run.seed for run in plan.runs] == [
            derive_seed(7, replica, index)
            for replica in range(2)
            for index in range(len(CASES))
        ]
        # A longer case list appends runs; it never re-seeds earlier cases.
        wider = make_run_plan(CASES + ["tof_4"], root_seed=7, replicas=2)
        assert set(plan.runs) < set(wider.runs)

    def test_replica_major_order_separates_replicas(self):
        plan = make_run_plan(CASES, root_seed=7, replicas=2)
        assert [run.replica for run in plan.runs] == [0, 0, 1, 1]
        assert [run.name for run in plan.runs] == CASES + CASES

    def test_distinct_seeds_across_replicas_and_cases(self):
        plan = make_run_plan(CASES, root_seed=7, replicas=3)
        seeds = [run.seed for run in plan.runs]
        assert len(set(seeds)) == len(seeds)

    def test_none_root_seed_gives_none_run_seeds(self):
        plan = make_run_plan(CASES)
        assert all(run.seed is None for run in plan.runs)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_run_plan([])
        with pytest.raises(ValueError):
            make_run_plan(["a", "a"])
        with pytest.raises(ValueError):
            make_run_plan(["a"], replicas=0)
        with pytest.raises(ValueError):
            DistributedJob(suite="nope")

    def test_plan_and_job_are_picklable(self):
        plan = make_run_plan(CASES, root_seed=7)
        job = fast_job()
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert pickle.loads(pickle.dumps(job)) == job


class TestMergeSemantics:
    def _replica_results(self, job=None, replicas=2):
        job = job or fast_job()
        plan = make_run_plan(["ghz_5"], root_seed=11, replicas=replicas)
        circuits = build_cases(job, list(plan.case_names))
        by_run = {
            (run.name, run.replica): run_case(job, run, circuits[run.name]) for run in plan.runs
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
        [run] = make_run_plan(["tof_4"], root_seed=5).runs
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
        plan = make_run_plan(CASES, root_seed=7, replicas=2)
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
        # Stagger one host so run completion order inverts vs the uniform
        # run; the merge must normalize it away.
        result = run_distributed(job, plan, hosts=2, case_delays={0: 1.0})
        assert result.fingerprint() == local.fingerprint()

    def test_killed_host_mid_shard_requeues_and_completes(self, baseline):
        job, plan, local = baseline
        coordinator = Coordinator(job, plan, timeout=180.0)
        address = coordinator.start()
        context = multiprocessing.get_context()
        victim = context.Process(target=HostAgent(address, name="victim", case_delay=8.0).run)
        victim.start()
        # The victim registers and takes a run within ~a second, then sits
        # in its 8s pre-execution delay — killing it now is mid-run.
        time.sleep(2.0)
        victim.terminate()
        survivor = context.Process(target=HostAgent(address, name="survivor").run)
        survivor.start()
        try:
            result = coordinator.join(timeout=200.0)
        finally:
            survivor.join(timeout=30.0)
            victim.join(timeout=10.0)
        assert result.requeues, "the killed host's run must be re-queued"
        assert "victim" in result.requeues[0]
        assert result.fingerprint() == local.fingerprint()


class TestCaseGranularFaultTolerance:
    """A lost host forfeits only its unfinished run — completed work survives."""

    def test_lost_host_keeps_completed_cases(self):
        from multiprocessing.connection import Client

        job = fast_job()
        plan = make_run_plan(CASES, root_seed=7, replicas=2)
        local = run_local(job, plan)
        coordinator = Coordinator(job, plan, timeout=120.0)
        address = coordinator.start()
        # Drive the wire protocol by hand: complete exactly one run as
        # "victim", pull a second, then drop the connection — deterministic,
        # no timing.
        connection = Client(address, authkey=distrib_authkey())
        connection.send(("hello", "victim"))
        connection.recv()
        connection.send(("next", None))
        op, (first, wire_job) = connection.recv()
        assert op == "assign" and first == plan.runs[0]
        circuits = build_cases(wire_job, [first.name])
        first_result = run_case(wire_job, first, circuits[first.name])
        connection.send(("case-result", ((first.name, first.replica), first_result)))
        op, _update = connection.recv()
        assert op == "ok"
        connection.send(("next", None))
        op, (second, _job) = connection.recv()
        assert op == "assign" and second == plan.runs[1]
        connection.close()  # the host "crashes" holding one unfinished run

        survivor = multiprocessing.get_context().Process(
            target=HostAgent(address, name="survivor").run
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
        # ... and the re-queue covers exactly the run it held.
        assert result.requeues == [
            f"case {second.name}#r{second.replica} re-queued from victim: connection lost"
        ]
        for run in plan.runs[1:]:
            assert result.case_hosts[(run.name, run.replica)] == "survivor"
        assert result.fingerprint() == local.fingerprint()


class TestOneRunPerPull:
    """``next`` hands a host exactly one run, so balancing follows from pulling."""

    def test_idle_session_drains_the_queue_while_another_holds_one_run(self):
        from multiprocessing.connection import Client

        job = fast_job()
        plan = make_run_plan(CASES, root_seed=7, replicas=2)
        local = run_local(job, plan)
        coordinator = Coordinator(job, plan, timeout=120.0)
        address = coordinator.start()
        circuits = build_cases(job, CASES)

        def report(connection, run):
            result = run_case(job, run, circuits[run.name])
            connection.send(("case-result", ((run.name, run.replica), result)))
            assert connection.recv() == ("ok", {})

        # Two sessions driven by hand: A takes a run and sits on it (a
        # straggler), B pulls and completes runs one at a time.
        a = Client(address, authkey=distrib_authkey())
        b = Client(address, authkey=distrib_authkey())
        for connection, name in ((a, "A"), (b, "B")):
            connection.send(("hello", name))
            assert connection.recv()[0] == "welcome"
        a.send(("next", None))
        op, (held, _job) = a.recv()
        assert op == "assign" and held == plan.runs[0]
        drained = []
        while True:
            b.send(("next", None))
            op, payload = b.recv()
            if op == "wait":
                break  # the queue is empty; only A's run is outstanding
            assert op == "assign"
            run, _job = payload
            drained.append(run)
            # A asking again while it holds a run gets the same run back,
            # never a second one.
            a.send(("next", None))
            op, (again, _job) = a.recv()
            assert op == "assign" and again == held
            report(b, run)
        assert drained == list(plan.runs[1:])

        a.close()  # A "crashes" holding its one run
        # The loss is handled on the coordinator's connection thread: B's
        # pulls wait until exactly A's run is back on the queue.
        while op == "wait":
            b.send(("next", None))
            op, payload = b.recv()
        assert op == "assign"
        requeued, _job = payload
        assert requeued == held
        report(b, requeued)
        b.close()
        result = coordinator.join(timeout=60.0)

        assert result.requeues == [
            f"case {held.name}#r{held.replica} re-queued from A: connection lost"
        ]
        assert set(result.case_hosts.values()) == {"B"}
        assert result.fingerprint() == local.fingerprint()


class TestCrossHostExchange:
    """Exchange-on runs: adoption happens and stays sound."""

    def test_adopted_incumbent_bound_is_true_accumulated_error(self):
        # tof_4/grover_3 descend over many rounds, so a replica that starts
        # after its sibling finished is still mid-descent when the sibling's
        # final incumbent reaches the board — a real adoption, not a no-op.
        # One host pulls the runs in plan order (replica 0's runs, then
        # replica 1's), so the non-anchor replica is guaranteed to start
        # last; with two hosts, which one pulled the anchor run was a race.
        job = fast_job(
            max_iterations=60, exchange_interval=5, cross_host_exchange=True
        )
        plan = make_run_plan(["tof_4", "grover_3"], root_seed=11, replicas=2)
        result = run_distributed(job, plan, hosts=1)
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
        plan = make_run_plan(CASES, root_seed=7, replicas=2)
        local = run_local(job, plan)
        result = run_distributed(job, plan, hosts=2)
        assert result.adoptions == []
        assert result.fingerprint() == local.fingerprint()


class TestAdoptIncumbent:
    """Unit seam: the portfolio-side half of cross-host exchange."""

    def _run(self, seed=13):
        circuit = build_cases(fast_job(), ["ghz_5"])["ghz_5"]
        optimizer = build_portfolio(
            PortfolioSettings(
                gate_set="clifford+t",
                objective="ftqc",
                time_limit=1e9,
                max_iterations=30,
                num_workers=2,
                exchange_interval=15,
                backend="serial",
                include_resynthesis=False,
            ),
            seed=seed,
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
            plan = make_run_plan(["repeated_blocks"], root_seed=17, replicas=2)
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
        plan = make_run_plan(["no_such_case"], root_seed=1)
        with pytest.raises(ValueError, match="no host can resolve"):
            Coordinator(fast_job(), plan)
        builtin_plan = make_run_plan(["no_such_generator"], root_seed=1)
        with pytest.raises(ValueError, match="no host can resolve"):
            Coordinator(fast_job(suite="builtin"), builtin_plan)

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_attempt_cap_below_one_is_rejected(self, max_attempts):
        plan = make_run_plan(["ghz_5"], root_seed=1)
        with pytest.raises(ValueError, match="max_attempts must be at least 1"):
            Coordinator(fast_job(), plan, max_attempts=max_attempts)

    def test_repeatedly_failing_shard_aborts_instead_of_spinning(self):
        # A valid plan whose execution fails deterministically on every
        # host: the portfolio rejects the bogus backend at run time.
        job = fast_job(backend="not-a-backend")
        plan = make_run_plan(["ghz_5"], root_seed=1)
        coordinator = Coordinator(job, plan, timeout=60.0, max_attempts=2)
        address = coordinator.start()
        context = multiprocessing.get_context()
        agent = context.Process(target=HostAgent(address, name="doomed").run)
        agent.start()
        try:
            # max_attempts=2 promises two *re-queue retries*, so the
            # run must only abort after the third assignment fails — and the
            # fatal message must name what was still outstanding.
            with pytest.raises(
                RuntimeError,
                match=r"failed on 3 host assignments \(1 initial \+ 2 re-queue retries\)",
            ) as aborted:
                coordinator.join(timeout=90.0)
            assert "still outstanding: [ghz_5#r0]" in str(aborted.value)
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
        plan = make_run_plan(["ghz_5"], root_seed=3)
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
