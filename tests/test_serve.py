"""Tests for the optimization job service (``repro.serve``).

The load-bearing properties: scheduler interleaving never perturbs job
outcomes (a served job is bit-identical to the same call through
``optimize_circuit_portfolio``), fair share keeps per-job progress within
provable bounds, the incumbent stream is strictly improving, a job id
survives detach/reattach across connections, and jobs queued beyond
``max_resident`` become resident as slots free and run to completion.
"""

import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.circuits import Circuit
from repro.distrib import circuit_fingerprint
from repro.parallel import optimize_circuit_portfolio
from repro.serve import (
    IncumbentPoint,
    JobClient,
    JobScheduler,
    JobServer,
    JobSpec,
    JobStatus,
)
from repro.serve.scheduler import DEADLINE_HORIZON


def redundant_circuit() -> Circuit:
    """Clifford+T circuit with cancellable pairs: optimizes 10 -> ~4 quickly."""
    circuit = Circuit(3, name="redundant")
    circuit.h(0).h(0).cx(0, 1).cx(0, 1).t(1)
    circuit.x(2).x(2).cx(1, 2).cx(1, 2).s(0).h(1).h(1)
    circuit.cx(0, 2).cx(0, 2).t(0)
    return circuit


def fast_spec(seed=5, **overrides) -> JobSpec:
    """Rewrites-only two-worker job: deterministic and quick."""
    settings = dict(
        circuit=redundant_circuit(),
        seed=seed,
        max_iterations=60,
        num_workers=2,
        exchange_interval=15,
        include_resynthesis=False,
        time_limit=120.0,
    )
    settings.update(overrides)
    return JobSpec(**settings)


class TestJobSpec:
    def test_rejects_missing_circuit(self):
        with pytest.raises(ValueError, match="circuit"):
            JobSpec(circuit=None)

    def test_rejects_bad_weight_and_deadline(self):
        with pytest.raises(ValueError, match="weight"):
            JobSpec(circuit=redundant_circuit(), weight=0.0)
        with pytest.raises(ValueError, match="deadline"):
            JobSpec(circuit=redundant_circuit(), deadline=-1.0)


class TestSchedulerLifecycle:
    def test_job_runs_to_done(self):
        scheduler = JobScheduler()
        try:
            job_id = scheduler.submit(fast_spec())
            assert scheduler.status(job_id).state == "queued"
            assert scheduler.tick()
            assert scheduler.status(job_id).state == "running"
            scheduler.run_until_idle()
            status, result = scheduler.result(job_id)
            assert status.state == "done" and status.terminal
            assert result is not None
            assert result.best_cost < result.initial_cost
            assert status.quanta > 1
        finally:
            scheduler.close()

    def test_anytime_result_while_running(self):
        scheduler = JobScheduler()
        try:
            job_id = scheduler.submit(fast_spec())
            scheduler.tick()
            status, result = scheduler.result(job_id)
            assert status.state == "running"
            assert result is not None  # anytime snapshot, not None-until-done
            assert result.total_iterations > 0
        finally:
            scheduler.close()

    def test_incumbent_stream_is_strictly_improving(self):
        scheduler = JobScheduler()
        try:
            job_id = scheduler.submit(fast_spec())
            scheduler.run_until_idle()
            points = scheduler.incumbents(job_id)
            assert len(points) >= 2  # the starting cost plus an improvement
            assert all(isinstance(point, IncumbentPoint) for point in points)
            assert [point.seq for point in points] == list(range(1, len(points) + 1))
            costs = [point.cost for point in points]
            assert all(late < early for early, late in zip(costs, costs[1:]))
            since = scheduler.incumbents(job_id, since_seq=points[0].seq)
            assert since == points[1:]
        finally:
            scheduler.close()

    def test_cancel_queued_and_running(self):
        scheduler = JobScheduler(max_resident=1)
        try:
            running = scheduler.submit(fast_spec(seed=1, max_iterations=600))
            queued = scheduler.submit(fast_spec(seed=2))
            scheduler.tick()
            assert scheduler.cancel(queued) is True
            assert scheduler.status(queued).state == "cancelled"
            assert scheduler.cancel(running) is True
            status, result = scheduler.result(running)
            assert status.state == "cancelled"
            assert result is not None  # keeps its anytime snapshot
            assert scheduler.cancel(running) is False  # already terminal
        finally:
            scheduler.close()

    def test_failed_job_does_not_kill_the_loop(self):
        scheduler = JobScheduler()
        try:
            bad = scheduler.submit(fast_spec(gate_set="no-such-gate-set"))
            good = scheduler.submit(fast_spec())
            scheduler.run_until_idle()
            assert scheduler.status(bad).state == "failed"
            assert scheduler.status(bad).message
            assert scheduler.status(good).state == "done"
        finally:
            scheduler.close()

    def test_unknown_job_id_raises(self):
        scheduler = JobScheduler()
        try:
            with pytest.raises(KeyError):
                scheduler.status("job-nope")
        finally:
            scheduler.close()


class TestFairShare:
    def test_equal_weights_interleave_within_one_quantum(self):
        scheduler = JobScheduler()
        try:
            first = scheduler.submit(fast_spec(seed=1, max_iterations=300))
            second = scheduler.submit(fast_spec(seed=2, max_iterations=300))
            for _ in range(10):
                scheduler.tick()
                quanta = [scheduler.status(jid).quanta for jid in (first, second)]
                assert abs(quanta[0] - quanta[1]) <= 1
        finally:
            scheduler.close()

    def test_weight_scales_share(self):
        scheduler = JobScheduler()
        try:
            heavy = scheduler.submit(fast_spec(seed=1, max_iterations=3000, weight=2.0))
            light = scheduler.submit(fast_spec(seed=2, max_iterations=3000, weight=1.0))
            for _ in range(12):
                scheduler.tick()
            assert scheduler.status(heavy).quanta == 2 * scheduler.status(light).quanta
        finally:
            scheduler.close()

    def test_deadline_policy_boosts_urgent_jobs(self):
        scheduler = JobScheduler(policy="deadline")
        try:
            urgent = scheduler.submit(
                fast_spec(seed=1, max_iterations=3000, deadline=DEADLINE_HORIZON / 3)
            )
            relaxed = scheduler.submit(fast_spec(seed=2, max_iterations=3000))
            for _ in range(12):
                scheduler.tick()
            assert scheduler.status(urgent).quanta == 3 * scheduler.status(relaxed).quanta
        finally:
            scheduler.close()

    def test_tenant_budget_finalizes_early_with_anytime_result(self):
        scheduler = JobScheduler(tenant_step_budgets={"capped": 60})
        try:
            capped = scheduler.submit(
                fast_spec(seed=1, max_iterations=100_000, tenant="capped")
            )
            free = scheduler.submit(fast_spec(seed=2, tenant="other"))
            scheduler.run_until_idle()
            status, result = scheduler.result(capped)
            assert status.state == "done" and status.budget_exhausted
            assert result is not None and result.total_iterations >= 60
            assert scheduler.status(free).budget_exhausted is False
            # A later job from the exhausted tenant never gets a quantum.
            late = scheduler.submit(fast_spec(seed=3, tenant="capped"))
            scheduler.run_until_idle()
            late_status = scheduler.status(late)
            assert late_status.budget_exhausted and late_status.iterations == 0
        finally:
            scheduler.close()

    def test_max_resident_bounds_open_runs(self):
        scheduler = JobScheduler(max_resident=1)
        try:
            ids = [scheduler.submit(fast_spec(seed=i)) for i in range(3)]
            # run_until_idle(), one tick at a time: the one slot is never
            # shared, and each queued job becomes resident once it frees.
            ticks = 0
            while scheduler.run_until_idle(max_quanta=1):
                ticks += 1
                states = [scheduler.status(jid).state for jid in ids]
                if ticks == 1:
                    assert states == ["running", "queued", "queued"]
                assert states.count("running") <= 1
            assert [scheduler.status(jid).state for jid in ids] == ["done"] * 3
        finally:
            scheduler.close()


class TestServeStandsOnParallel:
    """Serve builds jobs through ``repro.parallel`` alone."""

    SCRIPT = """
import sys
from repro.circuits import Circuit
from repro.serve import JobScheduler, JobSpec

circuit = Circuit(2, name="pair")
circuit.h(0).h(0).cx(0, 1).cx(0, 1).t(1)
scheduler = JobScheduler()
job_id = scheduler.submit(JobSpec(
    circuit=circuit, seed=5, max_iterations=20, num_workers=1,
    exchange_interval=10, synthesis_time_budget=0.2, time_limit=120.0,
))
scheduler.run_until_idle()
assert scheduler.status(job_id).state == "done"
scheduler.close()
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "distrib"]))
"""

    def test_running_a_job_imports_no_distrib_module(self):
        # A fresh interpreter: this test process already imported distrib.
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip().splitlines()[-1] == "[]"


class TestServedOutcomeIdentity:
    """The acceptance criterion: serving never changes what a job returns."""

    SEEDS = (11, 12, 13)

    def _direct(self, seed):
        return optimize_circuit_portfolio(
            redundant_circuit(),
            "clifford+t",
            objective="ftqc",
            time_limit=120.0,
            max_iterations=60,
            seed=seed,
            num_workers=2,
            exchange_interval=15,
            backend="serial",
            include_resynthesis=False,
        )

    def test_concurrent_serve_matches_sequential_portfolio(self):
        scheduler = JobScheduler()  # no shared cache: the bit-identical regime
        try:
            ids = [scheduler.submit(fast_spec(seed=seed)) for seed in self.SEEDS]
            scheduler.run_until_idle()  # interleaves quanta across all three
            for job_id, seed in zip(ids, self.SEEDS):
                status, served = scheduler.result(job_id)
                assert status.state == "done"
                direct = self._direct(seed)
                assert served.best_cost == direct.best_cost
                assert served.initial_cost == direct.initial_cost
                assert served.total_iterations == direct.total_iterations
                assert served.rounds == direct.rounds
                assert served.incumbent_trace == direct.incumbent_trace
                assert circuit_fingerprint(served.best_circuit) == circuit_fingerprint(
                    direct.best_circuit
                )
                assert [r.best_cost for r in served.worker_results] == [
                    r.best_cost for r in direct.worker_results
                ]
        finally:
            scheduler.close()


def start_server(**kwargs) -> JobServer:
    server = JobServer(**kwargs)
    server.start()
    return server


class TestServerWire:
    def test_submit_poll_result_round_trip(self):
        server = start_server()
        try:
            with JobClient(address=server.address) as client:
                assert client.ping()
                job_id = client.submit(fast_spec())
                status, result = client.result(job_id, timeout=120.0)
                assert isinstance(status, JobStatus)
                assert status.state == "done"
                assert result.best_cost < result.initial_cost
        finally:
            server.stop()

    def test_stream_yields_improving_incumbents(self):
        server = start_server()
        try:
            with JobClient(address=server.address) as client:
                job_id = client.submit(fast_spec())
                points = list(client.stream(job_id, timeout=120.0))
                costs = [point.cost for point in points]
                assert len(costs) >= 2
                assert all(late < early for early, late in zip(costs, costs[1:]))
        finally:
            server.stop()

    def test_detach_reattach_by_job_id(self):
        server = start_server()
        try:
            with JobClient(address=server.address) as first:
                job_id = first.submit(fast_spec())
            # The first client is gone; a brand-new connection picks the job
            # up by id alone.
            with JobClient(address=server.address) as second:
                status, result = second.result(job_id, timeout=120.0)
                assert status.state == "done" and result is not None
                assert second.incumbents(job_id)
        finally:
            server.stop()

    def test_cancel_over_the_wire(self):
        server = start_server()
        try:
            with JobClient(address=server.address) as client:
                job_id = client.submit(fast_spec(max_iterations=100_000))
                assert client.cancel(job_id) is True
                status, _ = client.result(job_id, timeout=30.0)
                assert status.state == "cancelled"
        finally:
            server.stop()

    def test_every_bad_request_is_answered_not_dropped(self):
        server = start_server()
        try:
            with JobClient(address=server.address) as client:
                with pytest.raises(RuntimeError, match="unknown op"):
                    client._request("frobnicate")
                with pytest.raises(RuntimeError, match="job-nope"):
                    client.status("job-nope")
                with pytest.raises(RuntimeError, match="JobSpec"):
                    client._request("submit", "not a spec")
                stats = client.server_stats()
                assert stats["requests_failed"] == 3
                assert stats["requests_dropped"] == 0
        finally:
            server.stop()

    def test_jobs_listing_filters_by_tenant(self):
        server = start_server()
        try:
            with JobClient(address=server.address) as client:
                client.submit(fast_spec(seed=1, tenant="a"))
                client.submit(fast_spec(seed=2, tenant="b"))
                assert len(client.jobs()) == 2
                assert [s.tenant for s in client.jobs(tenant="a")] == ["a"]
        finally:
            server.stop()

    def test_shutdown_op_stops_the_server(self):
        server = start_server()
        client = JobClient(address=server.address)
        client.shutdown_server()
        deadline = time.monotonic() + 30.0
        while not server._stop.is_set() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert server._stop.is_set()

    def test_concurrent_clients_share_one_server(self):
        server = start_server()
        try:
            results = {}

            def run_client(seed):
                with JobClient(address=server.address) as client:
                    job_id = client.submit(fast_spec(seed=seed))
                    results[seed] = client.result(job_id, timeout=120.0)

            threads = [threading.Thread(target=run_client, args=(seed,)) for seed in (1, 2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert set(results) == {1, 2, 3}
            assert all(status.state == "done" for status, _ in results.values())
        finally:
            server.stop()


class TestSharedCacheAcrossTenants:
    def test_cross_tenant_reuse_counts_remote_hits(self):
        from repro.distrib import start_tcp_cache_server

        process, address = start_tcp_cache_server()
        server = start_server(cache=f"tcp://{address[0]}:{address[1]}", max_resident=2)
        try:
            with JobClient(address=server.address) as client:
                # Same circuit and seed, different tenants: the second job
                # retraces the first one's resynthesis blocks.  It starts
                # only after the first job's first quantum, whose puts the
                # engine flushed at the quantum boundary, so its first
                # lookups are guaranteed hits on the other tenant's entries.
                spec = fast_spec(
                    seed=1,
                    include_resynthesis=True,
                    resynthesis_probability=0.4,
                    synthesis_time_budget=0.3,
                    exchange_interval=20,
                )
                first = client.submit(replace(spec, tenant="tenant-a"))
                deadline = time.monotonic() + 300.0
                while client.status(first).quanta < 1:
                    assert time.monotonic() < deadline, "first job never ran a quantum"
                    time.sleep(0.02)
                ids = [first, client.submit(replace(spec, tenant="tenant-b"))]
                results = [client.result(jid, timeout=300.0) for jid in ids]
                assert all(status.state == "done" for status, _ in results)
                remote_hits = sum(
                    result.perf.cache_remote_hits for _, result in results if result.perf
                )
                assert remote_hits > 0
                assert all(
                    result.shared_cache_backend == "tcp" for _, result in results
                )
        finally:
            server.stop()
            process.terminate()
            process.join(timeout=30.0)
