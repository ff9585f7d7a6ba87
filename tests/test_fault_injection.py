"""Fault-injection tests: kill backends, cache servers, and coordinators mid-run.

The shared-cache stack is a memo, never a source of truth — so every fault
here must cost hit rate (visibly: counters + notes), never correctness and
never the run.  Every test uses real processes: a TCP cache server
SIGKILLed under a front end or a live portfolio, a host agent whose
coordinator vanishes mid-failure, and a coordinator's fd hygiene on exit.
"""

import os
import signal
import threading
import time

import pytest

from repro.circuits import Circuit
from repro.core import (
    GuoqConfig,
    ResynthesisTransformation,
    TotalGateCount,
    rewrite_transformations,
)
from repro.distrib import (
    CaseRun,
    Coordinator,
    DistributedJob,
    make_run_plan,
    result_fingerprint,
    start_tcp_cache_server,
)
from repro.distrib.worker import HostAgent, build_cases, distrib_authkey, run_case
from repro.gatesets import CLIFFORD_T
from repro.parallel import PortfolioConfig, PortfolioOptimizer
from repro.perf import ResynthesisCache, TcpCacheBackend
from repro.perf.report import PerfReport
from repro.rewrite import rules_for_gate_set
from repro.rpc import _CONNECTIONS
from repro.suite.generators import random_clifford_t
from repro.synthesis import CliffordTResynthesizer
from repro.synthesis.resynth import ResynthesisOutcome

EPS = 1e-6


def cnot_conjugated_rz(angle: float = 0.5) -> Circuit:
    circuit = Circuit(2)
    circuit.cx(0, 1).rz(angle, 1).cx(0, 1)
    return circuit


@pytest.fixture
def doomed_cache():
    """``(cache, kill)``: a shared front end on a live tcp cache server, and
    a callable that SIGKILLs that server — a cache server crash exactly as
    the front end sees one."""
    process, address = start_tcp_cache_server(cache="local:?maxsize=64")
    cache = ResynthesisCache(maxsize=64, shared=True, backend=TcpCacheBackend(address))

    def kill():
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)

    try:
        yield cache, kill
    finally:
        cache.close()
        if process.is_alive():
            kill()


class TestFrontEndDegradation:
    """A killed cache server degrades the front end to local misses, visibly.

    The tcp backend is the one place a lost store is absorbed: lookups on it
    miss, writes to it are dropped, and both count as ``dropped_requests``.
    """

    def test_lookup_on_dead_backend_is_a_miss_not_a_crash(self, doomed_cache):
        cache, kill = doomed_cache
        kill()
        hit, outcome = cache.get(cnot_conjugated_rz().unitary(), epsilon=EPS)
        assert (hit, outcome) == (False, None)
        stats = cache.stats()
        assert stats.dropped_requests >= 1 and stats.unreachable_servers == 1

    def test_put_on_dead_backend_is_dropped_not_raised(self, doomed_cache):
        cache, kill = doomed_cache
        kill()
        block = cnot_conjugated_rz()
        cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
        cache.flush()
        stats = cache.stats()
        assert stats.dropped_requests >= 1 and stats.unreachable_servers == 1

    def test_own_l1_entries_survive_the_backend_death(self, doomed_cache):
        # One put reaches the server, then it dies: the worker keeps hitting
        # on its own recent entries through the L1 read cache while fresh
        # keys degrade to misses.
        cache, kill = doomed_cache
        block = cnot_conjugated_rz(0.3)
        cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.3, 0, 1), 0.0, 0.0))
        cache.flush()
        kill()
        hit, _ = cache.get(block.unitary(), epsilon=EPS)
        assert hit, "own entries must keep hitting from L1 after the store dies"
        hit, _ = cache.get(cnot_conjugated_rz(0.7).unitary(), epsilon=EPS)
        assert not hit
        stats = cache.stats()
        assert stats.hits == 1 and stats.dropped_requests >= 1

    def test_failure_note_is_recorded_once(self, doomed_cache):
        cache, kill = doomed_cache
        kill()
        for angle in (0.1, 0.2, 0.3):
            cache.get(cnot_conjugated_rz(angle).unitary(), epsilon=EPS)
            cache.stats()
        failure_notes = [note for note in cache.notes if "tcp cache degraded mid-run" in note]
        assert len(failure_notes) == 1, cache.notes
        assert cache.stats().dropped_requests >= 3

    def test_backend_failures_count_as_dropped_in_perf_reports(self, doomed_cache):
        cache, kill = doomed_cache
        kill()
        cache.get(cnot_conjugated_rz().unitary(), epsilon=EPS)
        report = PerfReport(caches=[cache.stats()], notes=list(cache.notes))
        assert report.cache_dropped_requests >= 1
        assert report.to_dict()["cache_dropped_requests"] >= 1


class TestBatchDispatchFaults:
    """A server-side batch synthesis job on a dead server degrades, never raises."""

    def _resynthesizer(self, backend):
        cache = ResynthesisCache(maxsize=64, shared=True, backend=backend)
        return CliffordTResynthesizer(
            epsilon=EPS, bfs_depth=4, anneal_iterations=20, anneal_restarts=1, rng=9
        ).attach_cache(cache)

    def test_tcp_batch_synthesis_on_dead_servers_counts_dropped(self):
        from repro.synthesis.batch import resynthesizer_spec

        process, address = start_tcp_cache_server(cache="local:?maxsize=64")
        backend = TcpCacheBackend(address)
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)
        try:
            # The raw client call degrades to a totals dict, never a raise.
            resynthesizer = self._resynthesizer(backend)
            spec = resynthesizer_spec(resynthesizer)
            block = cnot_conjugated_rz(0.5)
            key, _, canonical = resynthesizer.cache.canonical_key(block.unitary())
            totals = backend.synth_batch(spec, [(key, canonical)])
            assert totals["dropped"] == 1
        finally:
            backend.close()


def _clifford_t_transformations():
    resynthesizer = CliffordTResynthesizer(
        epsilon=EPS,
        max_qubits=2,
        bfs_depth=3,
        max_bfs_nodes=600,
        anneal_iterations=150,
        anneal_restarts=1,
        rng=5,
    )
    transformations = rewrite_transformations(rules_for_gate_set(CLIFFORD_T))
    transformations.append(
        ResynthesisTransformation(resynthesizer, max_block_qubits=2, max_block_gates=5)
    )
    return transformations


class TestFlakyTcpServer:
    """A cache server killed mid-run degrades the backend — and says so."""

    def test_mid_run_server_death_degrades_and_surfaces(self):
        process, address = start_tcp_cache_server(cache="local:?maxsize=64")
        cache = ResynthesisCache(shared=True, backend=TcpCacheBackend(address))
        try:
            block = cnot_conjugated_rz()
            cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
            cache.flush()
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10.0)
            # Fresh keys degrade to misses; nothing raises into the run.
            hit, _ = cache.get(cnot_conjugated_rz(0.9).unitary(), epsilon=EPS)
            assert not hit
            stats = cache.stats()
            assert stats.unreachable_servers == 1
            assert stats.dropped_requests > 0
            assert any("tcp cache degraded mid-run" in note for note in cache.notes)
        finally:
            cache.close()
            process.join(timeout=10.0)

    def test_portfolio_completes_and_surfaces_drop_counters(self):
        # The server dies before the run even starts its lookups: every
        # cache round trip of the whole portfolio is shed — and the run must
        # still complete, with the loss visible on the result object.
        process, address = start_tcp_cache_server(cache="local:?maxsize=64")
        backend = TcpCacheBackend(address)
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)
        cache = ResynthesisCache(shared=True, backend=backend)
        optimizer = PortfolioOptimizer(
            _clifford_t_transformations(),
            TotalGateCount(),
            PortfolioConfig(
                search=GuoqConfig(
                    epsilon_budget=1e-4,
                    time_limit=1e9,
                    max_iterations=40,
                    seed=21,
                    resynthesis_probability=0.3,
                ),
                num_workers=1,
                backend="serial",
            ),
            share_resynthesis_cache=cache,
        )
        result = optimizer.optimize(random_clifford_t(3, 30, seed=4))
        assert result.best_cost <= result.initial_cost
        assert result.cache_dropped_requests > 0
        assert result.cache_unreachable_servers == 1
        assert result.perf is not None
        assert any("tcp cache degraded mid-run" in note for note in result.perf.notes)
        cache.close()


class TestAgentFaultPaths:
    def test_shard_failure_reason_carries_the_traceback(self):
        # One deterministic failure with a cap of 1 aborts immediately; the
        # abort message quotes the requeue reason, which must now include
        # the worker-side traceback, not just repr(error).
        import multiprocessing

        job = DistributedJob(
            suite="ftqc",
            scale="tiny",
            include_resynthesis=False,
            max_iterations=10,
            num_workers=1,
            backend="not-a-backend",
        )
        plan = make_run_plan(["ghz_5"], root_seed=1)
        coordinator = Coordinator(job, plan, timeout=60.0, max_attempts=1)
        address = coordinator.start()
        agent = multiprocessing.get_context().Process(target=HostAgent(address, name="doomed").run)
        agent.start()
        try:
            with pytest.raises(RuntimeError) as aborted:
                coordinator.join(timeout=90.0)
            assert "Traceback (most recent call last)" in str(aborted.value), (
                "the re-queue reason must carry the worker's formatted traceback"
            )
        finally:
            agent.join(timeout=30.0)
            if agent.is_alive():  # pragma: no cover - hung agent cleanup
                agent.terminate()

    def test_agent_exits_promptly_when_coordinator_vanishes_after_failure(self):
        # A fake coordinator hands out one deterministically failing run
        # and disappears.  The agent must notice the dead connection when its
        # error report fails to send and exit immediately — not first serve
        # the post-failure throttle sleep (30s here) to nobody.
        from multiprocessing.connection import Listener

        job = DistributedJob(
            suite="ftqc",
            scale="tiny",
            include_resynthesis=False,
            max_iterations=5,
            num_workers=1,
            backend="not-a-backend",
        )
        [run] = make_run_plan(["ghz_5"], root_seed=1).runs
        with Listener(("127.0.0.1", 0), authkey=distrib_authkey()) as listener:
            agent = HostAgent(listener.address, poll_interval=30.0, connect_timeout=10.0)
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            connection = listener.accept()
            op, _ = connection.recv()
            assert op == "hello"
            connection.send(("welcome", {"runs": 1, "exchange": False}))
            op, _ = connection.recv()
            assert op == "next"
            connection.send(("assign", (run, job)))
            connection.close()
        vanished_at = time.monotonic()
        thread.join(timeout=20.0)
        elapsed = time.monotonic() - vanished_at
        assert not thread.is_alive(), "agent still running long after the coordinator died"
        assert elapsed < 20.0


class TestExchangeAdoption:
    """Drive a real agent with a scripted coordinator feeding it incumbents.

    The scripted side answers every ``progress`` heartbeat with a known
    global incumbent — an empty circuit (cost 0, unbeatable) at a
    recognizable error bound — so the tests pin both halves of the exchange
    contract without any cross-host timing: a non-anchor replica adopts it
    and its merged bound is *exactly* the bound that travelled with the
    circuit; the anchor replica (replica 0) refuses it and stays
    bit-identical to a solo run of the same seed.
    """

    BAIT_ERROR = 0.125

    def _exchange_job(self) -> DistributedJob:
        return DistributedJob(
            suite="ftqc",
            scale="tiny",
            include_resynthesis=False,
            max_iterations=30,
            num_workers=2,
            exchange_interval=5,
            cross_host_exchange=True,
        )

    def _drive_replica(self, replica: int):
        """Run one ``ghz_5`` replica against the scripted coordinator."""
        from multiprocessing.connection import Listener

        job = self._exchange_job()
        run = CaseRun("ghz_5", replica=replica, seed=13)
        bait = Circuit(build_cases(job, ["ghz_5"])["ghz_5"].num_qubits)
        result = None
        heartbeats = 0
        with Listener(("127.0.0.1", 0), authkey=distrib_authkey()) as listener:
            agent = HostAgent(listener.address, poll_interval=0.05, connect_timeout=10.0)
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            connection = listener.accept()
            op, _name = connection.recv()
            assert op == "hello"
            connection.send(("welcome", {"runs": 1, "exchange": True}))
            op, _ = connection.recv()
            assert op == "next"
            connection.send(("assign", (run, job)))
            while True:
                op, payload = connection.recv()
                if op == "progress":
                    heartbeats += 1
                    connection.send(("ok", {"incumbent": (0.0, self.BAIT_ERROR, bait)}))
                elif op == "case-result":
                    _key, result = payload
                    connection.send(("ok", {}))
                elif op == "next":
                    connection.send(("done", None))
                    break
                else:  # pragma: no cover - protocol violation
                    raise AssertionError(f"unexpected agent message {op!r}")
            connection.close()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert heartbeats > 0, "exchange-on runs must heartbeat between rounds"
        return agent, run, result

    def test_non_anchor_replica_adopts_and_the_bound_travels(self):
        agent, _run, result = self._drive_replica(replica=1)
        assert agent.adopted >= 1
        assert result is not None
        assert result.best_cost == 0.0
        # Soundness: the merged bound is the one that travelled with the
        # adopted circuit — not the local trajectory's accumulated epsilon.
        assert result.error_bound == self.BAIT_ERROR

    def test_anchor_replica_never_adopts(self):
        agent, run, result = self._drive_replica(replica=0)
        assert agent.adopted == 0
        assert result is not None
        assert result.error_bound == 0.0
        # Refusing the bait keeps the anchor bit-identical to a solo run of
        # the same seed — the cluster-level "one unperturbed trajectory".
        job = self._exchange_job()
        solo = run_case(job, run, build_cases(job, ["ghz_5"])["ghz_5"])
        assert result_fingerprint(result) == result_fingerprint(solo)


class TestCoordinatorHygiene:
    def test_serve_drains_pooled_cache_connections_on_exit(self):
        # A long-lived driver embeds the in-process coordinator between runs
        # against tcp caches; serve() must leave no pooled fds behind.
        import multiprocessing

        process, address = start_tcp_cache_server(cache="local:?maxsize=64")
        backend = TcpCacheBackend(address)
        try:
            assert backend.ping()
            assert _CONNECTIONS, "the ping should have pooled a connection"
            job = DistributedJob(
                suite="ftqc",
                scale="tiny",
                include_resynthesis=False,
                max_iterations=10,
                num_workers=1,
                exchange_interval=5,
            )
            plan = make_run_plan(["ghz_5"], root_seed=3)
            coordinator = Coordinator(job, plan, timeout=120.0)
            bound = coordinator.start()
            agent = multiprocessing.get_context().Process(
                target=HostAgent(bound, name="host-0").run
            )
            agent.start()
            try:
                result = coordinator.join(timeout=150.0)
            finally:
                agent.join(timeout=30.0)
                if agent.is_alive():  # pragma: no cover - hung agent cleanup
                    agent.terminate()
            assert len(result.cases) == 1
            assert _CONNECTIONS == {}, "serve() must drain this process's pool"
        finally:
            backend.close()
            process.terminate()
            process.join(timeout=10.0)
