"""Fault-injection tests: kill backends, cache servers, and coordinators mid-run.

The shared-cache stack is a memo, never a source of truth — so every fault
here must cost hit rate (visibly: counters + notes), never correctness and
never the run.  ``FaultyBackend`` is the in-process harness: a backend that
dies with a connection error on cue, which is what a cache server crash
looks like to a front end.  The remaining tests use real processes: a TCP
cache server SIGKILLed under a live portfolio, a host agent whose
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
    make_shard_plan,
    result_fingerprint,
    run_host_agent,
    start_tcp_cache_server,
)
from repro.distrib.worker import HostAgent, build_cases, distrib_authkey, run_case
from repro.gatesets import CLIFFORD_T
from repro.parallel import PortfolioConfig, PortfolioOptimizer
from repro.perf import LocalBackend, ResynthesisCache, TcpCacheBackend
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


class FaultyBackend:
    """A shared-store stand-in that dies after ``fail_after`` operations.

    Wraps a real :class:`LocalBackend` but masquerades as a cross-process
    backend (``kind="tcp"``), so the front end takes its shared-store
    paths (L1, write buffer, remote-hit attribution) — and then sees the
    store vanish exactly the way a killed cache server process would: every
    round trip raises a connection-level error.
    """

    kind = "tcp"
    shared_across_processes = True

    def __init__(self, fail_after: int = 0) -> None:
        self.inner = LocalBackend(maxsize=64)
        self.fail_after = fail_after
        self.operations = 0

    def _maybe_fail(self) -> None:
        self.operations += 1
        if self.operations > self.fail_after:
            raise ConnectionError("injected backend fault")

    def get_many(self, keys):
        self._maybe_fail()
        return self.inner.get_many(keys)

    def put_many(self, items):
        self._maybe_fail()
        self.inner.put_many(items)

    def stats(self):
        return self.inner.stats()

    def clear(self):
        self.inner.clear()

    def close(self):
        pass

    def __len__(self):
        return len(self.inner)


class TestFrontEndDegradation:
    """A dead shared store degrades the front end to local misses, visibly."""

    def _cache(self, fail_after: int = 0) -> ResynthesisCache:
        return ResynthesisCache(
            maxsize=64,
            shared=True,
            backend=FaultyBackend(fail_after=fail_after),
            write_batch_size=1,
        )

    def test_lookup_on_dead_backend_is_a_miss_not_a_crash(self):
        cache = self._cache()
        hit, outcome = cache.get(cnot_conjugated_rz().unitary(), epsilon=EPS)
        assert (hit, outcome) == (False, None)
        assert cache.stats().backend_failures >= 1

    def test_put_on_dead_backend_is_dropped_not_raised(self):
        cache = self._cache()
        block = cnot_conjugated_rz()
        cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
        assert cache.stats().backend_failures >= 1

    def test_own_l1_entries_survive_the_backend_death(self):
        # One successful put, then the store dies: the worker keeps hitting
        # on its own recent entries through the L1 read cache while fresh
        # keys degrade to misses.
        cache = self._cache(fail_after=1)
        block = cnot_conjugated_rz(0.3)
        cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.3, 0, 1), 0.0, 0.0))
        hit, _ = cache.get(block.unitary(), epsilon=EPS)
        assert hit, "own entries must keep hitting from L1 after the store dies"
        hit, _ = cache.get(cnot_conjugated_rz(0.7).unitary(), epsilon=EPS)
        assert not hit
        stats = cache.stats()
        assert stats.hits == 1 and stats.backend_failures >= 1

    def test_failure_note_is_recorded_once(self):
        cache = self._cache()
        for angle in (0.1, 0.2, 0.3):
            cache.get(cnot_conjugated_rz(angle).unitary(), epsilon=EPS)
        failure_notes = [note for note in cache.notes if "failed mid-run" in note]
        assert len(failure_notes) == 1, cache.notes
        assert cache.stats().backend_failures >= 3

    def test_backend_failures_count_as_dropped_in_perf_reports(self):
        cache = self._cache()
        cache.get(cnot_conjugated_rz().unitary(), epsilon=EPS)
        report = PerfReport(caches=[cache.stats()], notes=list(cache.notes))
        assert report.cache_dropped_requests >= 1
        assert report.to_dict()["cache_dropped_requests"] >= 1


class BatchFaultyBackend(FaultyBackend):
    """A backend whose server-side batch synthesis worker dies mid-batch.

    ``die_after_items`` entries are landed in the store before the death —
    exactly what a worker crash between ``put_many`` flushes looks like —
    then the call raises the same connection-level error a vanished server
    would.  Regular ``get_many``/``put_many`` traffic stays healthy (the
    huge ``fail_after``), so the tests isolate the batch-job fault path.
    """

    supports_batch_synthesis = True

    def __init__(self, die_after_items: int = 0) -> None:
        super().__init__(fail_after=10**9)
        self.die_after_items = die_after_items
        self.batch_calls = 0

    def synth_batch(self, spec, items):
        from repro.synthesis.batch import synthesize_missing_into_store

        self.batch_calls += 1
        if self.die_after_items < len(items):
            landed = items[: self.die_after_items]
            if landed:
                synthesize_missing_into_store(self.inner, spec, landed)
            raise ConnectionError("injected batch worker death")
        return synthesize_missing_into_store(self.inner, spec, items)


class TestBatchDispatchFaults:
    """A dying batch worker degrades to per-item scalar synthesis, visibly.

    The invariant: offload failure may cost speed, never a dropped miss —
    every block in the batch still gets its outcome, ``batch_failures``
    counts the event, and the degradation surfaces through the cache note
    into ``PerfReport.notes``.
    """

    def _resynthesizer(self, backend):
        cache = ResynthesisCache(
            maxsize=64, shared=True, backend=backend, write_batch_size=1
        )
        return CliffordTResynthesizer(
            epsilon=EPS, bfs_depth=4, anneal_iterations=20, anneal_restarts=1, rng=9
        ).attach_cache(cache)

    def _solvable_blocks(self):
        # BFS-exact blocks: outcomes are rng-independent, so values can be
        # compared across runs whose rng streams are not bit-aligned.
        return [
            Circuit(1).h(0).t(0),
            Circuit(2).cx(0, 1).t(1),
            Circuit(2).h(0).cx(0, 1),
            Circuit(1).s(0),
        ]

    def test_total_batch_death_is_bit_identical_to_never_offloading(self):
        from repro.synthesis.batch import BatchResynthesizer

        blocks = self._solvable_blocks()
        scalar = self._resynthesizer(BatchFaultyBackend(die_after_items=0))
        faulty = self._resynthesizer(BatchFaultyBackend(die_after_items=0))
        engine = BatchResynthesizer(faulty, offload="auto")
        expected = scalar.resynthesize_many(blocks)
        got = engine.resynthesize_batch(blocks)
        assert got == expected
        assert engine.batch_failures == 1
        assert faulty.cache.backend.batch_calls == 1
        stats = faulty.cache.stats()
        assert stats.batch_failures == 1
        assert stats.hits == scalar.cache.stats().hits
        assert any("degraded to per-item scalar" in note for note in faulty.cache.notes)

    def test_mid_batch_death_never_drops_a_miss(self):
        from repro.synthesis.batch import BatchResynthesizer

        blocks = self._solvable_blocks()
        reference = CliffordTResynthesizer(
            epsilon=EPS, bfs_depth=4, anneal_iterations=20, anneal_restarts=1, rng=9
        )
        expected = reference.resynthesize_many(blocks)
        faulty = self._resynthesizer(BatchFaultyBackend(die_after_items=1))
        engine = BatchResynthesizer(faulty, offload="auto")
        got = engine.resynthesize_batch(blocks)
        assert len(got) == len(blocks)
        for got_outcome, expected_outcome in zip(got, expected):
            assert (got_outcome is None) == (expected_outcome is None)
            if expected_outcome is not None:
                assert got_outcome.circuit == expected_outcome.circuit
                assert got_outcome.distance == expected_outcome.distance
        assert engine.batch_failures == 1
        assert faulty.cache.stats().batch_failures == 1

    def test_batch_failures_surface_through_perf_reports(self):
        from repro.synthesis.batch import BatchResynthesizer

        faulty = self._resynthesizer(BatchFaultyBackend(die_after_items=0))
        engine = BatchResynthesizer(faulty, offload="auto")
        engine.resynthesize_batch(self._solvable_blocks())
        report = PerfReport(caches=[faulty.cache.stats()], notes=list(faulty.cache.notes))
        assert report.cache_batch_failures == 1
        assert report.to_dict()["cache_batch_failures"] == 1
        assert any("degraded to per-item scalar" in note for note in report.notes)

    def test_degradation_note_is_recorded_once(self):
        from repro.synthesis.batch import BatchResynthesizer

        faulty = self._resynthesizer(BatchFaultyBackend(die_after_items=0))
        engine = BatchResynthesizer(faulty, offload="auto")
        engine.resynthesize_batch(self._solvable_blocks()[:2])
        engine.resynthesize_batch([cnot_conjugated_rz(0.11), cnot_conjugated_rz(0.13)])
        assert engine.batch_failures == 2
        notes = [note for note in faulty.cache.notes if "per-item scalar" in note]
        assert len(notes) == 1, faulty.cache.notes

    def test_tcp_batch_synthesis_on_dead_servers_counts_dropped(self):
        from repro.synthesis.batch import BatchResynthesizer, resynthesizer_spec

        process, address = start_tcp_cache_server(maxsize=64)
        backend = TcpCacheBackend([address])
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
            # And the engine on top still resolves every block locally.
            engine = BatchResynthesizer(resynthesizer, offload="auto")
            results = engine.resynthesize_batch(self._solvable_blocks())
            assert all(outcome is not None for outcome in results)
            assert resynthesizer.cache.stats().batch_failures >= 1
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
    """A cache server killed mid-run degrades its key range — and says so."""

    def test_mid_run_server_death_degrades_and_surfaces(self):
        process, address = start_tcp_cache_server(maxsize=64)
        cache = ResynthesisCache(shared=True, backend=TcpCacheBackend([address]))
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
        process, address = start_tcp_cache_server(maxsize=64)
        backend = TcpCacheBackend([address])
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
        plan = make_shard_plan(["ghz_5"], num_shards=1, root_seed=1)
        coordinator = Coordinator(job, plan, timeout=60.0, max_shard_attempts=1)
        address = coordinator.start()
        agent = multiprocessing.get_context().Process(
            target=run_host_agent, args=(address,), kwargs={"name": "doomed"}
        )
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
        # A fake coordinator hands out one deterministically failing shard
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
        shard = make_shard_plan(["ghz_5"], num_shards=1, root_seed=1).shards[0]
        with Listener(("127.0.0.1", 0), authkey=distrib_authkey()) as listener:
            agent = HostAgent(listener.address, poll_interval=30.0, connect_timeout=10.0)
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            connection = listener.accept()
            op, _ = connection.recv()
            assert op == "hello"
            connection.send(("welcome", {"shards": 1, "runs": 1}))
            op, _ = connection.recv()
            assert op == "next"
            connection.send(("assign", (0, shard.runs, job)))
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
            connection.send(("welcome", {"shards": 1, "runs": 1}))
            op, _ = connection.recv()
            assert op == "next"
            connection.send(("assign", (0, (run,), job)))
            while True:
                op, payload = connection.recv()
                if op == "progress":
                    heartbeats += 1
                    connection.send(
                        (
                            "ok",
                            {
                                "revoked": [],
                                "incumbents": {
                                    "ghz_5": (0.0, self.BAIT_ERROR, bait)
                                },
                            },
                        )
                    )
                elif op == "case-result":
                    _assignment_id, _key, result = payload
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

        process, address = start_tcp_cache_server(maxsize=64)
        backend = TcpCacheBackend([address])
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
            plan = make_shard_plan(["ghz_5"], num_shards=1, root_seed=3)
            coordinator = Coordinator(job, plan, timeout=120.0)
            bound = coordinator.start()
            agent = multiprocessing.get_context().Process(
                target=run_host_agent, args=(bound,), kwargs={"name": "host-0"}
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
