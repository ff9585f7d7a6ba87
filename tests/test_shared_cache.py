"""Tests for the cross-process shared cache backend (``repro.perf.shared_cache``).

Covers the seams the in-process cache tests cannot: a worker in one process
hitting on an entry a worker in another process inserted, attaching to the
shared store under both fork and spawn start methods, the cache server's
lifecycle (owned by the portfolio driver, dead after the run), and the
degrade paths — backend bring-up failure falling back to ``local``, and a
pickled local shared cache reporting its downgrade instead of staying silent.
"""

import multiprocessing
import pickle

import pytest

from repro.circuits import Circuit
from repro.circuits.metrics import circuit_distance
from repro.core import (
    GuoqConfig,
    ResynthesisTransformation,
    TotalGateCount,
    rewrite_transformations,
)
from repro.gatesets import CLIFFORD_T
from repro.parallel import PortfolioConfig, PortfolioOptimizer
from repro.perf import ResynthesisCache, SharedCacheUnavailable, parse_backend_spec
from repro.perf.shared_cache import _BucketStore, _Entry
from repro.rewrite import rules_for_gate_set
from repro.suite.generators import random_clifford_t
from repro.synthesis import CliffordTResynthesizer
from repro.synthesis.resynth import ResynthesisOutcome

EPS = 1e-6
BACKEND_FIXTURES = ("server:",)


def cnot_conjugated_rz(control: int, target: int, angle: float = 0.5) -> Circuit:
    circuit = Circuit(2)
    circuit.cx(control, target).rz(angle, target).cx(control, target)
    return circuit


def _shared_cache(kind: str, **kwargs) -> ResynthesisCache:
    try:
        return ResynthesisCache(maxsize=64, shared=True, backend=kind, **kwargs)
    except SharedCacheUnavailable as error:  # pragma: no cover - restricted platforms
        pytest.skip(f"{kind} backend unavailable here: {error}")


def _insert_block_entry(cache: ResynthesisCache, block: Circuit) -> None:
    """Child-process worker body: publish one known entry and flush."""
    cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
    cache.flush()


def _lookup_block_entry(cache: ResynthesisCache, block: Circuit, out) -> None:
    """Child-process worker body: look the block up, report (hit, remote_hits)."""
    hit, outcome = cache.get(block.unitary(), epsilon=EPS)
    out.send((hit, cache.stats().remote_hits, outcome is not None))
    out.close()


class TestCrossProcessReuse:
    """Worker B gets a hit on a key worker A inserted — across real processes."""

    @pytest.mark.parametrize("kind", BACKEND_FIXTURES)
    def test_insert_in_child_hit_in_parent(self, kind):
        cache = _shared_cache(kind)
        try:
            block = cnot_conjugated_rz(0, 1)
            child = multiprocessing.Process(target=_insert_block_entry, args=(cache, block))
            child.start()
            child.join(timeout=60)
            assert child.exitcode == 0
            hit, outcome = cache.get(block.unitary(), epsilon=EPS)
            assert hit
            assert circuit_distance(block, outcome.circuit) < EPS
            stats = cache.stats()
            assert stats.remote_hits == 1, "a sibling's entry must count as a remote hit"
            assert stats.backend == "tcp"
        finally:
            cache.close()

    @pytest.mark.parametrize("kind", BACKEND_FIXTURES)
    def test_insert_in_parent_hit_in_child(self, kind):
        cache = _shared_cache(kind)
        try:
            block = cnot_conjugated_rz(0, 1)
            cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
            cache.flush()
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_lookup_block_entry, args=(cache, block, sender)
            )
            child.start()
            sender.close()
            assert receiver.poll(60), "child never reported"
            hit, remote_hits, has_outcome = receiver.recv()
            child.join(timeout=60)
            # The entry reached the child through the shared store (its L1 is
            # dropped on pickling), proving cross-process reuse; attribution
            # stays "own key" because the child forked from the inserting
            # front end and inherited its put-set — portfolio workers fork
            # from the driver's empty put-set instead, so sibling entries
            # count as remote there (see TestPortfolioIntegration).
            assert hit and has_outcome
            assert remote_hits == 0
        finally:
            cache.close()

    @pytest.mark.parametrize("kind", BACKEND_FIXTURES)
    def test_own_entries_are_not_remote_hits(self, kind):
        cache = _shared_cache(kind)
        try:
            block = cnot_conjugated_rz(0, 1)
            cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
            hit, _ = cache.get(block.unitary(), epsilon=EPS)
            assert hit
            assert cache.stats().remote_hits == 0
        finally:
            cache.close()


class TestSpawnVsForkAttach:
    """A pickled front end must re-attach to the shared store under either
    start method (spawn re-imports; fork inherits)."""

    @pytest.mark.parametrize("kind", BACKEND_FIXTURES)
    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_attach_across_start_methods(self, kind, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        context = multiprocessing.get_context(start_method)
        cache = _shared_cache(kind)
        try:
            block = cnot_conjugated_rz(0, 1)
            cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
            cache.flush()
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_lookup_block_entry, args=(cache, block, sender)
            )
            child.start()
            sender.close()
            assert receiver.poll(120), f"{start_method} child never reported"
            hit, _, _ = receiver.recv()
            child.join(timeout=120)
            assert hit, f"lookup missed after {start_method} attach"
        finally:
            cache.close()


class TestBackendSemantics:
    def test_local_backend_requires_shared_false_ok(self):
        # a non-local backend on a private cache is a configuration error
        backend = _BucketStore(maxsize=4)
        backend.kind = "tcp"  # masquerade: any non-local kind must be rejected
        with pytest.raises(ValueError):
            ResynthesisCache(shared=False, backend=backend)

    @pytest.mark.parametrize("kind", BACKEND_FIXTURES)
    def test_eviction_bounds_shared_store(self, kind):
        cache = _shared_cache(kind)
        try:
            # the server's store bound is fixed at start time; re-create small
            for index in range(8):
                circuit = Circuit(1).rz(0.1 + index, 0)
                cache.put(circuit.unitary(), None)
            cache.flush()
            assert len(cache) == 8  # default bound not yet exceeded
        finally:
            cache.close()

    def test_server_eviction_respects_maxsize(self):
        try:
            backend = parse_backend_spec("server:?maxsize=4").create()
        except SharedCacheUnavailable as error:  # pragma: no cover
            pytest.skip(f"server backend unavailable here: {error}")
        cache = ResynthesisCache(maxsize=4, shared=True, backend=backend)
        try:
            for index in range(8):
                cache.put(Circuit(1).rz(0.1 + index, 0).unitary(), None)
            cache.flush()
            assert len(cache) <= 4
            assert cache.stats().evictions >= 4
        finally:
            cache.close()

    @pytest.mark.parametrize("kind", BACKEND_FIXTURES)
    def test_negative_entries_travel_through_shared_store(self, kind):
        cache = _shared_cache(kind)
        try:
            unitary = Circuit(1).h(0).unitary()
            cache.put(unitary, None)
            cache.flush()
            fork = pickle.loads(pickle.dumps(cache))
            hit, outcome = fork.get(unitary)
            assert hit and outcome is None
            assert cache.stats().negative_entries == 1
        finally:
            cache.close()

    def test_refresh_to_success_updates_negative_count(self):
        cache = _shared_cache("server:")
        try:
            block = cnot_conjugated_rz(0, 1)
            cache.put(block.unitary(), None)
            cache.flush()
            assert cache.stats().negative_entries == 1
            cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
            cache.flush()
            stats = cache.stats()
            assert stats.negative_entries == 0, "a failure refreshed to success must uncount"
            assert stats.entries == 1
        finally:
            cache.close()

    @pytest.mark.parametrize("kind", BACKEND_FIXTURES)
    def test_unflushed_puts_survive_backend_fetch_into_l1(self, kind, monkeypatch):
        """A backend fetch for a key must merge into the L1 bucket, not
        replace it — otherwise a worker's own buffered (unflushed) results
        are discarded and it re-synthesizes work it already paid for.  The
        scenario needs two contents under one hash key, so every unitary is
        forced into one colliding bucket (as in test_perf_cache)."""
        import repro.perf.cache as cache_module

        original = cache_module.canonicalize_unitary

        def colliding(unitary):
            _, perm, canonical = original(unitary)
            return b"colliding-key", perm, canonical

        monkeypatch.setattr(cache_module, "canonicalize_unitary", colliding)
        cache = _shared_cache(kind)
        try:
            sibling = pickle.loads(pickle.dumps(cache))
            block = cnot_conjugated_rz(0, 1)
            other = cnot_conjugated_rz(0, 1, angle=1.1)
            # sibling publishes one content under the key; we buffer another
            sibling.put(other.unitary(), ResynthesisOutcome(Circuit(2).rzz(1.1, 0, 1), 0.0, 0.0))
            sibling.flush()
            cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
            # the sibling's content L1-misses, forcing a backend fetch that
            # lands in the same L1 bucket as our unflushed put
            hit_other, _ = cache.get(other.unitary())
            assert hit_other
            hit_own, outcome = cache.get(block.unitary())
            assert hit_own, "own unflushed put was lost to a backend fetch"
            assert outcome is not None
            assert circuit_distance(block, outcome.circuit) < EPS
        finally:
            cache.close()

    def test_server_rejects_unknown_ops(self):
        try:
            backend = parse_backend_spec("server:?maxsize=8").create()
        except SharedCacheUnavailable as error:  # pragma: no cover
            pytest.skip(f"server backend unavailable here: {error}")
        try:
            assert backend.ping()
            with pytest.raises(RuntimeError):
                backend._request(0, "no-such-op")
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


def _portfolio_config(num_workers: int = 2, backend: str = "processes") -> PortfolioConfig:
    return PortfolioConfig(
        search=GuoqConfig(
            epsilon_budget=1e-4,
            time_limit=1e9,
            max_iterations=80,
            seed=21,
            resynthesis_probability=0.3,
        ),
        num_workers=num_workers,
        exchange_interval=40,
        backend=backend,
    )


class TestPortfolioIntegration:
    @pytest.mark.parametrize("kind", BACKEND_FIXTURES)
    def test_processes_portfolio_reports_cross_worker_hits(self, kind):
        circuit = random_clifford_t(3, 30, seed=4)
        optimizer = PortfolioOptimizer(
            _clifford_t_transformations(),
            TotalGateCount(),
            _portfolio_config(num_workers=3),
            share_resynthesis_cache=kind,
        )
        result = optimizer.optimize(circuit)
        assert result.shared_cache_backend == "tcp"
        assert result.perf is not None
        assert result.perf.cache_hits > 0
        assert result.perf.cache_remote_hits > 0, (
            "workers in separate processes must reuse each other's synthesis results"
        )
        assert any("shared resynthesis cache backend" in note for note in result.perf.notes)
        assert result.best_cost <= result.initial_cost

    def test_server_is_torn_down_on_portfolio_exit(self):
        circuit = random_clifford_t(3, 20, seed=4)
        optimizer = PortfolioOptimizer(
            _clifford_t_transformations(),
            TotalGateCount(),
            _portfolio_config(num_workers=2),
            share_resynthesis_cache="server:",
        )
        server_processes_before = [
            process
            for process in multiprocessing.active_children()
            if process.name == "repro-tcp-cache-server"
        ]
        result = optimizer.optimize(circuit)
        assert result.shared_cache_backend == "tcp"
        leftover = [
            process
            for process in multiprocessing.active_children()
            if process.name == "repro-tcp-cache-server"
            and process not in server_processes_before
        ]
        assert not leftover, "the portfolio driver must shut its cache server down"

    def test_adopted_cache_stays_alive_after_portfolio_exit(self):
        cache = _shared_cache("server:")
        try:
            circuit = random_clifford_t(3, 20, seed=4)
            optimizer = PortfolioOptimizer(
                _clifford_t_transformations(),
                TotalGateCount(),
                _portfolio_config(num_workers=2),
                share_resynthesis_cache=cache,
            )
            optimizer.optimize(circuit)
            # caller-owned: the server must still answer after the run
            assert cache.backend.ping()
            assert len(cache) >= 0
        finally:
            cache.close()

    def test_fallback_to_local_when_shared_backend_unavailable(self, monkeypatch):
        import repro.parallel.portfolio as portfolio_module
        from repro.perf import BackendSpec

        create = BackendSpec.create

        def refuse(spec):
            if spec.kind != "local":
                raise SharedCacheUnavailable("forced by test")
            return create(spec)

        monkeypatch.setattr(BackendSpec, "create", refuse)
        circuit = random_clifford_t(3, 20, seed=4)
        optimizer = portfolio_module.PortfolioOptimizer(
            _clifford_t_transformations(),
            TotalGateCount(),
            _portfolio_config(num_workers=2, backend="serial"),
            share_resynthesis_cache="server:",
        )
        result = optimizer.optimize(circuit)
        assert result.shared_cache_backend == "local"
        assert any("fell back to 'local'" in note for note in result.perf.notes)


class TestDowngradeReporting:
    def test_pickled_local_shared_cache_records_downgrade(self):
        cache = ResynthesisCache(maxsize=8, shared=True)
        fork = pickle.loads(pickle.dumps(cache))
        assert cache.notes == []
        assert any("downgraded to a private" in note for note in fork.notes)

    def test_pickled_shared_backend_cache_does_not_downgrade(self):
        cache = _shared_cache("server:")
        try:
            fork = pickle.loads(pickle.dumps(cache))
            assert fork.notes == []
            assert fork.backend.kind == "tcp"
        finally:
            cache.close()

    def test_downgrade_note_reaches_portfolio_perf(self):
        """On the processes backend a local shared cache downgrades per worker
        and the merged report says so."""
        circuit = random_clifford_t(3, 20, seed=4)
        optimizer = PortfolioOptimizer(
            _clifford_t_transformations(),
            TotalGateCount(),
            _portfolio_config(num_workers=2),
            share_resynthesis_cache="local:",
        )
        result = optimizer.optimize(circuit)
        assert result.shared_cache_backend == "local"
        assert any("downgraded to a private" in note for note in result.perf.notes)


# --------------------------------------------------------------------------
# TCP backend: a client of one network cache server.
# --------------------------------------------------------------------------


@pytest.fixture
def tcp_server():
    """One live TCP cache server's address; terminated after the test."""
    from repro.distrib import start_tcp_cache_server

    process, address = start_tcp_cache_server(cache="local:?maxsize=64")
    try:
        yield address
    finally:
        process.terminate()
        process.join(timeout=10.0)


def _tcp_entry(angle: float = 0.5) -> "tuple[bytes, _Entry]":
    block = cnot_conjugated_rz(0, 1, angle)
    key = f"tcp-key-{angle}".encode()
    return key, _Entry(canonical=block.unitary(), outcome=None)


class TestTcpCacheBackend:
    def test_roundtrip_and_stats(self, tcp_server):
        from repro.perf import TcpCacheBackend

        backend = TcpCacheBackend(tcp_server)
        try:
            items = [_tcp_entry(angle / 10.0) for angle in range(20)]
            backend.put_many(items)
            found = backend.get_many([key for key, _ in items])
            assert set(found) == {key for key, _ in items}
            stats = backend.stats()
            assert stats["entries"] == 20
            assert stats["unreachable_servers"] == 0
            assert len(backend) == 20
        finally:
            backend.close()

    def test_unreachable_server_raises_unavailable(self):
        with pytest.raises(SharedCacheUnavailable):
            parse_backend_spec("tcp://127.0.0.1:1").create()

    def test_url_parsing(self):
        from repro.perf import parse_backend_spec

        assert parse_backend_spec("tcp://a:1").address == ("a", 1)
        assert parse_backend_spec("tcp://10.0.0.7:8799").address == ("10.0.0.7", 8799)
        for bad in ("tcp://a:1,b:2", "tcp://a:1,tcp://b:2", "tcp://", "tcp://noport"):
            with pytest.raises(ValueError, match=r"unrecognized backend spec.*expected local:"):
                parse_backend_spec(bad)

    def test_dead_server_degrades_to_miss_and_drop(self):
        from repro.distrib import start_tcp_cache_server
        from repro.perf import TcpCacheBackend

        process, address = start_tcp_cache_server(cache="local:?maxsize=64")
        backend = TcpCacheBackend(address)
        try:
            key, entry = _tcp_entry()
            backend.put_many([(key, entry)])
            assert key in backend.get_many([key])
            process.terminate()
            process.join(timeout=10.0)
            assert backend.get_many([key]) == {}
            backend.put_many([(key, entry)])  # dropped, not raised
            stats = backend.stats()
            assert stats["unreachable_servers"] == 1
            assert stats["dropped_requests"] >= 2
        finally:
            backend.close()

    def test_pickled_copy_redials_and_shares(self, tcp_server):
        from repro.perf import TcpCacheBackend

        backend = TcpCacheBackend(tcp_server)
        copy = pickle.loads(pickle.dumps(backend))
        try:
            key, entry = _tcp_entry()
            backend.put_many([(key, entry)])
            assert key in copy.get_many([key])
        finally:
            backend.close()
            copy.close()

    def test_close_is_idempotent_and_leaves_servers_up(self, tcp_server):
        from repro.perf import TcpCacheBackend

        backend = TcpCacheBackend(tcp_server)
        backend.close()
        backend.close()
        probe = TcpCacheBackend(tcp_server)
        try:
            assert probe.ping()
        finally:
            probe.close()

    def test_front_end_counts_cross_client_hits_as_remote(self, tcp_server):
        from repro.perf import TcpCacheBackend

        writer = ResynthesisCache(maxsize=32, shared=True, backend=TcpCacheBackend(tcp_server))
        reader = ResynthesisCache(maxsize=32, shared=True, backend=TcpCacheBackend(tcp_server))
        block = cnot_conjugated_rz(0, 1)
        try:
            writer.put(
                block.unitary(),
                ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0),
            )
            writer.flush()
            hit, outcome = reader.get(block.unitary(), epsilon=EPS)
            assert hit and outcome is not None
            assert reader.stats().remote_hits == 1
            assert reader.stats().backend == "tcp"
            assert writer.stats().remote_hits == 0
        finally:
            writer.close()
            reader.close()


class TestConnectionPoolLifecycle:
    """Satellite: idempotent close + per-process pool drain."""

    def test_server_backend_close_is_idempotent(self):
        try:
            backend = parse_backend_spec("server:?maxsize=8").create()
        except SharedCacheUnavailable as error:  # pragma: no cover
            pytest.skip(f"server backend unavailable here: {error}")
        assert backend.ping()
        process = backend._process
        backend.close()
        backend.close()  # second close must be a no-op, not an error
        assert not process.is_alive()

    def test_close_drains_pooled_connection(self):
        from repro.rpc import _CONNECTIONS, _pool_key

        try:
            backend = parse_backend_spec("server:?maxsize=8").create()
        except SharedCacheUnavailable as error:  # pragma: no cover
            pytest.skip(f"server backend unavailable here: {error}")
        assert backend.ping()
        pool_key = _pool_key(backend.address, backend.authkey)
        assert pool_key in _CONNECTIONS
        backend.close()
        assert pool_key not in _CONNECTIONS

    def test_drain_connection_pool_closes_everything(self, tcp_server):
        from repro.perf import TcpCacheBackend, drain_connection_pool
        from repro.rpc import _CONNECTIONS

        # Two backends on two different servers pool two connections.
        try:
            owned = parse_backend_spec("server:?maxsize=8").create()
        except SharedCacheUnavailable as error:  # pragma: no cover
            pytest.skip(f"server backend unavailable here: {error}")
        backend = TcpCacheBackend(tcp_server)
        try:
            assert backend.ping() and owned.ping()
            assert len(_CONNECTIONS) >= 2
            drained = drain_connection_pool()
            assert drained >= 2
            assert not _CONNECTIONS
            assert backend.ping()  # next request simply redials
        finally:
            backend.close()
            owned.close()

    def test_closed_handle_refuses_requests(self, tcp_server):
        from repro.perf import TcpCacheBackend

        backend = TcpCacheBackend(tcp_server)
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.stats()

    def test_server_restart_recovers_via_redial_without_marking_dead(self):
        from repro.distrib import start_tcp_cache_server
        from repro.perf import TcpCacheBackend

        process, address = start_tcp_cache_server(cache="local:?maxsize=64")
        backend = TcpCacheBackend(address)
        restarted = None
        try:
            key, entry = _tcp_entry()
            backend.put_many([(key, entry)])  # pooled connection now live
            process.terminate()
            process.join(timeout=10.0)
            # Same port, fresh (cold) server: the pooled socket is stale.
            restarted, _ = start_tcp_cache_server(port=address[1], cache="local:?maxsize=64")
            stats = backend.stats()  # the stale socket is redialed, not sent on
            assert stats["unreachable_servers"] == 0
            assert stats["entries"] == 0  # the restarted store is cold
        finally:
            backend.close()
            for proc in (process, restarted):
                if proc is not None:
                    proc.terminate()
                    proc.join(timeout=10.0)
