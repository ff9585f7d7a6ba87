"""Tests for the resynthesis cache: canonical keys, LRU, sharing, soundness."""

import copy
import pickle

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.metrics import circuit_distance
from repro.core import (
    GuoqConfig,
    GuoqOptimizer,
    ResynthesisTransformation,
    TotalGateCount,
    rewrite_transformations,
)
from repro.gatesets import CLIFFORD_T
from repro.perf import ResynthesisCache, canonicalize_unitary, permute_unitary
from repro.perf.shared_cache import LocalBackend, _entries_match
from repro.rewrite import rules_for_gate_set
from repro.suite.generators import random_clifford_t
from repro.synthesis import CliffordTResynthesizer
from repro.synthesis.resynth import ResynthesisOutcome
from repro.utils.linalg import hilbert_schmidt_distance, phase_normalized

EPS = 1e-6


def cnot_conjugated_rz(control: int, target: int, angle: float = 0.5) -> Circuit:
    circuit = Circuit(2)
    circuit.cx(control, target).rz(angle, target).cx(control, target)
    return circuit


class TestCanonicalization:
    def test_permute_unitary_matches_circuit_remapping(self):
        circuit = Circuit(3).h(0).cx(0, 1).t(2).cx(1, 2).rz(0.3, 0).cx(2, 0)
        unitary = circuit.unitary()
        for perm in [(0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 2, 0)]:
            mapping = {perm[i]: i for i in range(3)}
            remapped = circuit.remapped(mapping, 3).unitary()
            assert np.allclose(remapped, permute_unitary(unitary, perm)), perm

    def test_key_is_phase_invariant(self):
        unitary = Circuit(3).h(0).cx(0, 1).t(2).cx(1, 2).unitary()
        key, _, _ = canonicalize_unitary(unitary)
        for theta in (0.7, -2.4, np.pi):
            shifted_key, _, _ = canonicalize_unitary(np.exp(1j * theta) * unitary)
            assert shifted_key == key, theta

    def test_key_is_permutation_invariant(self):
        unitary = Circuit(3).h(0).cx(0, 1).t(2).cx(1, 2).unitary()
        key, _, _ = canonicalize_unitary(unitary)
        for perm in [(1, 0, 2), (2, 0, 1), (1, 2, 0)]:
            permuted_key, _, _ = canonicalize_unitary(permute_unitary(unitary, perm))
            assert permuted_key == key, perm

    def test_phase_normalization_is_stable_under_magnitude_ties(self):
        # Hadamard-heavy unitaries have many same-magnitude entries; the
        # pivot must not jump between them when a global phase is applied.
        unitary = Circuit(2).h(0).h(1).cx(0, 1).unitary()
        base = phase_normalized(unitary)
        shifted = phase_normalized(np.exp(1j * 1.3) * unitary)
        assert np.allclose(base, shifted, atol=1e-12)

    def test_distinct_contents_get_distinct_keys(self):
        first, _, _ = canonicalize_unitary(Circuit(2).cx(0, 1).unitary())
        second, _, _ = canonicalize_unitary(Circuit(2).cz(0, 1).unitary())
        assert first != second


class TestCacheCore:
    def test_hit_returns_equivalent_circuit(self):
        block = cnot_conjugated_rz(0, 1)
        cache = ResynthesisCache(maxsize=8)
        cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
        hit, outcome = cache.get(block.unitary(), epsilon=EPS)
        assert hit
        assert circuit_distance(block, outcome.circuit) < EPS

    def test_permuted_lookup_remaps_the_cached_circuit(self):
        block = cnot_conjugated_rz(0, 1)
        cache = ResynthesisCache(maxsize=8)
        cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
        swapped = cnot_conjugated_rz(1, 0)
        hit, outcome = cache.get(swapped.unitary(), epsilon=EPS)
        assert hit
        assert (
            hilbert_schmidt_distance(swapped.unitary(), outcome.circuit.unitary()) < EPS
        )

    def test_phase_shifted_lookup_hits(self):
        block = cnot_conjugated_rz(0, 1)
        cache = ResynthesisCache(maxsize=8)
        cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
        hit, _ = cache.get(np.exp(1j * 0.9) * block.unitary(), epsilon=EPS)
        assert hit
        assert cache.stats().hit_rate == 1.0

    def test_negative_outcomes_are_memoized(self):
        cache = ResynthesisCache(maxsize=8)
        unitary = Circuit(1).h(0).unitary()
        cache.put(unitary, None)
        hit, outcome = cache.get(unitary)
        assert hit and outcome is None
        assert cache.stats().negative_entries == 1

    def test_key_collisions_are_disambiguated_by_exact_content(self):
        """Entries forced into one hash bucket never cross-contaminate."""
        cache = ResynthesisCache(maxsize=8)
        # Force every unitary into the same bucket: keys collide, so only
        # the exact-content scan can tell the entries apart.
        original = canonicalize_unitary

        def colliding(unitary):
            _, perm, canonical = original(unitary)
            return b"colliding-key", perm, canonical

        import repro.perf.cache as cache_module

        cache_module_canonical = cache_module.canonicalize_unitary
        cache_module.canonicalize_unitary = colliding
        try:
            cx = Circuit(2).cx(0, 1)
            cz = Circuit(2).cz(0, 1)
            cache.put(cx.unitary(), ResynthesisOutcome(cx, 0.0, 0.0))
            cache.put(cz.unitary(), ResynthesisOutcome(cz, 0.0, 0.0))
            assert len(cache) == 2  # same bucket, two entries
            hit_cx, out_cx = cache.get(cx.unitary())
            hit_cz, out_cz = cache.get(cz.unitary())
            assert hit_cx and circuit_distance(cx, out_cx.circuit) < EPS
            assert hit_cz and circuit_distance(cz, out_cz.circuit) < EPS
        finally:
            cache_module.canonicalize_unitary = cache_module_canonical

    def test_verify_hits_rejects_poisoned_entries(self):
        """A corrupted entry is refused instead of returned (soundness)."""
        block = cnot_conjugated_rz(0, 1)
        cache = ResynthesisCache(maxsize=8)
        wrong = Circuit(2).cx(0, 1)  # not equivalent to the block
        cache.put(block.unitary(), ResynthesisOutcome(wrong, 0.0, 0.0))
        hit, _ = cache.get(block.unitary(), epsilon=EPS)
        assert not hit

    def test_lru_eviction(self):
        cache = ResynthesisCache(maxsize=2)
        h = Circuit(1).h(0).unitary()
        t = Circuit(1).t(0).unitary()
        x = Circuit(1).x(0).unitary()
        cache.put(h, None)
        cache.put(t, None)
        hit, _ = cache.get(h)  # refresh h: t becomes the LRU entry
        assert hit
        cache.put(x, None)
        assert h in cache and x in cache and t not in cache
        stats = cache.stats()
        assert stats.evictions == 1 and stats.entries == 2

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            ResynthesisCache(maxsize=0)


class TestCacheLifecycle:
    def test_pickle_round_trip_preserves_entries_and_stats(self):
        cache = ResynthesisCache(maxsize=8)
        block = cnot_conjugated_rz(0, 1)
        cache.put(block.unitary(), ResynthesisOutcome(Circuit(2).rzz(0.5, 0, 1), 0.0, 0.0))
        cache.get(block.unitary(), epsilon=EPS)
        restored = pickle.loads(pickle.dumps(cache))
        assert restored.stats().hits == cache.stats().hits
        hit, _ = restored.get(block.unitary(), epsilon=EPS)
        assert hit

    def test_pickle_forks_the_cache_identity(self):
        """Unpickled copies evolve independently, so they get a new token:
        per-worker copies of a shared cache (processes backend) must not be
        deduplicated against each other in merged perf reports."""
        cache = ResynthesisCache(maxsize=8, shared=True)
        first = pickle.loads(pickle.dumps(cache))
        second = pickle.loads(pickle.dumps(cache))
        assert first.token != cache.token
        assert first.token != second.token

    def test_shared_cache_deepcopies_to_itself(self):
        shared = ResynthesisCache(shared=True)
        assert copy.deepcopy(shared) is shared

    def test_private_cache_deepcopies_cold(self):
        cache = ResynthesisCache(maxsize=8)
        cache.put(Circuit(1).h(0).unitary(), None)
        clone = copy.deepcopy(cache)
        assert clone is not cache
        assert len(clone) == 0
        assert clone.maxsize == cache.maxsize
        assert clone.token != cache.token


def _clifford_t_transformations(cache):
    resynthesizer = CliffordTResynthesizer(
        epsilon=EPS,
        max_qubits=2,
        bfs_depth=3,
        max_bfs_nodes=600,
        anneal_iterations=150,
        anneal_restarts=1,
        rng=5,
    )
    if cache is not None:
        resynthesizer.attach_cache(cache)
    transformations = rewrite_transformations(rules_for_gate_set(CLIFFORD_T))
    transformations.append(
        ResynthesisTransformation(resynthesizer, max_block_qubits=2, max_block_gates=5)
    )
    return transformations


class TestCrossWorkerReuse:
    def _portfolio(self):
        from repro.parallel import PortfolioConfig, PortfolioOptimizer

        cache = ResynthesisCache(maxsize=128, shared=True)
        config = PortfolioConfig(
            search=GuoqConfig(
                epsilon_budget=1e-4,
                time_limit=1e9,
                max_iterations=120,
                seed=21,
                resynthesis_probability=0.25,
            ),
            num_workers=2,
            exchange_interval=60,
            backend="serial",
        )
        optimizer = PortfolioOptimizer(
            _clifford_t_transformations(cache), TotalGateCount(), config
        )
        return optimizer, cache

    def test_shared_cache_reuse_is_deterministic(self):
        """Two identical shared-cache portfolio runs merge identically."""
        circuit = random_clifford_t(3, 30, seed=4)
        first_opt, first_cache = self._portfolio()
        first = first_opt.optimize(circuit)
        second_opt, second_cache = self._portfolio()
        second = second_opt.optimize(circuit)

        assert first.best_cost == second.best_cost
        assert first.best_circuit == second.best_circuit
        assert first.incumbent_trace == second.incumbent_trace
        assert first_cache.stats().lookups == second_cache.stats().lookups

    def test_shared_cache_is_reused_across_workers(self):
        circuit = random_clifford_t(3, 30, seed=4)
        optimizer, cache = self._portfolio()
        result = optimizer.optimize(circuit)
        stats = cache.stats()
        # Both workers fed the same cache object; the merged report must see
        # exactly one cache (dedup by token), with its lookups counted once.
        assert result.perf is not None
        assert len(result.perf.caches) == 1
        assert result.perf.caches[0].token == cache.token
        assert stats.lookups > 0


class _CountingSharedBackend(LocalBackend):
    """An in-process store that records every read and poses as a shared one.

    ``kind="tcp"`` sends the front end down its shared-store paths (L1 read
    cache, write buffer, step-boundary flush) without a server process.
    """

    kind = "tcp"

    def __init__(self) -> None:
        super().__init__(maxsize=128)
        self.reads: "list[list[bytes]]" = []

    def get_many(self, keys):
        self.reads.append(list(keys))
        return super().get_many(keys)


class TestEngineIntegration:
    def test_cached_engine_run_reports_hits_and_stays_valid(self):
        circuit = random_clifford_t(3, 30, seed=4)
        cache = ResynthesisCache(maxsize=128)
        config = GuoqConfig(
            epsilon_budget=1e-4,
            time_limit=1e9,
            max_iterations=150,
            seed=3,
            resynthesis_probability=0.3,
        )
        result = GuoqOptimizer(
            _clifford_t_transformations(cache), TotalGateCount(), config
        ).optimize(circuit)
        assert result.best_cost <= result.initial_cost
        assert circuit_distance(circuit, result.best_circuit) < 1e-3
        stats = cache.stats()
        assert stats.lookups > 0
        assert result.perf is not None
        assert result.perf.cache_hits == stats.hits

    def test_step_reads_the_backend_only_for_lookups_that_missed_l1(self):
        """A step's backend reads are its own L1 misses; its boundary reads nothing."""
        backend = _CountingSharedBackend()
        cache = ResynthesisCache(maxsize=128, shared=True, backend=backend)
        lookups = []  # (key, L1 content hit before the lookup, reads it issued)
        original = cache._lookup

        def recording_lookup(key, canonical):
            l1_hit = any(
                _entries_match(entry.canonical, canonical)
                for entry in cache._l1.get(key, ())
            )
            before = len(backend.reads)
            found = original(key, canonical)
            lookups.append((key, l1_hit, backend.reads[before:]))
            return found

        cache._lookup = recording_lookup
        config = GuoqConfig(
            epsilon_budget=1e-3,
            time_limit=1e9,
            max_iterations=40,
            seed=3,
            resynthesis_probability=1.0,
        )
        optimizer = GuoqOptimizer(_clifford_t_transformations(cache), TotalGateCount(), config)
        run = optimizer.start(random_clifford_t(3, 30, seed=4))
        run.step(40)
        assert any(l1_hit for _, l1_hit, _ in lookups)
        assert any(not l1_hit for _, l1_hit, _ in lookups)
        for key, l1_hit, reads in lookups:
            assert reads == ([] if l1_hit else [[key]])
        assert len(backend.reads) == sum(not l1_hit for _, l1_hit, _ in lookups)

