"""Differential harness: ``BatchResynthesizer`` is bit-identical to scalar.

The batched engine's whole contract (``docs/batching.md``) is that
``BatchResynthesizer.resynthesize_batch(blocks)`` returns exactly what the
scalar reference ``Resynthesizer.resynthesize_many(blocks)`` returns — same
replacement circuits, same distances and charged epsilons, same cache
counters and entries, same rng stream afterwards.  Every test here builds
two identically-seeded resynthesizers (with identically-configured caches),
runs one through each path, and compares everything observable.

Coverage matrix (the acceptance grid): both synthesis backends
(Clifford+T search and numerical templates), widths 1–3, batch sizes
{0, 1, 7, 64}, duplicates, guard-rejected blocks, synthesis failures with
and without negative caching, and batch permutations.  Strategies are the
shared ones from :mod:`strategies`, so the circuit distribution matches the
rewrite and synthesis property suites.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from strategies import block_batches, circuit_in_gate_set

from repro.circuits import Circuit
from repro.gatesets import IBM_EAGLE
from repro.perf import ResynthesisCache
from repro.synthesis import (
    BatchResynthesizer,
    CliffordTResynthesizer,
    NumericalResynthesizer,
)
from repro.synthesis.annealing import _unitary_key
from repro.utils.linalg import unitary_content_key

SEED = 13


def _fast_clifford(rng=SEED, **overrides):
    params = dict(
        epsilon=1e-6,
        bfs_depth=5,
        max_bfs_nodes=800,
        slots=8,
        anneal_iterations=30,
        anneal_restarts=1,
        max_qubits=3,
        rng=rng,
    )
    params.update(overrides)
    return CliffordTResynthesizer(**params)


def _fast_numerical(rng=SEED, **overrides):
    params = dict(
        epsilon=1e-6,
        max_layers=2,
        restarts=1,
        maxiter=40,
        max_qubits=3,
        time_budget=None,  # wall-clock cutoffs would break determinism
        rng=rng,
    )
    params.update(overrides)
    return NumericalResynthesizer(IBM_EAGLE, **params)


def _rng_state(resynthesizer):
    return resynthesizer._synthesizer.rng.bit_generator.state


def _stats(cache):
    """Cache counters with the per-object identity token masked out."""
    import dataclasses

    return dataclasses.replace(cache.stats(), token="")


def _assert_differential(make_resynthesizer, blocks, cached=True):
    """Run ``blocks`` through both paths and compare everything observable."""
    scalar = make_resynthesizer()
    backend = make_resynthesizer()
    if cached:
        scalar.attach_cache(ResynthesisCache())
        backend.attach_cache(ResynthesisCache())
    engine = BatchResynthesizer(backend)
    expected = scalar.resynthesize_many(blocks)
    got = engine.resynthesize_batch(blocks)
    assert got == expected
    assert _rng_state(backend) == _rng_state(scalar), (
        "the batched path must consume the rng stream exactly as the scalar loop"
    )
    if cached:
        assert _stats(backend.cache) == _stats(scalar.cache)
        # Same entries, not just same counters: replaying every lookup
        # against both caches must agree hit-for-hit, outcome-for-outcome.
        for block in blocks:
            unitary = block.unitary()
            scalar_hit = scalar.cache.get(unitary, epsilon=scalar.epsilon)
            batched_hit = backend.cache.get(unitary, epsilon=backend.epsilon)
            assert batched_hit == scalar_hit
    return expected, got


def _failing_block(angle: float = 0.3) -> Circuit:
    """A block outside the Clifford+T reachable set: synthesis returns None."""
    return Circuit(2).cx(0, 1).rz(angle, 1).cx(0, 1)


def _solvable_blocks() -> "list[Circuit]":
    """Blocks the BFS stage solves exactly (no rng consumed) — one per width."""
    return [
        Circuit(1).h(0).t(0),
        Circuit(1).s(0).s(0),
        Circuit(2).cx(0, 1).t(1),
        Circuit(2).h(0).cx(0, 1),
        Circuit(3).cx(0, 1).cx(1, 2),
    ]


class TestBatchEdges:
    def test_empty_batch(self):
        engine = BatchResynthesizer(_fast_clifford().attach_cache(ResynthesisCache()))
        assert engine.resynthesize_batch([]) == []
        assert engine.dispatches == 0

    def test_singleton_batch_is_the_scalar_call(self):
        _assert_differential(_fast_clifford, [Circuit(2).cx(0, 1).t(1)])

    def test_dispatch_counter_counts_batches_not_blocks(self):
        engine = BatchResynthesizer(_fast_clifford().attach_cache(ResynthesisCache()))
        engine.resynthesize_batch(_solvable_blocks())
        engine.resynthesize_batch(_solvable_blocks()[:1])
        assert engine.dispatches == 2


class TestCliffordTDifferential:
    def test_seven_blocks_mixed_widths(self):
        # The fixed size-7 point of the acceptance grid: widths 1-3, one
        # duplicate, one guard-rejected empty block, one synthesis failure.
        blocks = _solvable_blocks() + [Circuit(2)] + [_failing_block()]
        assert len(blocks) == 7
        expected, _ = _assert_differential(_fast_clifford, blocks)
        assert expected[5] is None  # guard-rejected (empty)
        assert expected[6] is None  # synthesis failure

    def test_sixty_four_blocks_with_heavy_duplication(self):
        # Size-64 point: 8 distinct contents x 8 repeats — the batch path's
        # dedup must not change what the scalar loop's cache already dedups.
        base = _solvable_blocks() + [Circuit(2), _failing_block(), _failing_block(0.7)]
        blocks = [base[i % len(base)].copy() for i in range(64)]
        _assert_differential(_fast_clifford, blocks)

    def test_uncached_batch_matches_uncached_scalar_loop(self):
        blocks = _solvable_blocks() + [_failing_block()]
        _assert_differential(_fast_clifford, blocks, cached=False)

    def test_guard_rejected_blocks_never_build_unitaries(self):
        # Width-4 blocks exceed max_qubits=3; the scalar path refuses before
        # touching the unitary and the uncached batch path must too (a
        # 4-qubit dense unitary built needlessly would be the regression).
        wide = Circuit(4).cx(0, 1).cx(2, 3)
        blocks = [wide, Circuit(1).t(0), Circuit(2)]
        expected, _ = _assert_differential(_fast_clifford, blocks, cached=False)
        assert expected[0] is None and expected[2] is None

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_batches(self, data):
        blocks = data.draw(block_batches(max_size=7, max_qubits=3))
        _assert_differential(_fast_clifford, blocks)

    def test_permuted_batch_is_the_permuted_result(self):
        # On BFS-solvable batches no rng is consumed, so a fresh engine fed
        # the permuted batch must return the permuted results and leave the
        # cache with identical counters.
        blocks = _solvable_blocks()
        order = [3, 0, 4, 1, 2]
        first = BatchResynthesizer(_fast_clifford().attach_cache(ResynthesisCache()))
        second = BatchResynthesizer(_fast_clifford().attach_cache(ResynthesisCache()))
        results = first.resynthesize_batch(blocks)
        permuted = second.resynthesize_batch([blocks[i] for i in order])
        assert permuted == [results[i] for i in order]
        assert _stats(first.cache) == _stats(second.cache)


class TestNumericalDifferential:
    def test_seven_blocks_including_failure_paths(self):
        blocks = [
            Circuit(1).h(0).t(0),
            Circuit(2).cx(0, 1).rz(0.3, 1).cx(0, 1),
            Circuit(2).cx(0, 1).cx(0, 1),
            Circuit(2),  # guard-rejected
            Circuit(1).h(0).t(0),  # duplicate of the first
            Circuit(4).cx(0, 1).cx(2, 3),  # too wide
            Circuit(2).h(0).cx(0, 1),
        ]
        assert len(blocks) == 7
        _assert_differential(_fast_numerical, blocks)

    def test_width_three_block(self):
        blocks = [Circuit(3).cx(0, 1).cx(1, 2), Circuit(3).cx(0, 1).cx(1, 2)]
        _assert_differential(_fast_numerical, blocks)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_random_batches(self, data):
        blocks = data.draw(
            st.lists(
                circuit_in_gate_set("ibm-eagle", min_qubits=1, max_qubits=2, max_length=6),
                min_size=0,
                max_size=4,
            )
        )
        _assert_differential(_fast_numerical, blocks)


class TestUnitaryKeyRegression:
    """The canonical-key fix: ``_unitary_key`` now delegates to linalg.

    The old implementation rounded to 6 digits and pivoted on the max-
    magnitude element: two genuinely different unitaries ~4e-7 apart (well
    above the 1e-7 exact-synthesis tolerance) shared a key, and a 1e-12
    perturbation could flip which of two tied elements was the pivot,
    splitting one unitary across two keys.
    """

    def test_delegates_to_the_shared_helper(self):
        unitary = Circuit(2).h(0).cx(0, 1).unitary()
        assert _unitary_key(unitary) == unitary_content_key(unitary)

    def test_nearby_but_distinct_unitaries_no_longer_alias(self):
        # distance(identity, diag(1, e^{4e-7 i})) ~ 2e-7 > the 1e-7 exact
        # tolerance — these must be distinct keys; 6-digit rounding aliased
        # them (both rounded to the identity).
        identity = np.eye(2, dtype=complex)
        nearby = np.diag([1.0, np.exp(4e-7j)])
        assert np.round(nearby, 6).tobytes() == np.round(identity, 6).tobytes()
        assert _unitary_key(identity) != _unitary_key(nearby)

    def test_global_phase_invariance(self):
        unitary = Circuit(2).h(0).cx(0, 1).t(1).unitary()
        assert _unitary_key(unitary) == _unitary_key(unitary * np.exp(0.3j))

    def test_pivot_is_stable_under_magnitude_ties(self):
        # Both off-diagonal magnitudes tie at 0.8; a 1e-12 nudge flips which
        # one argmax picks, and the old pivot rule then normalized the two
        # (numerically identical) unitaries to different keys.  The half-max
        # first-element rule pivots both on the stable 0.6 entry.
        rotation = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
        nudged = rotation.copy()
        nudged[1, 0] *= 1.0 + 1e-12
        assert _unitary_key(rotation) == _unitary_key(nudged)


class TestBatchSeamIsLiveInTransformations:
    def test_resynthesis_transformation_routes_through_the_batcher(self):
        from repro.core import ResynthesisTransformation

        transformation = ResynthesisTransformation(_fast_clifford(), max_block_qubits=2)
        assert isinstance(transformation.batcher, BatchResynthesizer)
        assert transformation.batcher.resynthesizer is transformation.resynthesizer
        rng = np.random.default_rng(3)
        circuit = Circuit(2)
        for _ in range(4):
            circuit.h(0).cx(0, 1).t(1)
        for _ in range(20):
            if transformation.apply(circuit, rng) is not None:
                break
        assert transformation.batcher.dispatches >= 1
