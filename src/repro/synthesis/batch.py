"""Batched resynthesis: many candidate blocks through one vectorized pass.

:class:`BatchResynthesizer` is the batch seam over a scalar
:class:`~repro.synthesis.resynth.Resynthesizer`: it accepts a list of
candidate blocks, stacks their unitaries per qubit width, and pushes the
deterministic screening work (Hilbert–Schmidt distance checks against a
shared BFS frontier) through vectorized numpy — one einsum over the stacked
``(N, 2^k, 2^k)`` axis instead of ``N`` Python-loop trace products.  The
scalar path (:meth:`Resynthesizer.resynthesize_many`, a plain ordered loop
of ``resynthesize_cached``) stays as the reference implementation.

The engine's contract is **bit-identity** with that reference: same
replacement circuits, same ``distance`` and ``charged_epsilon`` values,
same cache entries and counters, same rng stream.  The load-bearing rules
(``docs/batching.md`` spells out the reasoning):

* Vectorized distance checks only *screen*: the einsum sum order can differ
  from the scalar trace in the last ulp, so candidates are screened at twice
  the exact-match tolerance and every screen survivor is confirmed with the
  scalar formula before it counts.
* The prepass (shared-frontier BFS) is rng-free and runs only over *first
  instances* of content keys that are certain cache misses; everything
  else — duplicates, guard-rejected blocks, verify-failure re-misses —
  takes the full scalar path at its position in the strict item-order
  phase, so the shared annealing rng stream is consumed exactly as the
  scalar loop would.
* Cache ``get``/``put`` happen strictly in item order, so duplicate blocks
  and negative (failure) entries behave exactly as in the scalar loop.

This module must not import :mod:`repro.perf` at module level — the perf
cache imports ``repro.synthesis`` (for :class:`ResynthesisOutcome`), so the
store-side helpers import perf internals lazily inside functions.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.synthesis.resynth import (
    CliffordTResynthesizer,
    NumericalResynthesizer,
    Resynthesizer,
    ResynthesisOutcome,
)
from repro.utils.linalg import COMPLEX_DTYPE

class BatchResynthesizer:
    """Vectorized batch front end over one scalar resynthesizer.

    Parameters
    ----------
    resynthesizer:
        The scalar backend (with or without an attached cache).  The batch
        engine never bypasses it: everything non-deterministic or
        cache-visible runs through the scalar code paths in item order.
    """

    def __init__(self, resynthesizer: Resynthesizer) -> None:
        self.resynthesizer = resynthesizer
        #: batches this engine processed (the seam's liveness signal)
        self.dispatches = 0

    @property
    def cache(self):
        """The attached cache, if any (mirrors the scalar backend)."""
        return self.resynthesizer.cache

    def resynthesize_batch(
        self, blocks: "list[Circuit]"
    ) -> "list[ResynthesisOutcome | None]":
        """Resynthesize ``blocks``, bit-identical to ``resynthesize_many``.

        Empty batches return empty; a singleton batch *is* the scalar call
        (no stacking overhead on the default one-block-per-step hot path).
        """
        blocks = list(blocks)
        if not blocks:
            return []
        self.dispatches += 1
        resynth = self.resynthesizer
        if len(blocks) == 1:
            return [resynth.resynthesize_cached(blocks[0])]
        if resynth.cache is None:
            return self._batch_uncached(blocks)
        return self._batch_cached(blocks)

    # -- internals -----------------------------------------------------------

    def _batch_uncached(self, blocks: "list[Circuit]") -> "list[ResynthesisOutcome | None]":
        """No cache: rng-free prepass over accepted blocks, then finish in order."""
        resynth = self.resynthesizer
        # Guard-rejected blocks never have their unitary built in the scalar
        # path either; None marks them for the direct refusal below.
        unitaries = [
            None if resynth.rejects(block) else block.unitary() for block in blocks
        ]
        accepted = [index for index, unitary in enumerate(unitaries) if unitary is not None]
        candidates = self._prepass(accepted, unitaries)
        results: "list[ResynthesisOutcome | None]" = []
        for index, block in enumerate(blocks):
            if unitaries[index] is None:
                results.append(resynth.resynthesize(block))
                continue
            candidate = candidates.get(index)
            if candidate is not None:
                results.append(resynth.finish_candidate(block, unitaries[index], candidate))
            else:
                results.append(resynth.resynthesize(block, unitary=unitaries[index]))
        return results

    def _batch_cached(self, blocks: "list[Circuit]") -> "list[ResynthesisOutcome | None]":
        """Cached: prefetch, silent-peek the miss set, prepass, ordered get/put."""
        resynth = self.resynthesizer
        cache = resynth.cache
        # Phase A — canonicalize once per block (the scalar path pays this
        # per call too; here the triple is reused by peek, get, and put).
        unitaries = [block.unitary() for block in blocks]
        keys = [cache.canonical_key(unitary) for unitary in unitaries]
        # Phase B — one batched fetch of every bucket the batch touches
        # (shared backends: one IPC round trip instead of one per miss),
        # then a counter-neutral peek to find the certain-miss first
        # instances worth presynthesizing.
        cache.prefetch_keys([key_bytes for key_bytes, _, _ in keys])
        prepass_set: "list[int]" = []
        first_instance: "set[bytes]" = set()
        for index, block in enumerate(blocks):
            key_bytes, _, canonical = keys[index]
            if key_bytes in first_instance:
                # A duplicate's outcome must come from the first instance's
                # put (or its own scalar run when failures are not cached) —
                # presynthesizing it would consume work the scalar loop
                # never performs.
                continue
            first_instance.add(key_bytes)
            if resynth.rejects(block):
                continue  # still cached (get/put below), never synthesized
            if not cache.peek_key(key_bytes, canonical):
                prepass_set.append(index)
        # A wrong "certain miss" (a sibling worker inserts between peek and
        # get) only wastes prepass work — the ordered get still hits and the
        # unused rng-free candidate is dropped.
        candidates = self._prepass(prepass_set, unitaries)
        # Phase C — strict item order: exactly the scalar loop, with the
        # prepass result standing in for the deterministic BFS stage.
        results: "list[ResynthesisOutcome | None]" = []
        for index, block in enumerate(blocks):
            hit, outcome = cache.get(unitaries[index], epsilon=resynth.epsilon, key=keys[index])
            if hit:
                results.append(outcome)
                continue
            candidate = candidates.get(index)
            if candidate is not None:
                outcome = resynth.finish_candidate(block, unitaries[index], candidate)
            else:
                outcome = resynth.resynthesize(block, unitary=unitaries[index])
            cache.put(unitaries[index], outcome, key=keys[index])
            results.append(outcome)
        return results

    def _prepass(self, indices: "list[int]", unitaries: list) -> "dict[int, Circuit]":
        """Run the backend's rng-free batched prepass over ``indices``."""
        if not indices:
            return {}
        found = self.resynthesizer.presynthesize_batch([unitaries[i] for i in indices])
        return {
            index: candidate
            for index, candidate in zip(indices, found)
            if candidate is not None
        }

# --------------------------------------------------------------------------
# Resynthesizer specs: the picklable "how to synthesize" record a batch job
# ships to a cache server (which has the code but not the object).
# --------------------------------------------------------------------------


def resynthesizer_spec(resynthesizer: Resynthesizer) -> "dict | None":
    """Describe a resynthesizer as a plain dict a server can rebuild from.

    Only the built-in backends have specs; exotic resynthesizers return
    ``None``, which disables server-side batch synthesis for them (the
    local paths are unaffected).
    """
    if isinstance(resynthesizer, CliffordTResynthesizer):
        synthesizer = resynthesizer._synthesizer
        return {
            "kind": "clifford_t",
            "epsilon": resynthesizer.epsilon,
            "max_qubits": resynthesizer.max_qubits,
            "bfs_depth": synthesizer.bfs_depth,
            "max_bfs_nodes": synthesizer.max_bfs_nodes,
            "slots": synthesizer.slots,
            "anneal_iterations": synthesizer.anneal_iterations,
            "anneal_restarts": synthesizer.anneal_restarts,
        }
    if isinstance(resynthesizer, NumericalResynthesizer):
        synthesizer = resynthesizer._synthesizer
        return {
            "kind": "numerical",
            "gate_set": resynthesizer.gate_set.name,
            "epsilon": resynthesizer.epsilon,
            "max_qubits": resynthesizer.max_qubits,
            "max_layers": synthesizer.max_layers,
            "restarts": synthesizer.restarts,
            "maxiter": synthesizer.maxiter,
            "time_budget": synthesizer.time_budget,
        }
    return None


def resynthesizer_from_spec(spec: dict) -> Resynthesizer:
    """Rebuild a resynthesizer from a :func:`resynthesizer_spec` dict."""
    kind = spec.get("kind")
    if kind == "clifford_t":
        return CliffordTResynthesizer(
            epsilon=spec.get("epsilon", 1e-6),
            bfs_depth=spec.get("bfs_depth", 6),
            max_bfs_nodes=spec.get("max_bfs_nodes", 5000),
            slots=spec.get("slots", 12),
            anneal_iterations=spec.get("anneal_iterations", 2000),
            anneal_restarts=spec.get("anneal_restarts", 2),
            max_qubits=spec.get("max_qubits", 3),
        )
    if kind == "numerical":
        from repro.gatesets.base import get_gate_set

        return NumericalResynthesizer(
            gate_set=get_gate_set(spec["gate_set"]),
            epsilon=spec.get("epsilon", 1e-6),
            max_layers=spec.get("max_layers", 6),
            restarts=spec.get("restarts", 2),
            maxiter=spec.get("maxiter", 150),
            max_qubits=spec.get("max_qubits", 3),
            time_budget=spec.get("time_budget"),
        )
    raise ValueError(f"unknown resynthesizer spec kind {kind!r}")


class _UnitaryBlock:
    """Minimal block stand-in for a bare canonical unitary.

    Server-side batch jobs receive unitaries, not circuits; the scalar
    resynthesis paths only need ``num_qubits``, ``size()`` and ``unitary()``
    from a block, so this proxy is enough to reuse them unchanged.
    """

    def __init__(self, unitary: np.ndarray) -> None:
        self._unitary = np.asarray(unitary, dtype=COMPLEX_DTYPE)
        self.num_qubits = int(round(np.log2(self._unitary.shape[0])))

    def size(self) -> int:
        return 1

    def unitary(self) -> np.ndarray:
        return self._unitary


def synthesize_missing_into_store(store, spec: dict, items: list) -> dict:
    """Server-side batch synthesis job: fill ``store`` with missing outcomes.

    ``items`` is a list of ``(key_bytes, canonical_unitary)`` pairs — a
    ``get_many`` miss-batch forwarded by a worker or the serve scheduler.
    Keys whose content is already stored are skipped; the rest are
    synthesized in one batched pass (rng-free shared BFS first, scalar
    fallback per item) and stored in the canonical frame, failures included
    (negative entries are the most expensive thing to rediscover).  Returns
    a counters dict: ``received``/``present``/``synthesized``/``failures``.
    """
    from repro.perf.shared_cache import _Entry

    resynthesizer = resynthesizer_from_spec(spec)
    present = 0
    pending: "list[tuple[bytes, np.ndarray]]" = []
    for key_bytes, canonical in items:
        canonical = np.asarray(canonical, dtype=COMPLEX_DTYPE)
        if store.peek(key_bytes, canonical):
            present += 1
            continue
        pending.append((key_bytes, canonical))
    synthesized = 0
    failures = 0
    unitaries = [canonical for _, canonical in pending]
    candidates = resynthesizer.presynthesize_batch(unitaries) if pending else []
    entries: "list[tuple[bytes, _Entry]]" = []
    for (key_bytes, canonical), candidate in zip(pending, candidates):
        block = _UnitaryBlock(canonical)
        if candidate is not None:
            outcome = resynthesizer.finish_candidate(block, canonical, candidate)
        else:
            outcome = resynthesizer.resynthesize(block, unitary=canonical)
        if outcome is None:
            failures += 1
        else:
            synthesized += 1
        # The query frame IS the canonical frame here, so the outcome can be
        # stored as-is — exactly what ResynthesisCache.put would derive.
        entries.append((key_bytes, _Entry(canonical=canonical, outcome=outcome)))
    if entries:
        store.put_many(entries)
    return {
        "received": len(items),
        "present": present,
        "synthesized": synthesized,
        "failures": failures,
    }


__all__ = [
    "BatchResynthesizer",
    "resynthesizer_from_spec",
    "resynthesizer_spec",
    "synthesize_missing_into_store",
]
