"""Search-based unitary synthesis for the finite Clifford+T gate set.

This plays the role Synthetiq plays in the paper's Q4 experiments: given a
small unitary, search for an equivalent circuit over the discrete gate set
{T, T!, S, S!, H, X, Z, CX}.  Two strategies are combined:

* breadth-first enumeration of short gate sequences (exact and fast for the
  shallow identities that matter most in practice), and
* simulated annealing over a fixed-length slot template (Synthetiq-style),
  which occasionally finds deeper circuits but frequently fails — matching
  the paper's observation that synthesis over finite gate sets is much harder
  than over parameterized ones (Section 6, Q4).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from repro.circuits.circuit import Circuit, instruction
from repro.utils.linalg import (
    COMPLEX_DTYPE,
    _hs_distance,
    apply_gate_to_matrix,
    batched_hs_distances,
    unitary_content_key,
)
from repro.utils.rng import ensure_rng
from repro.circuits.gates import gate_spec

_ONE_QUBIT_GATES = ("h", "t", "tdg", "s", "sdg", "x", "z")
_EXACT_TOL = 1e-7


@dataclass(frozen=True)
class _Move:
    """One candidate gate placement: a gate name and the qubits it acts on."""

    gate: str
    qubits: tuple[int, ...]


def _all_moves(num_qubits: int) -> list[_Move]:
    moves = [
        _Move(gate, (qubit,))
        for gate in _ONE_QUBIT_GATES
        for qubit in range(num_qubits)
    ]
    if num_qubits >= 2:
        moves.extend(
            _Move("cx", (a, b)) for a, b in permutations(range(num_qubits), 2)
        )
    return moves


class CliffordTSynthesizer:
    """Exact synthesis over Clifford+T via BFS plus simulated annealing."""

    def __init__(
        self,
        bfs_depth: int = 6,
        max_bfs_nodes: int = 5000,
        slots: int = 12,
        anneal_iterations: int = 2000,
        anneal_restarts: int = 2,
        initial_temperature: float = 0.3,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        self.bfs_depth = bfs_depth
        self.max_bfs_nodes = max_bfs_nodes
        self.slots = slots
        self.anneal_iterations = anneal_iterations
        self.anneal_restarts = anneal_restarts
        self.initial_temperature = initial_temperature
        self.rng = ensure_rng(rng)

    def synthesize(self, target: np.ndarray) -> "Circuit | None":
        """Return a Clifford+T circuit equal to ``target`` up to phase, or None."""
        target = np.asarray(target, dtype=COMPLEX_DTYPE)
        dim = target.shape[0]
        num_qubits = int(round(np.log2(dim)))
        if 2**num_qubits != dim:
            raise ValueError("target must be a 2^n x 2^n unitary")
        moves = _all_moves(num_qubits)

        found = self._bfs(target, num_qubits, moves)
        if found is not None:
            return found
        return self._anneal(target, num_qubits, moves)

    def synthesize_batch(self, targets: "list[np.ndarray]") -> "list[Circuit | None]":
        """Synthesize many targets at once, bit-identical to a scalar loop.

        The BFS stage is shared: targets of the same width are stacked into
        one ``(B, 2^k, 2^k)`` array and every frontier expansion hit-tests
        all of them with one vectorized distance kernel (the frontier, the
        dedup memo, and the node budget are target-independent, so one shared
        enumeration serves the whole width group).  The annealing stage draws
        from the synthesizer's shared rng, so BFS-failed targets anneal one
        at a time in their original batch order — exactly the rng stream a
        scalar ``for target in targets: synthesize(target)`` loop consumes.
        """
        coerced, widths = self._coerce_batch(targets)
        results = self._bfs_batch_grouped(coerced, widths)
        for index, circuit in enumerate(results):
            if circuit is None:
                results[index] = self._anneal(
                    coerced[index], widths[index], _all_moves(widths[index])
                )
        return results

    def bfs_batch(self, targets: "list[np.ndarray]") -> "list[Circuit | None]":
        """The BFS stage of :meth:`synthesize_batch` alone — rng-free.

        The prepass hook the cached batch engine uses: it may run ahead of
        the engine's strict item-order phase precisely because this stage
        never draws from :attr:`rng`.  ``None`` slots are targets BFS could
        not solve within budget; they need the annealing stage.
        """
        coerced, widths = self._coerce_batch(targets)
        return self._bfs_batch_grouped(coerced, widths)

    @staticmethod
    def _coerce_batch(
        targets: "list[np.ndarray]",
    ) -> "tuple[list[np.ndarray], list[int]]":
        coerced: "list[np.ndarray]" = []
        widths: "list[int]" = []
        for target in targets:
            target = np.asarray(target, dtype=COMPLEX_DTYPE)
            dim = target.shape[0]
            num_qubits = int(round(np.log2(dim)))
            if 2**num_qubits != dim:
                raise ValueError("target must be a 2^n x 2^n unitary")
            coerced.append(target)
            widths.append(num_qubits)
        return coerced, widths

    def _bfs_batch_grouped(
        self, coerced: "list[np.ndarray]", widths: "list[int]"
    ) -> "list[Circuit | None]":
        results: "list[Circuit | None]" = [None] * len(coerced)
        groups: "dict[int, list[int]]" = {}
        for index, width in enumerate(widths):
            groups.setdefault(width, []).append(index)
        for num_qubits, indices in groups.items():
            moves = _all_moves(num_qubits)
            found = self._bfs_batch([coerced[i] for i in indices], num_qubits, moves)
            for index, circuit in zip(indices, found):
                results[index] = circuit
        return results

    # -- breadth-first search over short sequences --------------------------

    def _bfs(self, target: np.ndarray, num_qubits: int, moves: list[_Move]) -> "Circuit | None":
        dim = 2**num_qubits
        identity = np.eye(dim, dtype=COMPLEX_DTYPE)
        if _hs_distance(target, identity) < _EXACT_TOL:
            return Circuit(num_qubits)
        # The breadth-first frontier stores (unitary, move list) pairs,
        # deduplicated by a phase-normalised rounded key.  Depth and node
        # budgets keep individual synthesis calls bounded — width-3 searches
        # explore far fewer levels than width-1 searches, mirroring how much
        # harder finite-gate-set synthesis is on wider blocks.
        depth_budget = max(2, self.bfs_depth - 2 * (num_qubits - 1))
        frontier: list[tuple[np.ndarray, tuple[_Move, ...]]] = [(identity, ())]
        seen: set[bytes] = {_unitary_key(identity)}
        expanded = 0
        for _ in range(depth_budget):
            next_frontier: list[tuple[np.ndarray, tuple[_Move, ...]]] = []
            for unitary, sequence in frontier:
                expanded += 1
                if expanded > self.max_bfs_nodes:
                    return None
                for move in moves:
                    gate = gate_spec(move.gate).matrix()
                    candidate = apply_gate_to_matrix(unitary, gate, move.qubits, num_qubits)
                    if _hs_distance(target, candidate) < _EXACT_TOL:
                        return _moves_to_circuit(sequence + (move,), num_qubits)
                    key = _unitary_key(candidate)
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append((candidate, sequence + (move,)))
            frontier = next_frontier
        return None

    def _bfs_batch(
        self, targets: "list[np.ndarray]", num_qubits: int, moves: list[_Move]
    ) -> "list[Circuit | None]":
        """Shared-frontier BFS over a same-width target stack.

        Frontier growth, the ``seen`` memo, and the ``expanded`` budget do
        not depend on the target, so they are computed once for the whole
        stack; each candidate is hit-tested against all still-unsolved
        targets with one einsum.  Bit-identity with :meth:`_bfs` per target:
        the einsum screen at ``2 * _EXACT_TOL`` over-approximates the scalar
        hit set (an einsum distance at or above the screen provably implies a
        scalar distance above ``_EXACT_TOL``), and every screen survivor is
        confirmed with the exact scalar formula before it counts as a hit.
        """
        count = len(targets)
        results: "list[Circuit | None]" = [None] * count
        if count == 0:
            return results
        dim = 2**num_qubits
        identity = np.eye(dim, dtype=COMPLEX_DTYPE)
        stack = np.stack(targets)
        screen_tol = 2.0 * _EXACT_TOL

        identity_distances = batched_hs_distances(stack, identity)
        for index in range(count):
            if identity_distances[index] < screen_tol and (
                _hs_distance(targets[index], identity) < _EXACT_TOL
            ):
                results[index] = Circuit(num_qubits)
        active = [index for index in range(count) if results[index] is None]
        if not active:
            return results

        depth_budget = max(2, self.bfs_depth - 2 * (num_qubits - 1))
        frontier: list[tuple[np.ndarray, tuple[_Move, ...]]] = [(identity, ())]
        seen: set[bytes] = {_unitary_key(identity)}
        expanded = 0
        for _ in range(depth_budget):
            next_frontier: list[tuple[np.ndarray, tuple[_Move, ...]]] = []
            for unitary, sequence in frontier:
                expanded += 1
                if expanded > self.max_bfs_nodes:
                    # Budget exhausted: every still-active target fails its
                    # BFS at exactly this node, as each scalar run would.
                    return results
                for move in moves:
                    gate = gate_spec(move.gate).matrix()
                    candidate = apply_gate_to_matrix(unitary, gate, move.qubits, num_qubits)
                    distances = batched_hs_distances(stack[active], candidate)
                    if np.any(distances < screen_tol):
                        still_active = []
                        for position, index in enumerate(active):
                            if distances[position] < screen_tol and (
                                _hs_distance(targets[index], candidate) < _EXACT_TOL
                            ):
                                results[index] = _moves_to_circuit(
                                    sequence + (move,), num_qubits
                                )
                            else:
                                still_active.append(index)
                        active = still_active
                        if not active:
                            return results
                    # A candidate that solved one target still joins the
                    # frontier: the remaining targets' scalar runs would have
                    # kept enumerating through it.
                    key = _unitary_key(candidate)
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append((candidate, sequence + (move,)))
            frontier = next_frontier
        return results

    # -- simulated annealing over a slot template ----------------------------

    def _anneal(self, target: np.ndarray, num_qubits: int, moves: list[_Move]) -> "Circuit | None":
        best_circuit: "Circuit | None" = None
        for _ in range(self.anneal_restarts):
            candidate = self._anneal_once(target, num_qubits, moves)
            if candidate is None:
                continue
            if best_circuit is None or candidate.size() < best_circuit.size():
                best_circuit = candidate
        return best_circuit

    def _anneal_once(
        self, target: np.ndarray, num_qubits: int, moves: list[_Move]
    ) -> "Circuit | None":
        slots: list["_Move | None"] = [None] * self.slots
        cost = self._slot_cost(slots, target, num_qubits)
        temperature = self.initial_temperature
        cooling = 0.999
        for _ in range(self.anneal_iterations):
            position = int(self.rng.integers(0, self.slots))
            old = slots[position]
            if self.rng.random() < 0.2:
                slots[position] = None
            else:
                slots[position] = moves[int(self.rng.integers(0, len(moves)))]
            new_cost = self._slot_cost(slots, target, num_qubits)
            accept = new_cost <= cost or self.rng.random() < np.exp(
                -(new_cost - cost) / max(temperature, 1e-9)
            )
            if accept:
                cost = new_cost
            else:
                slots[position] = old
            temperature *= cooling
            if cost < _EXACT_TOL:
                break
        circuit = _moves_to_circuit(tuple(move for move in slots if move), num_qubits)
        if _hs_distance(target, circuit.unitary()) < _EXACT_TOL:
            return circuit
        return None

    def _slot_cost(self, slots: list["_Move | None"], target: np.ndarray, num_qubits: int) -> float:
        dim = 2**num_qubits
        unitary = np.eye(dim, dtype=COMPLEX_DTYPE)
        used = 0
        for move in slots:
            if move is None:
                continue
            used += 1
            gate = gate_spec(move.gate).matrix()
            unitary = apply_gate_to_matrix(unitary, gate, move.qubits, num_qubits)
        return _hs_distance(target, unitary) + 1e-4 * used


def _unitary_key(unitary: np.ndarray) -> bytes:
    """Hashable key identifying a unitary up to global phase.

    Delegates to :func:`repro.utils.linalg.unitary_content_key`, the same
    helper the perf cache's canonicalization builds on, so the BFS memo can
    never alias two unitaries the outer cache distinguishes.  (The previous
    local version rounded to 6 digits — coarse enough to merge unitaries
    ~5e-7 apart that the cache's 1e-9 content match keeps separate — and
    anchored the phase on ``argmax`` of the magnitudes, which is unstable
    when entries tie in magnitude, as they do for Hadamard-like unitaries.)
    """
    return unitary_content_key(unitary)


def _moves_to_circuit(sequence: tuple[_Move, ...], num_qubits: int) -> Circuit:
    circuit = Circuit(num_qubits, name="synthesized_clifford_t")
    for move in sequence:
        circuit.append(instruction(move.gate, move.qubits))
    return circuit
