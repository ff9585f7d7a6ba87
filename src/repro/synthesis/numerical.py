"""Numerical unitary synthesis for continuously parameterized gate sets.

This plays the role BQSKit plays in the paper: given a small (1–3 qubit)
unitary, search bottom-up over circuit templates — alternating layers of a
two-qubit entangling gate and parameterized single-qubit rotations — and
instantiate the rotation angles by numerical optimization so the template
matches the target unitary up to the requested Hilbert–Schmidt error.

The search is deliberately *slow but powerful*: it ignores the structure of
the original circuit entirely and rediscovers one from scratch, which is what
lets it escape local minima that rewrite rules cannot (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from repro.circuits.circuit import Circuit
from repro.circuits.euler import u3_circuit
from repro.utils.linalg import COMPLEX_DTYPE, _hs_distance, apply_gate_to_matrix
from repro.utils.rng import ensure_rng
from repro.circuits.gates import CX_MAT, u3_matrix

_DEFAULT_PAIR_CYCLES = {
    2: [(0, 1)],
    3: [(0, 1), (1, 2), (0, 2)],
}


@dataclass
class TemplateSynthesisResult:
    """Outcome of a template-synthesis run."""

    circuit: Circuit
    distance: float
    cx_count: int


class TemplateSynthesizer:
    """Layered-template synthesis of 1–3 qubit unitaries over {u3, cx}.

    Parameters
    ----------
    epsilon:
        Target Hilbert–Schmidt distance.  Distances below the numerical
        floor (~3e-8) are reported as 0.
    max_layers:
        Maximum number of entangling layers to try for multi-qubit targets.
    restarts:
        Number of random restarts of the numerical optimizer per depth.
    maxiter:
        Iteration cap for each L-BFGS-B run.
    """

    def __init__(
        self,
        epsilon: float = 1e-6,
        max_layers: int = 6,
        restarts: int = 2,
        maxiter: int = 300,
        time_budget: "float | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        self.epsilon = epsilon
        self.max_layers = max_layers
        self.restarts = restarts
        self.maxiter = maxiter
        self.time_budget = time_budget
        self.rng = ensure_rng(rng)

    # -- public API ---------------------------------------------------------

    def synthesize(self, target: np.ndarray) -> "TemplateSynthesisResult | None":
        """Synthesize a circuit for ``target``; return None when unsuccessful."""
        import time as _time

        target = np.asarray(target, dtype=COMPLEX_DTYPE)
        dim = target.shape[0]
        num_qubits = int(round(np.log2(dim)))
        if 2**num_qubits != dim or target.shape != (dim, dim):
            raise ValueError("target must be a 2^n x 2^n matrix for n in 1..3")
        if num_qubits == 1:
            circuit = u3_circuit(target)
            return TemplateSynthesisResult(circuit, 0.0, 0)
        if num_qubits > 3:
            raise ValueError("template synthesis supports at most 3 qubits")

        deadline = None if self.time_budget is None else _time.monotonic() + self.time_budget
        pair_cycle = _DEFAULT_PAIR_CYCLES[num_qubits]
        best: "TemplateSynthesisResult | None" = None
        for layers in range(0, self.max_layers + 1):
            pairs = [pair_cycle[i % len(pair_cycle)] for i in range(layers)]
            result = self._optimize_template(target, num_qubits, pairs, deadline)
            if result is not None:
                if best is None or result.distance < best.distance:
                    best = result
                if result.distance <= max(self.epsilon, 5e-8):
                    return result
            if deadline is not None and _time.monotonic() > deadline:
                break
        return best if best is not None and best.distance <= self.epsilon else None

    def synthesize_batch(
        self, targets: "list[np.ndarray]"
    ) -> "list[TemplateSynthesisResult | None]":
        """Synthesize many targets, bit-identical to a scalar loop.

        Every multi-qubit template instantiation consumes the synthesizer's
        shared rng (restart seeds), so the batch runs strictly in item order
        — batching here amortizes validation, not rng-serial optimization.
        (The 1-qubit path is a closed-form Euler decomposition and could be
        reordered freely, but it stays in order for one uniform guarantee.)
        """
        coerced = []
        for target in targets:
            target = np.asarray(target, dtype=COMPLEX_DTYPE)
            dim = target.shape[0]
            num_qubits = int(round(np.log2(dim)))
            if 2**num_qubits != dim or target.shape != (dim, dim):
                raise ValueError("target must be a 2^n x 2^n matrix for n in 1..3")
            if num_qubits > 3:
                raise ValueError("template synthesis supports at most 3 qubits")
            coerced.append(target)
        return [self.synthesize(target) for target in coerced]

    # -- internals ----------------------------------------------------------

    def _optimize_template(
        self,
        target: np.ndarray,
        num_qubits: int,
        pairs: list[tuple[int, int]],
        deadline: "float | None" = None,
    ) -> "TemplateSynthesisResult | None":
        import time as _time

        num_params = 3 * num_qubits + 6 * len(pairs)
        best_value = np.inf
        best_params: "np.ndarray | None" = None
        # Converting the epsilon target on the HS *distance* to a target on
        # the optimizer objective 1 - |Tr|/N: distance^2 ~= 2 * objective.
        objective_target = max(1e-15, 0.5 * self.epsilon**2)
        for attempt in range(self.restarts):
            if attempt > 0 and deadline is not None and _time.monotonic() > deadline:
                break
            initial = self.rng.uniform(-np.pi, np.pi, size=num_params)
            outcome = minimize(
                self._objective,
                initial,
                args=(target, num_qubits, pairs),
                method="L-BFGS-B",
                options={"maxiter": self.maxiter, "ftol": 1e-18, "gtol": 1e-12},
            )
            if outcome.fun < best_value:
                best_value = float(outcome.fun)
                best_params = outcome.x
            if best_value <= objective_target:
                break
        if best_params is None:
            return None
        unitary = self._build_unitary(best_params, num_qubits, pairs)
        distance = _hs_distance(target, unitary)
        circuit = self._build_circuit(best_params, num_qubits, pairs)
        return TemplateSynthesisResult(circuit, distance, len(pairs))

    def _objective(
        self,
        params: np.ndarray,
        target: np.ndarray,
        num_qubits: int,
        pairs: list[tuple[int, int]],
    ) -> float:
        unitary = self._build_unitary(params, num_qubits, pairs)
        dim = target.shape[0]
        overlap = abs(np.trace(target.conj().T @ unitary)) / dim
        return 1.0 - overlap

    def _build_unitary(
        self, params: np.ndarray, num_qubits: int, pairs: list[tuple[int, int]]
    ) -> np.ndarray:
        dim = 2**num_qubits
        unitary = np.eye(dim, dtype=COMPLEX_DTYPE)
        cursor = 0
        for qubit in range(num_qubits):
            gate = u3_matrix(*params[cursor : cursor + 3])
            unitary = apply_gate_to_matrix(unitary, gate, [qubit], num_qubits)
            cursor += 3
        for a, b in pairs:
            unitary = apply_gate_to_matrix(unitary, CX_MAT, [a, b], num_qubits)
            gate_a = u3_matrix(*params[cursor : cursor + 3])
            gate_b = u3_matrix(*params[cursor + 3 : cursor + 6])
            unitary = apply_gate_to_matrix(unitary, gate_a, [a], num_qubits)
            unitary = apply_gate_to_matrix(unitary, gate_b, [b], num_qubits)
            cursor += 6
        return unitary

    def _build_circuit(
        self, params: np.ndarray, num_qubits: int, pairs: list[tuple[int, int]]
    ) -> Circuit:
        circuit = Circuit(num_qubits, name="synthesized")
        cursor = 0
        for qubit in range(num_qubits):
            self._append_u3(circuit, params[cursor : cursor + 3], qubit)
            cursor += 3
        for a, b in pairs:
            circuit.cx(a, b)
            self._append_u3(circuit, params[cursor : cursor + 3], a)
            self._append_u3(circuit, params[cursor + 3 : cursor + 6], b)
            cursor += 6
        return circuit

    @staticmethod
    def _append_u3(circuit: Circuit, angles: np.ndarray, qubit: int) -> None:
        theta, phi, lam = (float(a) for a in angles)
        native = u3_circuit(u3_matrix(theta, phi, lam))
        for inst in native.instructions:
            circuit.append(inst.remapped({0: qubit}))
