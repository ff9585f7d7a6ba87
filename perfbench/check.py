"""Independent output check for the benchmark.

A small dense simulator with its own gate matrices for the two vocabularies
the benchmark optimizes into (``ibm-eagle`` and Clifford+T).  It imports
nothing from the package under test except the circuits it is handed, so a
bug in the package's own gate tables or linear algebra cannot hide a wrong
optimized circuit.

Each output is checked twice:

* every gate is in the workload's gate set;
* the Hilbert-Schmidt distance ``sqrt(1 - |Tr(A^dagger B)|^2 / N^2)``
  between the input and output unitaries is at most the result's
  ``error_bound`` plus :data:`TOLERANCE`.

Run ``python3 perfbench/check.py`` for the self-test alone: it must reject a
wrong circuit and a circuit with a foreign gate, and accept an identity
rewrite.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: Slack on top of ``error_bound``.  Covers the formula's own floor at double
#: precision (about 3e-8) plus the near-exact resyntheses the optimizer
#: charges as 0 (each below 5e-8); a wrong circuit is off by more than 1e-2.
TOLERANCE = 1e-6

_S2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, cmath.exp(1j * math.pi / 4)]),
    "tdg": np.diag([1, cmath.exp(-1j * math.pi / 4)]),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    # control is the first listed qubit
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}

#: gate vocabulary of each gate set the benchmark targets
GATE_SETS = {
    "ibm-eagle": frozenset({"rz", "sx", "x", "cx", "id"}),
    "clifford+t": frozenset({"t", "tdg", "s", "sdg", "z", "h", "x", "cx", "id"}),
}


def gate_matrix(name: str, params: "tuple[float, ...]") -> np.ndarray:
    if name == "rz":
        (theta,) = params
        return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])
    if params:
        raise ValueError(f"gate {name!r} takes no parameters, got {params}")
    return _FIXED[name]


def simulate(num_qubits: int, gates) -> np.ndarray:
    """Dense unitary of ``gates``, an iterable of ``(name, qubits, params)``."""
    dim = 2**num_qubits
    tensor = np.eye(dim, dtype=complex).reshape((2,) * num_qubits + (dim,))
    for name, qubits, params in gates:
        k = len(qubits)
        gate = gate_matrix(name, params).reshape((2,) * (2 * k))
        tensor = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
        tensor = np.moveaxis(tensor, list(range(k)), list(qubits))
    return tensor.reshape(dim, dim)


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    dim = a.shape[0]
    overlap = abs(np.trace(a.conj().T @ b)) / dim
    return math.sqrt(max(0.0, 1.0 - min(1.0, overlap) ** 2))


def gates_of(circuit) -> list:
    return [(inst.gate, inst.qubits, inst.params) for inst in circuit.instructions]


def check_output(original, optimized, error_bound: float, gate_set: str) -> "str | None":
    """``None`` when ``optimized`` is a valid result for ``original``, else why not."""
    vocabulary = GATE_SETS[gate_set]
    foreign = sorted({inst.gate for inst in optimized.instructions} - vocabulary)
    if foreign:
        return f"gates outside {gate_set}: {foreign}"
    if optimized.num_qubits != original.num_qubits:
        return f"width changed {original.num_qubits} -> {optimized.num_qubits}"
    distance = hs_distance(
        simulate(original.num_qubits, gates_of(original)),
        simulate(optimized.num_qubits, gates_of(optimized)),
    )
    if distance > error_bound + TOLERANCE:
        return f"distance {distance:.3e} > error_bound {error_bound:.3e} + {TOLERANCE:g}"
    return None


class _Gates:
    """Minimal stand-in with the circuit attributes :func:`check_output` reads."""

    def __init__(self, num_qubits: int, gates: list) -> None:
        self.num_qubits = num_qubits
        self.instructions = [_Inst(*gate) for gate in gates]


class _Inst:
    def __init__(self, gate: str, qubits: tuple, params: tuple = ()) -> None:
        self.gate, self.qubits, self.params = gate, qubits, params


def self_test() -> "list[str]":
    """Problems found when checking known-good and known-bad circuits."""
    ct = [("h", (0,)), ("cx", (0, 1)), ("t", (1,)), ("cx", (1, 2)), ("tdg", (2,))]
    ct_identity = ct + [("s", (1,)), ("sdg", (1,)), ("h", (2,)), ("h", (2,))]
    eagle = [("rz", (0,), (0.3,)), ("cx", (0, 1)), ("sx", (1,))]
    eagle_identity = eagle + [("sx", (0,)), ("sx", (0,)), ("x", (0,))]
    eagle_wrong = eagle[:-1] + [("rz", (1,), (0.3,))]
    # (gate set, width, input, output, should pass, what a wrong verdict means)
    cases = [
        ("clifford+t", 3, ct, ct_identity, True, "rejected an identity rewrite"),
        ("clifford+t", 3, ct, ct[:-1] + [("t", (2,))], False, "accepted a wrong circuit"),
        ("clifford+t", 3, ct, ct + [("sx", (0,))], False, "accepted a foreign gate"),
        ("ibm-eagle", 2, eagle, eagle_identity, True, "rejected an ibm-eagle identity rewrite"),
        ("ibm-eagle", 2, eagle, eagle_wrong, False, "accepted a wrong ibm-eagle circuit"),
    ]
    problems = []
    for gate_set, width, before, after, should_pass, problem in cases:
        verdict = check_output(_Gates(width, before), _Gates(width, after), 0.0, gate_set)
        if (verdict is None) != should_pass:
            problems.append(problem)
    return problems


if __name__ == "__main__":
    found = self_test()
    print("check self-test:", "ok" if not found else "; ".join(found))
    raise SystemExit(1 if found else 0)
