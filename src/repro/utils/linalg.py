"""Linear-algebra helpers shared by the circuit IR and synthesis code.

Qubit-ordering convention
-------------------------
Qubit 0 is the *most significant* bit of a computational-basis index.  For a
2-qubit system the basis order is ``|q0 q1> = |00>, |01>, |10>, |11>``.  This
matches the paper's Example 3.1 where a ``T`` gate on the second qubit is
written ``I (tensor) U_T``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

COMPLEX_DTYPE = np.complex128

_ATOL = 1e-9


def kron_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    if not matrices:
        return np.eye(1, dtype=COMPLEX_DTYPE)
    result = np.asarray(matrices[0], dtype=COMPLEX_DTYPE)
    for matrix in matrices[1:]:
        result = np.kron(result, np.asarray(matrix, dtype=COMPLEX_DTYPE))
    return result


def is_unitary(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """Return True when ``matrix`` is (numerically) unitary."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def embed_gate(gate_matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed a k-qubit gate acting on ``qubits`` into a ``num_qubits`` unitary.

    The returned matrix is dense of size ``2**num_qubits``; only use this for
    small systems (tests and reference paths).  The fast path is
    :func:`apply_gate_to_matrix`.
    """
    full = np.eye(2**num_qubits, dtype=COMPLEX_DTYPE)
    return apply_gate_to_matrix(full, gate_matrix, qubits, num_qubits)


def apply_gate_to_matrix(
    matrix: np.ndarray,
    gate_matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Left-multiply ``matrix`` by a gate acting on the given qubits.

    ``matrix`` has shape ``(2**num_qubits, 2**num_qubits)`` and represents the
    circuit unitary accumulated so far; applying gate ``G`` on ``qubits``
    returns ``G_full @ matrix`` without materialising ``G_full``.
    """
    qubits = list(qubits)
    k = len(qubits)
    dim = 2**num_qubits
    matrix = np.asarray(matrix, dtype=COMPLEX_DTYPE)
    columns = matrix.size // dim
    gate = np.asarray(gate_matrix, dtype=COMPLEX_DTYPE).reshape((2,) * (2 * k))

    tensor = matrix.reshape((2,) * num_qubits + (columns,))
    # Contract the gate's input indices with the output (row) axes of the
    # accumulated unitary that correspond to the targeted qubits.
    tensor = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), qubits))
    # tensordot puts the gate's output axes first; move them back in place.
    tensor = np.moveaxis(tensor, list(range(k)), qubits)
    return tensor.reshape(dim, columns)


def phase_normalized(unitary: np.ndarray) -> np.ndarray:
    """Divide out the global phase, fixed by a magnitude-stable pivot entry.

    The pivot is the *first* entry (row-major) whose magnitude reaches half
    the maximum.  Unlike an argmax pivot this choice is stable under global
    phase multiplication even when many entries tie in magnitude (ubiquitous
    for Hadamard-like unitaries), because magnitudes only move by an ulp
    while the half-max threshold sits far from both sides of the tie.
    """
    flat = np.asarray(unitary).ravel()
    magnitudes = np.abs(flat)
    peak = float(magnitudes.max(initial=0.0))
    if peak < 1e-12:
        return np.asarray(unitary)
    pivot = flat[int(np.argmax(magnitudes >= 0.5 * peak))]
    return np.asarray(unitary) * (np.conj(pivot) / abs(pivot))


def unitary_content_key(unitary: np.ndarray, decimals: int = 9) -> bytes:
    """Hashable content key identifying a unitary up to global phase.

    The one key helper both the perf-cache canonicalization and the
    annealer's BFS memo build on: :func:`phase_normalized` (half-max pivot,
    stable under phase ties) followed by quantization to ``decimals`` digits
    (with ``-0.0`` folded into ``+0.0`` so the byte form is unique).  The
    default grid of 9 digits matches the cache's 1e-9 content-match
    tolerance, so this key never aliases two unitaries the cache
    distinguishes.
    """
    normalized = phase_normalized(np.asarray(unitary, dtype=COMPLEX_DTYPE))
    return (np.round(normalized, decimals) + 0.0).tobytes()


def batched_hs_overlaps(targets: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """``|Tr(T_i^dagger U)| / N`` for a stacked ``(B, N, N)`` target array.

    One einsum over the stacked axis replaces ``B`` separate
    ``trace(T.conj().T @ U)`` products — the vectorized screening kernel of
    the batched resynthesis engine.  Float caveat: einsum may order the sum
    differently than ``np.trace`` of a matmul, so per-item results can
    differ from the scalar overlap in the last ulp; callers needing scalar
    bit-identity must re-confirm near-threshold items with the scalar
    formula (see ``docs/batching.md``, "Identity guarantee").
    """
    targets = np.asarray(targets, dtype=COMPLEX_DTYPE)
    unitary = np.asarray(unitary, dtype=COMPLEX_DTYPE)
    dim = unitary.shape[0]
    return np.abs(np.einsum("bij,ij->b", targets.conj(), unitary)) / dim


def batched_hs_distances(targets: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """Hilbert–Schmidt distances of one unitary to a ``(B, N, N)`` stack.

    The batched form of :func:`hilbert_schmidt_distance`, sharing its
    clipping; the same last-ulp caveat as :func:`batched_hs_overlaps`
    applies.
    """
    overlaps = np.minimum(1.0, batched_hs_overlaps(targets, unitary))
    return np.sqrt(np.maximum(0.0, 1.0 - overlaps**2))


def _hs_distance(target: np.ndarray, unitary: np.ndarray) -> float:
    """The synthesizers' scalar Hilbert–Schmidt distance (no shape check).

    The exact-match and cost checks of both synthesizers, and the scalar
    confirmation of :func:`batched_hs_distances` screens, use this formula.
    It clips the overlap before squaring, so its last ulp can differ from
    :func:`hilbert_schmidt_distance`; swapping one for the other would change
    seeded synthesis trajectories.
    """
    dim = target.shape[0]
    overlap = abs(np.trace(target.conj().T @ unitary)) / dim
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, overlap) ** 2)))


def hilbert_schmidt_distance(unitary_a: np.ndarray, unitary_b: np.ndarray) -> float:
    """Hilbert–Schmidt distance (Def. 3.2), insensitive to global phase.

    ``sqrt(1 - |Tr(A^dagger B)|^2 / N^2)`` clipped into ``[0, 1]`` for
    numerical robustness.
    """
    unitary_a = np.asarray(unitary_a)
    unitary_b = np.asarray(unitary_b)
    if unitary_a.shape != unitary_b.shape:
        raise ValueError(
            f"unitary shapes differ: {unitary_a.shape} vs {unitary_b.shape}"
        )
    dim = unitary_a.shape[0]
    overlap = np.trace(unitary_a.conj().T @ unitary_b)
    value = 1.0 - (abs(overlap) ** 2) / (dim**2)
    return float(np.sqrt(max(0.0, min(1.0, value))))


def phase_aligned(unitary_a: np.ndarray, unitary_b: np.ndarray) -> np.ndarray:
    """Return ``unitary_b`` multiplied by the phase best aligning it to ``unitary_a``."""
    overlap = np.trace(np.asarray(unitary_a).conj().T @ np.asarray(unitary_b))
    if abs(overlap) < _ATOL:
        return np.asarray(unitary_b, dtype=COMPLEX_DTYPE)
    phase = overlap / abs(overlap)
    return np.asarray(unitary_b, dtype=COMPLEX_DTYPE) / phase


def closest_unitary(matrix: np.ndarray) -> np.ndarray:
    """Project a nearly-unitary matrix onto the unitary group via polar decomposition."""
    u, _, vh = np.linalg.svd(np.asarray(matrix, dtype=COMPLEX_DTYPE))
    return u @ vh
