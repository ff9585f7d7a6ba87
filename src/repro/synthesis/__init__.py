"""Unitary synthesis: analytic 1-qubit, numerical templates, and Clifford+T search."""

from repro.circuits.euler import one_qubit_circuit, u3_circuit, zyz_angles
from repro.synthesis.numerical import TemplateSynthesisResult, TemplateSynthesizer
from repro.synthesis.annealing import CliffordTSynthesizer
from repro.synthesis.resynth import (
    EXACT_DISTANCE_FLOOR,
    CliffordTResynthesizer,
    NumericalResynthesizer,
    Resynthesizer,
    ResynthesisOutcome,
)

# batch builds on resynth; keep this import after it (and note that batch
# must never import repro.perf at module level — see its docstring)
from repro.synthesis.batch import (
    BatchResynthesizer,
    resynthesizer_from_spec,
    resynthesizer_spec,
)

__all__ = [
    "BatchResynthesizer",
    "CliffordTResynthesizer",
    "CliffordTSynthesizer",
    "EXACT_DISTANCE_FLOOR",
    "NumericalResynthesizer",
    "Resynthesizer",
    "ResynthesisOutcome",
    "TemplateSynthesisResult",
    "TemplateSynthesizer",
    "one_qubit_circuit",
    "resynthesizer_from_spec",
    "resynthesizer_spec",
    "u3_circuit",
    "zyz_angles",
]
