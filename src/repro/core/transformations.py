"""The unified transformation abstraction (Section 4).

A :class:`Transformation` is a closed-box function from circuits to circuits
carrying an approximation degree ``epsilon`` (Def. 4.1).  Rewrite rules become
``epsilon = 0`` transformations; resynthesis becomes a transformation whose
``epsilon`` equals the synthesis error tolerance.  GUOQ composes them in
arbitrary order and, by Theorem 4.2, the total error is bounded by the sum of
the applied transformations' epsilons — which is exactly what the
``charged_epsilon`` field of :class:`TransformationResult` accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.blocks import block_to_circuit, random_block, replace_block
from repro.circuits.circuit import Circuit
from repro.rewrite.rules import RewriteRule
from repro.synthesis.batch import BatchResynthesizer
from repro.synthesis.resynth import Resynthesizer


@dataclass(frozen=True)
class TransformationResult:
    """Outcome of applying a transformation to a circuit."""

    circuit: Circuit
    charged_epsilon: float
    description: str = ""


class Transformation:
    """A closed-box circuit transformation with an error bound (Def. 4.1)."""

    #: worst-case Hilbert–Schmidt error introduced by one application
    epsilon: float = 0.0
    name: str = "transformation"
    #: True when ``apply`` is a pure function of the circuit (no rng draws,
    #: no internal state): the engine may then memoize "did not fire" results
    #: while the current circuit is unchanged (see ``GuoqConfig.memoize_rewrites``)
    deterministic: bool = False

    def apply(
        self, circuit: Circuit, rng: np.random.Generator
    ) -> "TransformationResult | None":
        """Apply the transformation; return None when it does not fire."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} eps={self.epsilon:g}>"


class RewriteTransformation(Transformation):
    """A rewrite rule lifted into the framework (epsilon = 0).

    Following the implementation note in Section 5.3, one application performs
    a full pass over the circuit replacing every disjoint match of the rule.
    """

    epsilon = 0.0
    deterministic = True

    def __init__(self, rule: RewriteRule) -> None:
        self.rule = rule
        self.name = f"rewrite:{rule.name}"

    def apply(
        self, circuit: Circuit, rng: np.random.Generator
    ) -> "TransformationResult | None":
        rewritten, count = self.rule.apply_pass(circuit)
        if count == 0:
            return None
        return TransformationResult(rewritten, 0.0, f"{count} match(es) of {self.rule.name}")


class ResynthesisTransformation(Transformation):
    """Resynthesis of a random convex subcircuit (epsilon = synthesis tolerance).

    The block's qubit budget is sampled between 2 and ``max_block_qubits`` on
    each application: narrow blocks resynthesize quickly and exactly, while
    wide blocks are the slow "teleport" moves that escape rewrite plateaus.
    """

    def __init__(
        self,
        resynthesizer: Resynthesizer,
        max_block_qubits: "int | None" = None,
        max_block_gates: "int | None" = 32,
    ) -> None:
        self.resynthesizer = resynthesizer
        self.epsilon = resynthesizer.epsilon
        self.max_block_qubits = (
            resynthesizer.max_qubits if max_block_qubits is None else max_block_qubits
        )
        self.max_block_gates = max_block_gates
        self.name = f"resynth:{resynthesizer.name}"
        #: the batched engine this transformation routes through; ``apply``
        #: hands it a batch of one, which takes its singleton fast path
        #: (exactly the scalar call)
        self.batcher = BatchResynthesizer(resynthesizer)

    def apply(
        self, circuit: Circuit, rng: np.random.Generator
    ) -> "TransformationResult | None":
        if self.max_block_qubits <= 2:
            qubit_budget = self.max_block_qubits
        else:
            qubit_budget = int(rng.integers(2, self.max_block_qubits + 1))
        block = random_block(
            circuit,
            rng,
            max_qubits=qubit_budget,
            max_gates=self.max_block_gates,
        )
        if block is None or len(block) < 2:
            return None
        small = block_to_circuit(circuit, block)
        outcome = self.batcher.resynthesize_batch([small])[0]
        if outcome is None:
            return None
        rebuilt = replace_block(circuit, block, outcome.circuit)
        return TransformationResult(
            rebuilt,
            outcome.charged_epsilon,
            f"resynthesized {len(block)}-gate block on qubits {block.qubits}",
        )


def rewrite_transformations(rules: "list[RewriteRule]") -> list[Transformation]:
    """Lift a rewrite-rule library into a list of transformations."""
    return [RewriteTransformation(rule) for rule in rules]
