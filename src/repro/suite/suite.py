"""Benchmark-suite assembly.

The paper evaluates on 247 circuits spanning near-term (QAOA, VQE, QFT, QPE,
BV, GHZ) and long-term (adders, multi-controlled Toffolis, Grover, hidden
shift, random Clifford+T) algorithms, on 4–36 qubits.  This module assembles
a scaled-down but structurally equivalent suite from the parametric
generators, split into the circuits usable with parameterized gate sets
("nisq" suite) and the circuits exactly expressible in Clifford+T ("ftqc"
suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.circuits.circuit import Circuit
from repro.gatesets.base import GateSet, get_gate_set
from repro.gatesets.decompose import decompose_to_gate_set
from repro.suite import generators as gen


@dataclass(frozen=True)
class BenchmarkCase:
    """A named benchmark circuit plus its family label."""

    name: str
    family: str
    circuit: Circuit

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    @property
    def size(self) -> int:
        return self.circuit.size()


def _case(name: str, family: str, builder: Callable[[], Circuit]) -> BenchmarkCase:
    circuit = builder()
    circuit.name = name
    return BenchmarkCase(name=name, family=family, circuit=circuit)


def nisq_suite(scale: str = "small") -> list[BenchmarkCase]:
    """Benchmarks for the parameterized gate sets (Q1–Q3).

    ``scale`` is ``"tiny"`` (fast smoke tests), ``"small"`` (default, runs the
    whole evaluation in minutes) or ``"medium"`` (closer to the paper's sizes,
    slower).
    """
    sizes = _nisq_sizes(scale)
    cases: list[BenchmarkCase] = []
    for n in sizes["qft"]:
        cases.append(_case(f"qft_{n}", "qft", lambda n=n: gen.qft(n)))
    for n in sizes["qpe"]:
        cases.append(_case(f"qpe_{n + 1}", "qpe", lambda n=n: gen.qpe(n)))
    for n in sizes["ghz"]:
        cases.append(_case(f"ghz_{n}", "ghz", lambda n=n: gen.ghz(n)))
    for n in sizes["bv"]:
        cases.append(_case(f"bv_{n}", "bv", lambda n=n: gen.bernstein_vazirani(n)))
    for n, layers in sizes["qaoa"]:
        cases.append(
            _case(
                f"qaoa_{n}_p{layers}", "qaoa", lambda n=n, p=layers: gen.qaoa_maxcut(n, p, seed=n)
            )
        )
    for n, depth in sizes["vqe"]:
        cases.append(
            _case(f"vqe_{n}_d{depth}", "vqe", lambda n=n, d=depth: gen.vqe_ansatz(n, d, seed=n))
        )
    for n in sizes["tof"]:
        cases.append(_case(f"tof_{n + 2}", "toffoli", lambda n=n: gen.toffoli_chain(n)))
    for n in sizes["barenco"]:
        cases.append(
            _case(f"barenco_tof_{n}", "toffoli", lambda n=n: gen.barenco_toffoli(n))
        )
    for n in sizes["adder"]:
        cases.append(_case(f"rc_adder_{n}", "arithmetic", lambda n=n: gen.ripple_carry_adder(n)))
    for n in sizes["qft_adder"]:
        cases.append(_case(f"qft_adder_{n}", "arithmetic", lambda n=n: gen.draper_adder(n)))
    for n, steps in sizes["ising"]:
        cases.append(
            _case(f"ising_{n}_s{steps}", "simulation", lambda n=n, s=steps: gen.ising_trotter(n, s))
        )
    for n in sizes["grover"]:
        cases.append(_case(f"grover_{n}", "grover", lambda n=n: gen.grover(n, iterations=1)))
    for n, gates in sizes["random"]:
        cases.append(
            _case(
                f"random_param_{n}_{gates}",
                "random",
                lambda n=n, g=gates: gen.random_parameterized(n, g, seed=n + g),
            )
        )
    return cases


def ftqc_suite(scale: str = "small") -> list[BenchmarkCase]:
    """Benchmarks exactly expressible in Clifford+T (Q4)."""
    sizes = _ftqc_sizes(scale)
    cases: list[BenchmarkCase] = []
    for n in sizes["tof"]:
        cases.append(_case(f"tof_{n + 2}", "toffoli", lambda n=n: gen.toffoli_chain(n)))
    for n in sizes["barenco"]:
        cases.append(
            _case(f"barenco_tof_{n}", "toffoli", lambda n=n: gen.barenco_toffoli(n))
        )
    for n in sizes["adder"]:
        cases.append(_case(f"rc_adder_{n}", "arithmetic", lambda n=n: gen.ripple_carry_adder(n)))
    for n in sizes["vbe"]:
        cases.append(_case(f"vbe_adder_{n}", "arithmetic", lambda n=n: gen.vbe_adder(n)))
    for n in sizes["ghz"]:
        cases.append(_case(f"ghz_{n}", "ghz", lambda n=n: gen.ghz(n)))
    for n in sizes["bv"]:
        cases.append(_case(f"bv_{n}", "bv", lambda n=n: gen.bernstein_vazirani(n)))
    for n in sizes["hidden_shift"]:
        cases.append(_case(f"hidden_shift_{n}", "hidden_shift", lambda n=n: gen.hidden_shift(n)))
    for n in sizes["grover"]:
        cases.append(_case(f"grover_{n}", "grover", lambda n=n: gen.grover(n, iterations=1)))
    for n, gates in sizes["random"]:
        cases.append(
            _case(
                f"random_ct_{n}_{gates}",
                "random",
                lambda n=n, g=gates: gen.random_clifford_t(n, g, seed=n + g),
            )
        )
    return cases


def select_cases(
    cases: "list[BenchmarkCase]", names: "list[str] | tuple[str, ...]"
) -> "list[BenchmarkCase]":
    """Pick the named cases out of an assembled suite, in ``names`` order.

    The distributed layer (:mod:`repro.distrib`) works in case *names* —
    they travel over the wire and index the plan — so subsetting by name is
    the canonical way to materialize a run's circuit on a host.  Raises
    on unknown names so a stale plan fails loudly instead of silently
    shrinking the suite.
    """
    by_name = {case.name: case for case in cases}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(f"unknown benchmark cases {unknown}; suite has {sorted(by_name)}")
    return [by_name[name] for name in names]


def lowered_suite(
    gate_set: "GateSet | str", scale: str = "small"
) -> list[BenchmarkCase]:
    """The appropriate suite for a gate set, lowered into that gate set."""
    if isinstance(gate_set, str):
        gate_set = get_gate_set(gate_set)
    cases = ftqc_suite(scale) if gate_set.name == "clifford+t" else nisq_suite(scale)
    lowered: list[BenchmarkCase] = []
    for case in cases:
        circuit = decompose_to_gate_set(case.circuit, gate_set)
        circuit.name = case.name
        lowered.append(BenchmarkCase(name=case.name, family=case.family, circuit=circuit))
    return lowered


def _nisq_sizes(scale: str) -> dict:
    if scale == "tiny":
        return {
            "qft": [4],
            "qpe": [3],
            "ghz": [5],
            "bv": [5],
            "qaoa": [(4, 1)],
            "vqe": [(4, 1)],
            "tof": [2],
            "barenco": [3],
            "adder": [2],
            "qft_adder": [2],
            "ising": [(4, 2)],
            "grover": [3],
            "random": [(4, 30)],
        }
    if scale == "small":
        return {
            "qft": [4, 6, 8],
            "qpe": [4, 6],
            "ghz": [6, 10],
            "bv": [6, 10],
            "qaoa": [(6, 1), (8, 2)],
            "vqe": [(6, 2), (8, 3)],
            "tof": [3, 5],
            "barenco": [3, 4, 5],
            "adder": [2, 3],
            "qft_adder": [2, 3],
            "ising": [(5, 2), (6, 3)],
            "grover": [3, 4],
            "random": [(5, 60), (6, 100)],
        }
    if scale == "medium":
        return {
            "qft": [4, 8, 12, 16],
            "qpe": [6, 10],
            "ghz": [8, 16],
            "bv": [8, 16],
            "qaoa": [(8, 2), (12, 3)],
            "vqe": [(8, 3), (12, 4)],
            "tof": [4, 8],
            "barenco": [4, 6, 8],
            "adder": [3, 5],
            "qft_adder": [3, 4],
            "ising": [(8, 3), (10, 4)],
            "grover": [4, 5],
            "random": [(6, 150), (8, 250)],
        }
    raise ValueError(f"unknown scale {scale!r} (expected 'tiny', 'small', or 'medium')")


def _ftqc_sizes(scale: str) -> dict:
    if scale == "tiny":
        return {
            "tof": [2],
            "barenco": [3],
            "adder": [2],
            "vbe": [1],
            "ghz": [5],
            "bv": [5],
            "hidden_shift": [4],
            "grover": [3],
            "random": [(4, 40)],
        }
    if scale == "small":
        return {
            "tof": [3, 5],
            "barenco": [3, 4, 5],
            "adder": [2, 3],
            "vbe": [2, 3],
            "ghz": [6, 10],
            "bv": [6, 10],
            "hidden_shift": [4, 6],
            "grover": [3],
            "random": [(4, 60), (6, 120)],
        }
    if scale == "medium":
        return {
            "tof": [4, 8],
            "barenco": [4, 6, 8],
            "adder": [3, 5],
            "vbe": [3, 4],
            "ghz": [8, 16],
            "bv": [8, 16],
            "hidden_shift": [6, 8],
            "grover": [3],
            "random": [(6, 150), (8, 250)],
        }
    raise ValueError(f"unknown scale {scale!r} (expected 'tiny', 'small', or 'medium')")
