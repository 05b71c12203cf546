"""A circuit is its program: the verifier reads it without building
``gates``, and the copies that the builders' emitter, ``parse`` and
``Circuit(...)`` of a gate list make of one circuit give one lane pass.
(tests/test_builders.py checks their facts, gates and bytes.)"""

from __future__ import annotations

import random

import pytest

import kickmix.harness as harness
from kickmix import (
    Circuit,
    build_pointadd_permutation,
    build_windowed_pointadd,
    mutate,
    named_curve,
    parse,
    serialize,
    spec_for_circuit,
    verify,
    verify_exhaustive,
)
from kickmix.sim import _lane_pass
from test_builders import _gates_built
from test_golden_reports import conditioned_cx_circuit


def _lowered(circuit: Circuit) -> Circuit:
    return Circuit(circuit.qubit_count, circuit.classical_bit_count, circuit.inputs,
                   circuit.outputs, circuit.gates, dict(circuit.metadata))


@pytest.fixture(scope="module")
def bench_bytes(pointadd11_bytes) -> dict[str, bytes]:
    toy61, toy1009 = named_curve("toy-p61-b7"), named_curve("toy-p1009-b7")
    return {
        "p11": pointadd11_bytes,
        "p61w2": serialize(build_windowed_pointadd(toy61, toy61.generator, 2).circuit),
        "p1009": serialize(build_pointadd_permutation(toy1009, toy1009.generator).circuit),
    }


@pytest.mark.parametrize("name", ["p11", "p61w2", "p1009"])
def test_verify_never_builds_the_gates_it_parses(bench_bytes, name, monkeypatch) -> None:
    data = bench_bytes[name]
    parsed: list[Circuit] = []
    parse_bytes = harness.parse
    monkeypatch.setattr(harness, "parse", lambda raw: parsed.append(parse_bytes(raw)) or parsed[-1])
    circuit = parse_bytes(data)
    assert serialize(circuit) == data and not _gates_built(circuit)
    sampled = verify(data, spec_for_circuit(circuit, test_count=16))
    exhaustive = verify_exhaustive(data, spec_for_circuit(circuit, test_count=0,
                                                          tolerated_failure_fraction=0))
    assert sampled.passed and exhaustive.passed
    assert len(parsed) == 2 and not any(map(_gates_built, parsed))


def test_the_gates_view_is_built_once_and_a_given_tuple_is_kept() -> None:
    circuit = parse("qubits 2\ncbits 1\nCX 0 1\nMX 1 -> c0\nIF c0=0 Z 0\n")
    assert not _gates_built(circuit)
    gates = circuit.gates
    assert _gates_built(circuit) and circuit.gates is gates
    assert _lowered(circuit).gates is gates  # Circuit(...) keeps the tuple it is given
    with pytest.raises(AttributeError, match="no attribute 'gate'"):
        circuit.gate  # noqa: B018


def _phase_defect_mutant(circuit: Circuit) -> Circuit:
    """The first mutant whose lane pass finds phase defects on more than one
    measured bit of one input."""
    inputs = _lane_inputs(circuit, 32)
    for seed in range(200):
        mutant = mutate(circuit, seed)
        _, reads, _ = _lane_pass(mutant, inputs, None)
        if any(len(read[3]) > 1 for read in reads):
            return mutant
    raise AssertionError("no mutant with phase defects")


def _lane_inputs(circuit: Circuit, lanes: int) -> list[dict[str, int]]:
    rng = random.Random(lanes)
    return [{reg.name: rng.randrange(1 << reg.width) for reg in circuit.inputs}
            for _ in range(lanes)]


def _lane_outcome(circuit: Circuit, inputs, words):
    try:
        return _lane_pass(circuit, inputs, words)
    except ValueError as exc:
        return str(exc)


def test_built_parsed_and_lowered_copies_give_one_lane_pass(pointadd11, windowed11_w2) -> None:
    p11 = pointadd11.circuit
    cases = {
        "p11": p11,
        "p11 w=2": windowed11_w2.circuit,
        "conditioned CX": conditioned_cx_circuit(p11),  # each lane follows its own branch
        "phase defects": _phase_defect_mutant(p11),
    }
    for name, circuit in cases.items():
        copies = [circuit, parse(serialize(circuit)), _lowered(circuit)]
        assert [copy.facts for copy in copies] == [circuit.facts] * 3, name
        inputs = _lane_inputs(circuit, 40)
        inputs += inputs[:5]  # lanes that share a slot
        rng = random.Random(name)
        words = [rng.getrandbits(len(circuit.facts.measured)) for _ in inputs]
        for lane_words in (words, None):
            outcomes = [_lane_outcome(copy, inputs, lane_words) for copy in copies]
            assert outcomes == [outcomes[0]] * 3, name
    inputs = _lane_inputs(p11, 40)
    defects = [read[3] for read in _lane_pass(cases["phase defects"], inputs, None)[1]]
    assert any(len(bits) > 1 for bits in defects)
    assert all(list(bits) == sorted(bits) for bits in defects)  # in bit order
    assert _lane_outcome(cases["conditioned CX"], inputs, None).endswith(
        "branch space does not factorize; check it with sampled verification instead")
