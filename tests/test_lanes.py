"""The bit-sliced lane engine against the scalar reference.

``sim._lane_pass`` must agree with ``sim.run`` lane by lane on the sampled
branch (outputs, sign, executed counts, final bits) and with brute-force
branch enumeration on the all-branch verdict.  Circuits are random and small,
with conditioned diagonal gates that often leave phase defects, plus the
temporary-AND pattern that cleans its own kickback.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickmix import harness, sim
from kickmix import (
    Circuit,
    Gate,
    Register,
    check_phase_all_branches,
    mutate,
    run,
    run_all_measurement_branches,
    spec_for_circuit,
)

_ARITY = {"X": 1, "CX": 2, "CCX": 3, "Z": 1, "CZ": 2, "CCZ": 3, "MX": 1}


@st.composite
def circuits(draw, conditioned_permutations: bool = False) -> Circuit:
    qubit_count = draw(st.integers(1, 5))
    gates: list[Gate] = []
    written: list[int] = []

    def operands(arity: int) -> tuple[int, ...]:
        return tuple(draw(st.permutations(range(qubit_count)))[:arity])

    def condition(kind: str):
        allowed = kind in ("Z", "CZ", "CCZ") or conditioned_permutations
        if written and allowed and draw(st.booleans()):
            return draw(st.sampled_from(written)), draw(st.integers(0, 1))
        return None

    for _ in range(draw(st.integers(0, 14))):
        kinds = [k for k, arity in _ARITY.items() if arity <= qubit_count]
        if len(written) >= 8:
            kinds.remove("MX")
        if qubit_count >= 3 and len(written) < 8:
            kinds.append("temp-and")
        kind = draw(st.sampled_from(kinds))
        if kind == "temp-and":
            # a, b -> t, measure t out, undo the kickback: clean iff t was 0
            a, b, t = operands(3)
            cb = len(written)
            gates += [
                Gate("CCX", (a, b, t)),
                Gate("MX", (t,), cbit=cb),
                Gate("CZ", (a, b), condition=(cb, 1)),
            ]
            written.append(cb)
        elif kind == "MX":
            gates.append(Gate("MX", operands(1), cbit=len(written)))
            written.append(len(written))
        else:
            gates.append(Gate(kind, operands(_ARITY[kind]), condition=condition(kind)))
    split = draw(st.integers(0, qubit_count - 1))
    outputs = [Register("lo", 0, split)]
    if split + 1 < qubit_count:
        outputs.append(Register("hi", split + 1, qubit_count - 1))
    return Circuit(
        qubit_count=qubit_count,
        classical_bit_count=len(written),
        inputs=(Register("a", 0, qubit_count - 1),),
        outputs=tuple(outputs),
        gates=tuple(gates),
    )


class _Lane(NamedTuple):
    outputs: dict
    phase: int | None
    phase_always_plus_one: bool | None
    phase_defects: tuple
    executed_total: int
    executed_non_clifford: int
    final_bits: tuple


def _lanes(circuit: Circuit, inputs, words=None) -> list[_Lane]:
    """The pass seen lane by lane: each lane's slot read plus its entry in
    each column."""
    lane_slot, reads, columns = sim._lane_pass(circuit, inputs, words)
    return [_Lane(reads[s][1], phase, reads[s][2], reads[s][3], total, nc, reads[s][0])
            for s, phase, total, nc in zip(lane_slot, *columns)]


def _measurements(circuit: Circuit) -> int:
    return sum(1 for g in circuit.gates if g.kind == "MX")


def _bits(word: int, count: int) -> list[int]:
    """A stream word's bits in stream order (most significant first)."""
    return [(word >> (count - 1 - i)) & 1 for i in range(count)]


@st.composite
def lanes(draw, conditioned_permutations: bool = False):
    circuit = draw(circuits(conditioned_permutations))
    m = _measurements(circuit)
    count = draw(st.integers(1, 70))
    # Lanes draw from a pool of mapping objects, so some share one (a slot of
    # several lanes) and some hold equal values apart.
    values = draw(st.lists(st.integers(0, (1 << circuit.qubit_count) - 1),
                           min_size=1, max_size=count))
    inputs = draw(st.lists(st.sampled_from([{"a": v} for v in values]),
                           min_size=count, max_size=count))
    words = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=count, max_size=count))
    return circuit, inputs, words


@settings(max_examples=150, deadline=None)
@given(lanes(conditioned_permutations=True))
def test_every_lane_matches_scalar_run_on_its_own_branch(case) -> None:
    circuit, inputs, words = case
    m = _measurements(circuit)
    for lane, lane_inputs, word in zip(_lanes(circuit, inputs, words), inputs, words):
        scalar = run(circuit, lane_inputs, _bits(word, m))
        assert lane.outputs == scalar.outputs
        assert lane.phase == scalar.phase
        assert lane.executed_total == scalar.executed_total
        assert lane.executed_non_clifford == scalar.executed_non_clifford
        assert lane.final_bits == scalar.final_bits


@settings(max_examples=150, deadline=None)
@given(lanes())
def test_all_branch_verdict_matches_enumeration(case) -> None:
    circuit, inputs, _ = case
    results = _lanes(circuit, inputs)
    for lane, lane_inputs in zip(results[:4], inputs):
        branches = run_all_measurement_branches(circuit, lane_inputs, branch_limit=10)
        assert lane.phase_always_plus_one == all(b.phase == 1 for b in branches)
        assert all(b.outputs == lane.outputs for b in branches)
        # Without words the counts are those of the all-zeros branch.
        assert lane.executed_total == branches[0].executed_total
        assert lane.executed_non_clifford == branches[0].executed_non_clifford
        # cbit c is a defect iff flipping outcome c flips the sign; here the
        # circuit writes c0, c1, ... in measurement order.
        m = _measurements(circuit)
        phase = {
            outcomes: b.phase
            for outcomes, b in zip(itertools.product((0, 1), repeat=m), branches)
        }
        flips = {
            c
            for outcomes in phase
            for c in range(m)
            if phase[outcomes] != phase[outcomes[:c] + (1 - outcomes[c],) + outcomes[c + 1:]]
        }
        assert lane.phase_defects == tuple(sorted(flips))
        # the public verdict is this lane's read of a one-lane pass
        verdict = check_phase_all_branches(circuit, lane_inputs)
        assert verdict._asdict() == {name: getattr(lane, name) for name in verdict._fields}


def test_the_random_corpus_exercises_both_verdicts() -> None:
    seen = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(lanes())
    def collect(case) -> None:
        circuit, inputs, _ = case
        seen.update(lane.phase_always_plus_one for lane in _lanes(circuit, inputs))

    collect()
    assert seen == {True, False}


def _conditioned_cx() -> Circuit:
    return Circuit(
        qubit_count=3,
        classical_bit_count=1,
        inputs=(Register("a", 0, 2),),
        outputs=(Register("a", 0, 2),),
        gates=(
            Gate("CX", (0, 2)),
            Gate("MX", (2,), cbit=0),
            Gate("CX", (0, 1), condition=(0, 1)),
            Gate("CCZ", (0, 1, 2), condition=(0, 0)),
        ),
    )


def test_conditioned_permutations_fall_back_to_scalar_runs() -> None:
    circuit = _conditioned_cx()
    inputs = [{"a": v} for v in range(8)]
    words = [v % 2 for v in range(8)]
    for lane, lane_inputs, word in zip(_lanes(circuit, inputs, words), inputs, words):
        scalar = run(circuit, lane_inputs, [word])
        assert lane.outputs == scalar.outputs and lane.phase == scalar.phase
        assert lane.phase_always_plus_one is None
    with pytest.raises(ValueError, match="gate 2 is a conditioned CX: branch space"):
        _lanes(circuit, inputs)


def test_lane_inputs_are_validated_like_scalar_runs() -> None:
    circuit = _conditioned_cx()
    with pytest.raises(ValueError, match=r"no such input register\(s\): b"):
        _lanes(circuit, [{"a": 1}, {"a": 1, "b": 0}])
    with pytest.raises(ValueError, match="value 8 does not fit input register 'a'"):
        _lanes(circuit, [{"a": 8}])
    assert _lanes(circuit, [], []) == []


def test_conditioned_permutations_never_run_the_scalar_reference(monkeypatch) -> None:
    circuit = _conditioned_cx()
    inputs = [{"a": v} for v in range(8)] * 2
    words = [0] * 8 + [1] * 8
    expected = [run(circuit, lane_inputs, [word]) for lane_inputs, word in zip(inputs, words)]

    def refuse(*args, **kwargs):
        raise AssertionError("the lane pass called sim.run")

    monkeypatch.setattr(sim, "run", refuse)
    lanes = _lanes(circuit, inputs, words)
    assert [lane.outputs for lane in lanes] == [scalar.outputs for scalar in expected]
    assert [lane.phase for lane in lanes] == [scalar.phase for scalar in expected]
    assert [lane.final_bits for lane in lanes] == [scalar.final_bits for scalar in expected]
    assert [(lane.executed_total, lane.executed_non_clifford) for lane in lanes] == [
        (scalar.executed_total, scalar.executed_non_clifford) for scalar in expected
    ]
    # Lane a=1 with outcome 1 takes the conditioned CX: qubit 1 flips.
    assert lanes[8 + 1].outputs == {"a": 0b011} and lanes[1].outputs == {"a": 0b001}
    assert all(lane.phase_always_plus_one is None and lane.phase_defects == () for lane in lanes)


def _conditions_a_permutation(circuit: Circuit) -> bool:
    return any(g.condition is not None and g.kind in ("X", "CX", "CCX") for g in circuit.gates)


@st.composite
def pooled_lanes(draw):
    """Lanes drawn with repeats from a pool of at most three mapping objects
    (two may hold equal values); words are drawn whenever a conditioned
    X/CX/CCX needs them, and otherwise maybe."""
    circuit = draw(circuits(conditioned_permutations=True))
    m = _measurements(circuit)
    pool = draw(st.lists(st.integers(0, (1 << circuit.qubit_count) - 1),
                         min_size=1, max_size=3))
    inputs = draw(st.lists(st.sampled_from([{"a": v} for v in pool]), min_size=1, max_size=40))
    words = None
    if _conditions_a_permutation(circuit) or draw(st.booleans()):
        words = draw(st.lists(st.integers(0, (1 << m) - 1),
                              min_size=len(inputs), max_size=len(inputs)))
    order = draw(st.permutations(range(len(inputs))))
    return circuit, inputs, words, order


@settings(max_examples=150, deadline=None)
@given(pooled_lanes())
def test_lanes_with_equal_inputs_match_their_own_runs(case) -> None:
    circuit, inputs, words, order = case
    m = _measurements(circuit)
    lane_words = words if words is not None else [0] * len(inputs)
    results = _lanes(circuit, inputs, words)
    for lane, lane_inputs, word in zip(results, inputs, lane_words):
        scalar = run(circuit, lane_inputs, _bits(word, m))
        assert lane.outputs == scalar.outputs
        assert lane.phase == (None if words is None else scalar.phase)
        assert lane.executed_total == scalar.executed_total
        assert lane.executed_non_clifford == scalar.executed_non_clifford
        assert lane.final_bits == scalar.final_bits
        [alone] = _lanes(circuit, [lane_inputs], None if words is None else [word])
        assert lane.phase_always_plus_one == alone.phase_always_plus_one
        assert lane.phase_defects == alone.phase_defects
        assert lane == alone

    shuffled = _lanes(circuit, [inputs[i] for i in order],
                         None if words is None else [words[i] for i in order])
    assert shuffled == [results[i] for i in order]
    assert _lanes(circuit, inputs * 2, None if words is None else words * 2) == results * 2


@settings(max_examples=100, deadline=None)
@given(pooled_lanes())
def test_the_pass_numbers_slots_by_first_lane_and_shares_them_by_object(case) -> None:
    circuit, inputs, words, _ = case
    lane_slot, reads, columns = sim._lane_pass(circuit, inputs, words)
    assert len(lane_slot) == len(inputs) and all(len(c) == len(inputs) for c in columns)
    # slots are numbered in order of their first lane, which harness relies on
    firsts = [s for j, s in enumerate(lane_slot) if s not in lane_slot[:j]]
    assert firsts == list(range(len(reads)))
    # lanes share a slot iff they hold one mapping, unless each follows its own branch
    if words is None or not _conditions_a_permutation(circuit):
        assert [[s == t for t in lane_slot] for s in lane_slot] == [
            [a is b for b in inputs] for a in inputs
        ]
    else:
        assert lane_slot == list(range(len(inputs)))
    assert sim._lane_pass(circuit, [], []) == ([], [], [[], [], []])


def test_a_shared_inputs_object_is_simulated_once(monkeypatch) -> None:
    circuit = _conditioned_cx()
    seen = []
    initial_bits = sim._initial_bits

    def counting(circuit, inputs):
        seen.append(inputs["a"])
        return initial_bits(circuit, inputs)

    monkeypatch.setattr(sim, "_initial_bits", counting)
    plain = Circuit(qubit_count=3, classical_bit_count=0, inputs=circuit.inputs,
                    outputs=circuit.outputs, gates=(Gate("CX", (0, 2)),))
    pool = [{"a": v} for v in range(3)]
    inputs = [pool[v % 3] for v in range(30)]
    lanes = _lanes(plain, inputs, [0] * 30)
    assert seen == [0, 1, 2]
    assert [lane.outputs for lane in lanes] == [run(plain, i, []).outputs for i in inputs]
    # Equal values in distinct mappings get a slot each, with identical results.
    seen.clear()
    apart = _lanes(plain, [{"a": v % 3} for v in range(30)], [0] * 30)
    assert seen == [v % 3 for v in range(30)]
    assert apart == _lanes(plain, inputs, [0] * 30)
    # A conditioned CX follows each lane's own outcome, so every lane is its own slot.
    seen.clear()
    _lanes(circuit, inputs, [v % 2 for v in range(30)])
    assert len(seen) == 30


def test_a_lane_with_bad_inputs_raises_what_it_raises_alone() -> None:
    circuit = Circuit(qubit_count=2, classical_bit_count=0, inputs=(Register("a", 0, 1),),
                      outputs=(Register("a", 0, 1),), gates=(Gate("CX", (0, 1)),))
    for bad in ({"a": 1.0}, {"a": [1]}, {"a": 1, "b": 0}, {"a": 4}):
        with pytest.raises((TypeError, ValueError)) as alone:
            _lanes(circuit, [bad])
        with pytest.raises(alone.type) as after:
            _lanes(circuit, [{"a": 1}, {"a": 0}, bad, {"a": 1}])
        assert str(after.value) == str(alone.value)
    # True == 1, but a bool lane in its own mapping has its own slot and runs like int 1.
    flags = _lanes(circuit, [{"a": 1}, {"a": True}], [0, 0])
    assert flags[0] == flags[1] and flags[1].outputs == {"a": 3}


@pytest.mark.parametrize("seed, defects", [(None, False), (4, True), (5, False)],
                         ids=["clean", "mutant 4, phase defects", "mutant 5, zero-branch plane"])
def test_a_p11_pass_gives_each_lane_the_sign_of_its_own_run(pointadd11, pointadd11_bytes,
                                                            seed, defects) -> None:
    """A clean pass sets no sign plane, so its sign column is all +1; a
    mutant's planes give each lane the sign of its own run."""
    circuit = pointadd11.circuit if seed is None else mutate(pointadd11.circuit, seed)
    plan = harness._resolve(circuit, spec_for_circuit(circuit))
    transcript = harness._derive(pointadd11_bytes, plan, 300)
    ran = [(entry, case) for entry, case in harness._transcript_cases(plan, transcript) if case]
    inputs = [inputs for _, (inputs, _) in ran]
    m = len(circuit.facts.measured)
    words = transcript.measurement_words([entry["index"] for entry, _ in ran], m)
    _, reads, (signs, _, _) = sim._lane_pass(circuit, inputs, words)
    assert any(read[3] for read in reads) == defects
    assert all(read[2] for read in reads) == (seed is None)
    runs = [run(circuit, i, [(w >> (m - 1 - b)) & 1 for b in range(m)]).phase
            for i, w in zip(inputs, words)]
    assert signs == runs
    if seed is None:
        assert signs == [1] * len(inputs)
    else:
        assert -1 in signs
