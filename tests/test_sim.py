"""Simulator semantics, branch enumeration, and the closed-form phase check.

The closed-form all-branch checker is the one piece of machinery the rest of
the suite leans on heavily, so it is cross-validated here against plain
brute-force enumeration of every measurement branch over a seeded corpus of
random circuits.
"""

from __future__ import annotations

import random

import pytest

from kickmix import (
    Circuit,
    Gate,
    Register,
    RngExhausted,
    build_temp_and,
    check_phase_all_branches,
    parse,
    run,
    run_all_measurement_branches,
    static_resources,
    sim,
)


def _bare(qubits: int, cbits: int, gate_lines: str) -> Circuit:
    header = f"qubits {qubits}\ncbits {cbits}\nin a 0..{qubits - 1}\nout a 0..{qubits - 1}\n"
    return parse(header + gate_lines)


def test_permutation_gates_flip_bits_as_expected() -> None:
    circuit = _bare(3, 0, "X 0\nCX 0 1\nCCX 0 1 2\n")
    result = run(circuit, {"a": 0}, [])
    # X sets bit0; CX copies onto bit1; CCX sees 1,1 and sets bit2.
    assert result.outputs["a"] == 0b111
    assert result.phase == 1
    assert result.executed_total == 3
    assert result.executed_non_clifford == 1  # just the CCX
    assert result.final_bits == (1, 1, 1)


def test_controlled_flips_require_all_controls_set() -> None:
    circuit = _bare(3, 0, "CX 0 1\nCCX 0 1 2\n")
    assert run(circuit, {"a": 0}, []).outputs["a"] == 0
    assert run(circuit, {"a": 0b001}, []).outputs["a"] == 0b111
    assert run(circuit, {"a": 0b010}, []).outputs["a"] == 0b010


def test_diagonal_gates_flip_sign_only_on_all_ones() -> None:
    for gates, width, flip_value in (("Z 0\n", 1, 1), ("CZ 0 1\n", 2, 3), ("CCZ 0 1 2\n", 3, 7)):
        circuit = _bare(width, 0, gates)
        for value in range(1 << width):
            result = run(circuit, {"a": value}, [])
            expected = -1 if value == flip_value else 1
            assert result.phase == expected, (gates, value)
            assert result.outputs["a"] == value  # diagonals never move bits
    assert run(_bare(3, 0, "CCZ 0 1 2\n"), {"a": 7}, []).executed_non_clifford == 1


def test_measurement_resets_qubit_and_records_outcome() -> None:
    circuit = _bare(1, 1, "X 0\nMX 0 -> c0\n")
    quiet = run(circuit, {"a": 0}, [0])
    kicked = run(circuit, {"a": 0}, [1])
    assert quiet.phase == 1 and kicked.phase == -1  # (-1)^(outcome * bit)
    assert quiet.measurements == (0,) and kicked.measurements == (1,)
    assert quiet.outputs["a"] == 0 and kicked.outputs["a"] == 0  # reset either way

    empty = _bare(1, 1, "MX 0 -> c0\n")
    for outcome in (0, 1):
        result = run(empty, {"a": 0}, [outcome])
        assert result.phase == 1  # measured bit was 0: no kickback possible


def test_skipped_conditioned_gates_do_not_count() -> None:
    circuit = _bare(2, 1, "MX 0 -> c0\nIF c0 CZ 0 1\n")
    skipped = run(circuit, {"a": 0b10}, [0])
    taken = run(circuit, {"a": 0b10}, [1])
    assert skipped.executed_total == 1
    assert taken.executed_total == 2
    assert taken.phase == 1  # measured qubit reset to 0, so CZ sees 0,1


def test_condition_matches_value_zero_and_one() -> None:
    circuit = _bare(1, 1, "MX 0 -> c0\nIF c0=0 Z 0\nIF c0 X 0\n")
    on_zero = run(circuit, {"a": 0}, [0])
    on_one = run(circuit, {"a": 0}, [1])
    assert on_zero.executed_total == 2 and on_zero.outputs["a"] == 0
    assert on_one.executed_total == 2 and on_one.outputs["a"] == 1


def test_rng_exhaustion_and_non_bit_randomness() -> None:
    circuit = _bare(1, 1, "MX 0 -> c0\n")
    with pytest.raises(RngExhausted, match="exhausted at gate 0"):
        run(circuit, {"a": 0}, [])
    with pytest.raises(ValueError, match="must be bits, got 2"):
        run(circuit, {"a": 0}, [2])


def test_input_mapping_validation() -> None:
    circuit = _bare(2, 0, "X 0\n")
    with pytest.raises(ValueError, match=r"no such input register\(s\): b"):
        run(circuit, {"a": 0, "b": 0}, [])
    with pytest.raises(ValueError, match=r"missing input register\(s\): a"):
        run(circuit, {}, [])
    with pytest.raises(ValueError, match=r"value 4 does not fit input register 'a'"):
        run(circuit, {"a": 4}, [])


def test_registers_read_least_significant_bit_first() -> None:
    circuit = _bare(3, 0, "X 1\n")
    assert run(circuit, {"a": 0}, []).outputs["a"] == 2


def test_trace_callback_sees_each_executed_gate() -> None:
    circuit = _bare(2, 1, "X 0\nMX 0 -> c0\nIF c0=0 Z 1\n")
    lines: list[str] = []
    result = run(circuit, {"a": 0}, [1], trace=lines.append)
    assert len(lines) == result.executed_total == 2
    assert "X" in lines[0] and "MX" in lines[1]


def test_branches_enumerate_in_lexicographic_outcome_order() -> None:
    circuit = _bare(2, 2, "MX 0 -> c0\nMX 1 -> c1\n")
    branches = run_all_measurement_branches(circuit, {"a": 0})
    assert [b.measurements for b in branches] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_branch_enumeration_refuses_past_the_limit() -> None:
    lines = "".join(f"MX {q} -> c{q}\n" for q in range(4))
    circuit = _bare(4, 4, lines)
    with pytest.raises(ValueError, match=r"4 measurements give 2\^4 branches"):
        run_all_measurement_branches(circuit, {"a": 0}, branch_limit=3)


def test_temp_and_gadget_is_clean_on_every_branch() -> None:
    circuit = build_temp_and().circuit
    for a in range(2):
        for b in range(2):
            branches = run_all_measurement_branches(circuit, {"a": a, "b": b})
            assert len(branches) == 2
            for branch in branches:
                assert branch.phase == 1
                assert branch.outputs == {"a": a, "b": b}
            invariant = check_phase_all_branches(circuit, {"a": a, "b": b})
            assert invariant.phase_always_plus_one
            assert invariant.outputs == {"a": a, "b": b}


def test_checker_rejects_conditioned_permutation_gates() -> None:
    circuit = _bare(2, 1, "MX 0 -> c0\nIF c0 X 1\n")
    with pytest.raises(ValueError, match="branch space does not factorize"):
        check_phase_all_branches(circuit, {"a": 0})
    # the first conditioned X/CX/CCX is named, after conditioned diagonal gates
    circuit = _bare(3, 2, "MX 0 -> c0\nIF c0 Z 1\nMX 1 -> c1\nX 2\nIF c1=0 CZ 0 2\n"
                          "IF c0=0 CCX 0 1 2\nIF c1 X 0\n")
    message = ("gate 5 is a conditioned CCX: branch space does not factorize; "
               "check it with sampled verification instead")
    for call in (lambda: sim._lane_pass(circuit, [{"a": 0}, {"a": 5}], None),
                 lambda: check_phase_all_branches(circuit, {"a": 3})):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


def _random_diagonal_conditioned_circuit(rng: random.Random) -> Circuit:
    """Random circuit whose conditioned gates are all diagonal.

    That is exactly the class the closed-form checker accepts, and the class
    every builder in this package emits.
    """
    qubit_count = rng.randint(2, 5)
    gates: list[Gate] = []
    written: list[int] = []
    cbit_next = 0
    for _ in range(rng.randint(2, 18)):
        roll = rng.random()
        if roll < 0.2 and cbit_next < 4:
            target = rng.randrange(qubit_count)
            gates.append(Gate("MX", (target,), cbit=cbit_next))
            written.append(cbit_next)
            cbit_next += 1
        elif roll < 0.6:
            kind = rng.choice(("X", "CX", "CCX"))
            arity = {"X": 1, "CX": 2, "CCX": 3}[kind]
            if arity > qubit_count:
                kind, arity = "X", 1
            gates.append(Gate(kind, tuple(rng.sample(range(qubit_count), arity))))
        else:
            kind = rng.choice(("Z", "CZ", "CCZ"))
            arity = {"Z": 1, "CZ": 2, "CCZ": 3}[kind]
            if arity > qubit_count:
                kind, arity = "Z", 1
            condition = None
            if written and rng.random() < 0.5:
                condition = (rng.choice(written), rng.randint(0, 1))
            gates.append(
                Gate(kind, tuple(rng.sample(range(qubit_count), arity)), condition=condition)
            )
    return Circuit(
        qubit_count=qubit_count,
        classical_bit_count=cbit_next,
        inputs=(Register("a", 0, qubit_count - 1),),
        outputs=(Register("a", 0, qubit_count - 1),),
        gates=tuple(gates),
    )


def test_closed_form_checker_agrees_with_brute_force_enumeration() -> None:
    agreements = 0
    saw_failing_phase = False
    for seed in range(120):
        rng = random.Random(1000 + seed)
        circuit = _random_diagonal_conditioned_circuit(rng)
        value = rng.randrange(1 << circuit.qubit_count)
        invariant = check_phase_all_branches(circuit, {"a": value})
        branches = run_all_measurement_branches(circuit, {"a": value})
        assert len(branches) == 1 << static_resources(circuit).measurement_count
        all_clean = all(branch.phase == 1 for branch in branches)
        assert invariant.phase_always_plus_one == all_clean, f"seed {seed}"
        for branch in branches:
            assert branch.outputs == invariant.outputs, f"seed {seed}"
        # data bits are outcome-independent in this circuit class, so the
        # checker's bit vector matches every enumerated branch
        for branch in branches:
            assert invariant.final_bits == branch.final_bits, f"seed {seed}"
        saw_failing_phase = saw_failing_phase or not all_clean
        agreements += 1
    assert agreements == 120
    assert saw_failing_phase  # the corpus must exercise both verdicts


def test_checker_defect_list_names_the_guilty_measurement() -> None:
    # CZ conditioned on c0=1 over qubits that are 1,1 at that time flips the
    # r=1 half only: branch phases differ across c0, and c0 is the defect.
    circuit = _bare(3, 1, "X 1\nX 2\nMX 0 -> c0\nIF c0 CZ 1 2\n")
    invariant = check_phase_all_branches(circuit, {"a": 0})
    assert not invariant.phase_always_plus_one
    assert invariant.phase_defects == (0,)
    phases = sorted(b.phase for b in run_all_measurement_branches(circuit, {"a": 0}))
    assert phases == [-1, 1]
