"""Text format round-trips, canonical serialization, and parse diagnostics."""

from __future__ import annotations

import random
import re
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kickmix.circuit as circuit_module
from kickmix import (
    Circuit,
    CircuitError,
    Gate,
    ParseError,
    Register,
    StaticResources,
    build_adder,
    build_lookup,
    build_mod_add_const,
    build_pointadd_permutation,
    build_temp_and,
    build_windowed_pointadd,
    mutate,
    parse,
    run,
    serialize,
    static_resources,
)
from kickmix.circuit import GATE_KINDS, NON_CLIFFORD_KINDS

# The measured-uncompute AND gadget, serialized.  Frozen as the canonical
# reference output: header lines in fixed order (qubits, cbits, sorted meta,
# in, out), then gates, one per line, trailing newline.
_TEMP_AND_GOLDEN = (
    b"qubits 3\n"
    b"cbits 1\n"
    b"meta construction temp_and\n"
    b"meta exceptional correct\n"
    b"in a 0..0\n"
    b"in b 1..1\n"
    b"out a 0..0\n"
    b"out b 1..1\n"
    b"CCX 0 1 2\n"
    b"MX 2 -> c0\n"
    b"IF c0 CZ 0 1\n"
)


def test_temp_and_serializes_to_the_golden_bytes() -> None:
    assert serialize(build_temp_and().circuit) == _TEMP_AND_GOLDEN


def test_the_readme_example_is_the_serialized_temp_and_circuit() -> None:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Circuit files\n", 1)[1].split("```\n", 2)[1]
    assert example.encode() == _TEMP_AND_GOLDEN == serialize(build_temp_and().circuit)


def test_parse_inverts_serialize_for_builder_circuits(pointadd11) -> None:
    circuits = [
        build_temp_and().circuit,
        build_adder(3).circuit,
        build_mod_add_const(4, 5, 11).circuit,
        build_lookup([5, 0, 7, 3, 1, 6, 2, 4]).circuit,
        pointadd11.circuit,
    ]
    for circuit in circuits:
        raw = serialize(circuit)
        again = parse(raw)
        assert again == circuit
        assert serialize(again) == raw  # idempotent canonical form


def test_parse_refuses_comments_blanks_and_odd_whitespace() -> None:
    lines = _TEMP_AND_GOLDEN.decode().splitlines(keepends=True)
    assert parse("".join(lines)) == build_temp_and().circuit
    for at, variant in (
        (1, ["# leading comment\n", *lines]),
        (1, ["qubits 3\r\n", *lines[1:]]),
        (1, ["   qubits 3\n", *lines[1:]]),
        (1, ["qubits  3\n", *lines[1:]]),
        (2, [lines[0], "\n", *lines[1:]]),
        (4, [*lines[:2], lines[3], lines[2], *lines[4:]]),  # meta keys unsorted
        (5, [*lines[:4], "in  a 0..0\n", *lines[5:]]),
        (9, [*lines[:8], "\t\n", *lines[8:]]),
        (9, [*lines[:8], "  # indented comment\n", *lines[8:]]),
        (10, [*lines[:9], "   MX 2 -> c0   \n", *lines[10:]]),
        (10, [*lines[:9], "MX 2 -> c0 # comments own no line\n", *lines[10:]]),
        (11, [*lines[:10], "IF c0  CZ 0 1\n"]),
        (12, [*lines, "# nonce 1\n"]),
        (12, [*lines, "\n"]),
    ):
        with pytest.raises(ParseError) as excinfo:
            parse("".join(variant))
        assert (excinfo.value.line, excinfo.value.column) == (at, 1), variant


def test_if_without_value_is_the_condition_on_one() -> None:
    base = "qubits 2\ncbits 1\nMX 0 -> c0\n"
    implicit = parse(base + "IF c0 Z 1\n")
    inverted = parse(base + "IF c0=0 Z 1\n")
    assert implicit.gates[-1].condition == (0, 1)
    assert inverted.gates[-1].condition == (0, 0)
    # the one spelling of each: "=1" is dropped and "=0" kept
    assert serialize(implicit) == (base + "IF c0 Z 1\n").encode()
    assert serialize(inverted) == (base + "IF c0=0 Z 1\n").encode()
    with pytest.raises(ParseError) as excinfo:
        parse(base + "IF c0=1 Z 1\n")
    assert str(excinfo.value) == "line 4, column 1: expected a gate line, got 'IF c0=1 Z 1'"


def test_four_gate_example_counts() -> None:
    circuit = parse(
        "qubits 3\ncbits 1\nX 0\nCCX 0 1 2\nMX 2 -> c0\nIF c0 CZ 0 1\n"
    )
    assert static_resources(circuit) == StaticResources(
        qubit_count=3,
        total_gate_count=4,
        non_clifford_gate_count=1,
        measurement_count=1,
    )


@pytest.mark.parametrize(
    "text,line,column,message",
    [
        # qubits N, then cbits M, each once and in that order
        ("", 1, 1, "expected 'qubits N', got ''"),
        ("cbits 1\n", 1, 1, "expected 'qubits N', got 'cbits 1'"),
        ("CX 0 1\n", 1, 1, "expected 'qubits N', got 'CX 0 1'"),
        ("qubits 2\n", 2, 1, "expected 'cbits M', got ''"),
        ("qubits 2\nqubits 3\n", 2, 1, "expected 'cbits M', got 'qubits 3'"),
        ("qubits 2\nCX 0 1\n", 2, 1, "expected 'cbits M', got 'CX 0 1'"),
        ("qubits 2\ncbits 1\ncbits 1\n", 3, 1, "expected a gate line, got 'cbits 1'"),
        ("qubits 2\ncbits 0\nCX 0 1\nqubits 2\n", 4, 1, "expected a gate line, got 'qubits 2'"),
        ("qubits 65537\ncbits 0\n", 1, 1, "65537 qubits exceed the ceiling 65536"),
        ("qubits 1\ncbits 1048577\n", 1, 1, "classical bits exceed the ceiling"),
        # Integers are spelled as str(int) spells them, in at most 7 digits.
        ("qubits two\ncbits 0\n", 1, 1, "expected 'qubits N', got 'qubits two'"),
        ("qubits 1_0\ncbits 0\n", 1, 1, "expected 'qubits N', got 'qubits 1_0'"),
        ("qubits 01\ncbits 0\n", 1, 1, "expected 'qubits N', got 'qubits 01'"),
        ("qubits 1\ncbits 00000000\n", 2, 1, "expected 'cbits M', got 'cbits 00000000'"),
        ("qubits 4\ncbits 0\nX \u0663\n", 3, 1, "expected a gate line, got 'X \u0663'"),
        ("qubits 4\ncbits 0\nX +2\n", 3, 1, "expected a gate line, got 'X +2'"),
        ("qubits 4\ncbits 0\nCCX 0 1 \u0663\n", 3, 1, "expected a gate line"),
        ("qubits 2\ncbits 1\nMX -1 -> c0\n", 3, 1, "expected a gate line, got 'MX -1 -> c0'"),
        ("qubits 2\ncbits 0\nCX 0 11111111\n", 3, 1, "expected a gate line"),
        ("qubits 2\ncbits 0\nCX 0 01\n", 3, 1, "expected a gate line, got 'CX 0 01'"),
        ("qubits 2\ncbits 0\nCX 0 1\nCX 00 1\n", 4, 1, "expected a gate line, got 'CX 00 1'"),
        ("qubits 2\ncbits 2\nMX 0 -> c01\n", 3, 1, "expected a gate line, got 'MX 0 -> c01'"),
        ("qubits 2\ncbits 1\nMX 0 -> c00000000\n", 3, 1, "expected a gate line"),
        ("qubits 1\ncbits 1\nIF c\u00b2 Z 0\n", 3, 1, "expected a gate line"),
        ("qubits 1\ncbits 1\nMX 0 -> c\u00b2\n", 3, 1, "expected a gate line"),
        pytest.param(
            "qubits 1\ncbits 1\nMX 0 -> c" + "1" * 5000 + "\n",
            3,
            1,
            "expected a gate line, got 'MX 0 -> c" + "1" * 11 + "\u2026'",
            id="cref-of-5000-digits",
        ),
        pytest.param(
            "qubits 1\ncbits 0\nX " + "1" * 5000 + "\n",
            3,
            1,
            "expected a gate line, got 'X " + "1" * 18 + "\u2026'",
            id="qubit-of-5000-digits",
        ),
        pytest.param(
            "qubits 1\ncbits 0\nin a 0.." + "9" * 4000 + "\n",
            3,
            1,
            "expected 'in name lo..hi', got 'in a 0.." + "9" * 12 + "\u2026'",
            id="register-hi-of-4000-digits",
        ),
        # meta keys strictly increase; meta, in and out lines keep their order
        ("qubits 1\ncbits 0\nmeta b x\nmeta a y\n", 4, 1, "meta key 'a' not after 'b'"),
        ("qubits 1\ncbits 0\nmeta a x\nmeta a y\n", 4, 1, "meta key 'a' not after 'a'"),
        ("qubits 1\ncbits 0\nin a 0..0\nmeta k v\n", 4, 1, "expected a gate line, got 'meta k v'"),
        ("qubits 1\ncbits 0\nout a 0..0\nin a 0..0\n", 4, 1, "expected a gate line"),
        ("qubits 1\ncbits 0\nmeta k\n", 1, 1, "bad metadata value for 'k': ''"),
        ("qubits 1\ncbits 0\nmeta k  v\n", 1, 1, "bad metadata value for 'k': ' v'"),
        ("qubits 2\ncbits 0\nin a 0..+1\n", 3, 1, "expected 'in name lo..hi', got 'in a 0..+1'"),
        ("qubits 2\ncbits 0\nout a 00..1\n", 3, 1, "expected 'out name lo..hi'"),
        ("qubits 2\ncbits 0\nin  a 0..1\n", 3, 1, "expected 'in name lo..hi'"),
        ("qubits 2\ncbits 0\nin a 1..0\n", 3, 1, "bad register range 1..0"),
        ("qubits 1\ncbits 0\nin a 0..0\nin a 0..0\n", 1, 1, "duplicate in register 'a'"),
        ("qubits 2\ncbits 0\nin a 0..3\n", 1, 1, "exceeds qubit count"),
        ("qubits 2\ncbits 0\nin a 0..1\nin b 1..1\n", 1, 1,
         "in register 'b' overlaps qubit 1 already covered by another in register"),
        ("qubits 3\ncbits 0\nin a 0..2\nout a 0..1\nout b 1..2\n", 1, 1,
         "out register 'b' overlaps qubit 1 already covered by another out register"),
        # Gate lines: syntax first, then the validation walk's rules.
        ("qubits 2\ncbits 0\nBOGUS 0\n", 3, 1, "expected a gate line, got 'BOGUS 0'"),
        ("qubits 2\ncbits 0\nH 0\n", 3, 1, "unknown gate kind 'H'"),
        ("qubits 2\ncbits 1\nMX 0\n", 3, 1, "MX requires a destination classical bit"),
        ("qubits 2\ncbits 1\nIF c0\n", 3, 1, "expected a gate line, got 'IF c0'"),
        ("qubits 2\ncbits 1\nX 0 -> c0\n", 3, 1, "X does not write a classical bit"),
        ("qubits 2\ncbits 0\nCX 0 0\n", 3, 1, "duplicate operand"),
        ("qubits 1\ncbits 1\nIF c0 MX 0 -> c0\n", 3, 1, "measurements cannot be conditioned"),
        ("qubits 1\ncbits 1\nMX 0 -> c0\nIF c0=2 Z 0\n", 4, 1, "expected a gate line"),
        ("qubits 1\ncbits 1\nMX 0 -> c0\nIF c0=1 Z 0\n", 4, 1, "expected a gate line"),
        ("qubits 1\ncbits 1\nIF c9 Z 0\n", 3, 1, "classical bit c9 out of range"),
        ("qubits 1\ncbits 1\nMX 0 -> c3\n", 3, 1, "classical bit c3 out of range"),
        (
            "qubits 1\ncbits 1\nIF c0 Z 0\n",
            3,
            1,
            "condition on c0 before any measurement writes it",
        ),
        (
            "qubits 1\ncbits 1\nMX 0 -> c0\nMX 0 -> c0\n",
            4,
            1,
            "classical bit c0 written twice",
        ),
        # Gate i is on the line after the headers and the i gates before it.
        ("qubits 2\ncbits 0\nmeta k v\nin a 0..1\nCX 0 1\nCX 0 2\n", 6, 1, "qubit 2 out of range"),
        # A repeated line that breaks a rule only at its later copy.
        (
            "qubits 1\ncbits 1\nX 0\nMX 0 -> c0\nX 0\nMX 0 -> c0\n",
            6,
            1,
            "gate 3 (MX): classical bit c0 written twice",
        ),
        # Only "\n" ends a line, and every line ends in one.
        ("qubits 2\r\ncbits 0\r\n", 1, 1, "expected 'qubits N', got 'qubits 2\\r'"),
        ("qubits 2\ncbits 0\nX 0\r\n", 3, 1, "expected a gate line, got 'X 0\\r'"),
        ("qubits 2\ncbits 0\nX 0\u2028X 1\n", 3, 1, "got 'X 0\\u2028X 1'"),
        ("qubits 2\ncbits 0\nX 0", 3, 1, "no newline at the end of the file"),
        ("qubits 2", 1, 1, "no newline at the end of the file"),
        (b"qubits 1\ncbits 0\nX 0\n# \xc3\n", 4, 3, "invalid UTF-8"),
        # Register names and metadata values are cut like lines.
        pytest.param(
            "qubits 1\ncbits 0\nin a-" + "b" * 5000 + " 0..0\n",
            3,
            1,
            "bad register name 'a-" + "b" * 18 + "\u2026'",
            id="register-name-of-5002-characters",
        ),
        pytest.param(
            "qubits 1\ncbits 0\n" + ("in " + "a" * 5000 + " 0..0\n") * 2,
            1,
            1,
            "duplicate in register '" + "a" * 20 + "\u2026'",
            id="duplicate-register-of-5000-characters",
        ),
        pytest.param(
            "qubits 1\ncbits 0\nmeta exceptional " + "x" * 5000 + "\n",
            1,
            1,
            "exceptional policy '" + "x" * 20 + "\u2026' not in",
            id="policy-of-5000-characters",
        ),
        pytest.param(
            "qubits 1\ncbits 0\nout " + "a" * 5000 + " 0..3\n",
            1,
            1,
            "out register '" + "a" * 20 + "\u2026' range 0..3 exceeds qubit count 1",
            id="register-of-5000-characters-out-of-range",
        ),
    ],
)
def test_parse_errors_carry_position_and_message(
    text: str | bytes, line: int, column: int, message: str
) -> None:
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    err = excinfo.value
    assert err.line == line
    assert err.column == column
    assert message in str(err)
    assert str(err).startswith(f"line {line}, column {column}: ")


_KMX_TOKENS = (
    "qubits", "cbits", "meta", "in", "out", "IF", "X", "CX", "CCX", "Z", "CZ",
    "CCZ", "MX", "->", "#", "0", "1", "3", "-1", "65537", "1048577", "0..1",
    "1..0", "4000000000", "c0", "c1", "c0=0", "c0=2", "c\u00b2", "\u00b2",
    "\u0663", "c" + "9" * 5000, "a", "a b", "\u2028", "\x85",
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    st.one_of(
        st.binary(max_size=64),
        st.lists(
            st.lists(st.sampled_from(_KMX_TOKENS), max_size=5).map(" ".join),
            max_size=6,
        ).map(lambda lines: "".join(f"{line}\n" for line in ["qubits 2", "cbits 2", *lines])
              .encode()),
    )
)
@example(_TEMP_AND_GOLDEN)
@example(b"qubits 2\ncbits 2\nmeta a b\nin a 0..1\nMX 0 -> c1\nIF c1=0 X 1\n")
def test_parse_of_any_bytes_raises_only_a_one_line_parse_error(data: bytes) -> None:
    try:
        circuit = parse(data)
    except ParseError as exc:
        assert len(str(exc).splitlines()) == 1
    else:
        assert serialize(circuit) == data
        assert parse(serialize(circuit)) == circuit


# Two measurements, so that a gate after them may read c0 or c1.
_MEASURED = (Gate("MX", (0,), cbit=0), Gate("MX", (1,), cbit=1))
_MEASURED_TEXT = "qubits 4\ncbits 3\nMX 0 -> c0\nMX 1 -> c1\n"


def _refusal(gate: Gate, line: str | None = None) -> CircuitError:
    """Circuit's error for ``gate`` after _MEASURED, which must name the
    gate; ``line``, the gate's .kmx spelling, must fail on its own line."""
    with pytest.raises(CircuitError) as excinfo:
        Circuit(qubit_count=4, classical_bit_count=3, gates=(*_MEASURED, gate))
    exc = excinfo.value
    assert type(exc) is CircuitError and exc.gate == 2
    if line is not None:
        with pytest.raises(ParseError) as parsed:
            parse(f"{_MEASURED_TEXT}{line}\n")
        # header_lines (2) + gate (2) + 1
        assert (parsed.value.line, parsed.value.column) == (5, 1)
        assert str(parsed.value) == f"line 5, column 1: {exc}"
    return exc


def test_gate_validation() -> None:
    for gate, line, message in (
        (Gate("H", (0,)), "H 0", "unknown gate kind 'H'"),
        (Gate("CX", (0,)), "CX 0", "CX takes 2 qubit operand(s), got 1"),
        (Gate("CCX", (0, 1, 1)), "CCX 0 1 1", "duplicate operand in CCX (0, 1, 1)"),
        (Gate("X", (-1,)), None, "negative qubit index"),
        (Gate("MX", (0,)), "MX 0", "MX requires a destination classical bit"),
        (Gate("X", (0,), cbit=0), "X 0 -> c0", "X does not write a classical bit"),
        (Gate("Z", (0,), condition=(0, 2)), None, "bad condition (0, 2)"),
    ):
        assert str(_refusal(gate, line)) == message


def test_direct_gate_construction_keeps_each_rule_message() -> None:
    # the gate rules of the validation walk, in the order its checks run; a
    # Gate itself is a plain record and refuses nothing
    for args, kwargs, line, message in (
        (("H", (0,)), {}, "H 0", "unknown gate kind 'H'"),
        (("H", ()), {}, None, "unknown gate kind 'H'"),
        (("CX", (0,)), {}, "CX 0", "CX takes 2 qubit operand(s), got 1"),
        (("CX", (0, 0, 1)), {}, "CX 0 0 1", "CX takes 2 qubit operand(s), got 3"),
        (("CCX", (0, 1, 1)), {}, "CCX 0 1 1", "duplicate operand in CCX (0, 1, 1)"),
        (("CX", (-1, -1)), {}, None, "duplicate operand in CX (-1, -1)"),
        (("X", (-1,)), {}, None, "negative qubit index"),
        (("CCZ", (2, 0, -3)), {}, None, "negative qubit index"),
        (("MX", (-1,)), {}, None, "negative qubit index"),
        (("MX", (0,)), {}, "MX 0", "MX requires a destination classical bit"),
        (("MX", (0,)), {"condition": (0, 1)}, "IF c0 MX 0",
         "MX requires a destination classical bit"),
        (("MX", (0,)), {"cbit": 2, "condition": (0, 1)}, "IF c0 MX 0 -> c2",
         "measurements cannot be conditioned"),
        (("X", (0,)), {"cbit": 0}, "X 0 -> c0", "X does not write a classical bit"),
        (("CZ", (0, 1)), {"cbit": 0, "condition": (0, 2)}, None,
         "CZ does not write a classical bit"),
        (("Z", (0,)), {"condition": (0, 2)}, None, "bad condition (0, 2)"),
        (("Z", (0,)), {"condition": (-1, 1)}, None, "bad condition (-1, 1)"),
    ):
        gate = Gate(*args, **kwargs)
        assert gate == (*args, kwargs.get("cbit"), kwargs.get("condition"))
        assert str(_refusal(gate, line)) == message


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("MX", (0,)), {"cbit": -1}, "bad MX destination -1"),
        (("MX", (0,)), {"cbit": True}, "bad MX destination True"),
        (("MX", (0,)), {"cbit": 1.0}, "bad MX destination 1.0"),
        (("MX", (0,)), {"cbit": "0"}, "bad MX destination '0'"),
        (("X", (0,)), {"condition": (0.0, 1)}, "bad condition (0.0, 1)"),
        (("X", (0,)), {"condition": (True, 1)}, "bad condition (True, 1)"),
        (("X", (0,)), {"condition": (0, True)}, "bad condition (0, True)"),
        (("X", (0,)), {"condition": [0, 1]}, "bad condition [0, 1]"),
        (("X", (0,)), {"condition": (0, 1, 1)}, "bad condition (0, 1, 1)"),
        (("X", (True,)), {}, "X operand of type bool, not int"),
        (("CX", (0, 1.0)), {}, "CX operand of type float, not int"),
        (("CX", (0, [1])), {}, "CX operand of type list, not int"),
        (("X", [0]), {}, "X operands must be a tuple, not list"),
        (("CX", range(2)), {}, "CX operands must be a tuple, not range"),
    ],
)
def test_gate_refuses_what_would_not_round_trip(args, kwargs, message) -> None:
    # Each would serialize to a line that parse refuses or reads back as a
    # different gate, so Circuit refuses it.
    assert str(_refusal(Gate(*args, **kwargs))) == message


def test_replace_on_a_gate_revalidates() -> None:
    gate = Gate("CX", (0, 1))
    assert gate._replace(qubits=(1, 0)) == Gate("CX", (1, 0))
    flipped = Gate("Z", (0,), condition=(0, 1))
    assert flipped._replace(condition=(0, 0)).condition == (0, 0)
    circuit = Circuit(qubit_count=2, classical_bit_count=1, gates=(*_MEASURED[:1], gate))
    for changes, message in (
        ({"qubits": (1, 1)}, "duplicate operand in CX (1, 1)"),
        ({"kind": "MX"}, "MX takes 1 qubit operand(s), got 2"),
        ({"cbit": 0}, "CX does not write a classical bit"),
        ({"condition": (0, 2)}, "bad condition (0, 2)"),
    ):
        with pytest.raises(CircuitError) as excinfo:
            circuit._replace(gates=(*_MEASURED[:1], gate._replace(**changes)))
        assert (str(excinfo.value), excinfo.value.gate) == (message, 1)
    with pytest.raises(AttributeError):
        gate.kind = "X"  # type: ignore[misc]
    assert not hasattr(gate, "__dict__")


_ARITIES = {"X": 1, "CX": 2, "CCX": 3, "Z": 1, "CZ": 2, "CCZ": 3, "MX": 1}


def _first_bad_gate(gates, qubit_count: int, cbit_count: int) -> int | None:
    """The first gate that breaks a rule, found without the validation walk."""
    def naturals(*values) -> bool:
        return all(type(v) is int and v >= 0 for v in values)

    written: set[int] = set()
    for i, (kind, qubits, cbit, condition) in enumerate(gates):
        if not (
            kind in _ARITIES
            and type(qubits) is tuple
            and len(qubits) == _ARITIES[kind]
            and naturals(*qubits)
            and len(set(qubits)) == len(qubits)
            and max(qubits) < qubit_count
        ):
            return i
        if kind == "MX":
            if condition is not None or not naturals(cbit) or cbit >= cbit_count:
                return i
            if cbit in written:
                return i
            written.add(cbit)
        elif cbit is not None or condition is not None and not (
            type(condition) is tuple
            and len(condition) == 2
            and naturals(*condition)
            and condition[1] <= 1
            and condition[0] in written
        ):
            return i
    return None


# operand tuples of each kind, each shared by every gate that draws it, as
# a caller's gate list may share them
_GOOD_OPERANDS = {kind: [tuple(range(n)), tuple(range(4 - n, 4))] for kind, n in _ARITIES.items()}
_HUGE = 10**5000  # str() refuses an int this long
_BAD_OPERANDS = [(), (1, 1), (-1,), (0, 4), (True,), (0, 1.0), (0, [1]), [0], [0, 1],
                 (_HUGE,), (_HUGE, _HUGE)]
_BAD_CBITS = [None, -1, True, 1.0, 0, 4, _HUGE]
_BAD_CONDITIONS = [(True, 1), (0, True), (0.0, 1), (0, 2), (-1, 1), [0, 1], (0,), (0, 1, 1),
                   (_HUGE, 1), (0, _HUGE)]


@st.composite
def _odd_gates(draw) -> list[Gate]:
    """Gates, mostly good, some with a bad kind, operand, cbit or condition,
    which may hold an int too long for str().
    Gates of one kind that draw the same operands share one tuple object, so
    a bad gate often repeats the kind and operands of a good one; a bad kind
    may share another kind's tuple, or be an equal string that is another
    object."""
    gates: list[Gate] = []
    measured = 0  # the next classical bit to write; the circuit has 4
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["X", "CX", "CZ", "CCZ", "MX", "MX"]))
        qubits = _GOOD_OPERANDS[kind][draw(st.integers(0, 7)) // 7]
        cbit = condition = None
        if kind == "MX":
            cbit = measured
            measured += 1
        elif measured and draw(st.booleans()):
            condition = (draw(st.integers(0, measured - 1)), draw(st.integers(0, 1)))
        fault = draw(st.sampled_from([None] * 20 + ["kind", "qubits", "cbit", "condition"]))
        if fault == "kind":
            kind = draw(st.sampled_from(["H", "".join(list(kind)), "CX", "MX", _HUGE]))
        elif fault == "qubits":
            qubits = draw(st.sampled_from([*_BAD_OPERANDS, tuple(list(qubits))]))
        elif fault == "cbit":
            cbit = draw(st.sampled_from(_BAD_CBITS))
        elif fault == "condition":
            condition = draw(st.sampled_from([*_BAD_CONDITIONS, (measured, 0), (measured, 1)]))
        gates.append(Gate(kind, qubits, cbit, condition))
    return gates


_CX, _MX = _GOOD_OPERANDS["CX"][0], _GOOD_OPERANDS["MX"][0]


def _after_good_gates(*bad: Gate) -> list[Gate]:
    """Gates that measure c0 and c1 and use the CX and MX operand tuples,
    then ``bad``: gates whose operand tuples the walk has checked."""
    return [Gate("MX", _MX, 0), Gate("MX", _MX, 1), Gate("CX", _CX), *bad]


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(_odd_gates())
@example([Gate("CX", (0, 1)), Gate("CX", (0, True))])
@example([Gate("MX", (0,), 0), Gate("CZ", (1, 2), condition=(True, 1))])
# a known operand tuple with a bad kind, cbit or condition
@example(_after_good_gates(Gate("MX", _CX, 2)))
@example(_after_good_gates(Gate("MX", _MX)))
@example(_after_good_gates(Gate("MX", _MX, 1)))
@example(_after_good_gates(Gate("MX", _MX, 4)))
@example(_after_good_gates(Gate("MX", _MX, True)))
@example(_after_good_gates(Gate("MX", _MX, 2, (0, 1))))
@example(_after_good_gates(Gate("CX", _CX, 2)))
@example(_after_good_gates(Gate("CX", _CX, condition=(True, 1))))
@example(_after_good_gates(Gate("CX", _CX, condition=(0, 2))))
@example(_after_good_gates(Gate("CX", _CX, condition=(2, 1))))
def test_circuit_refuses_the_first_bad_gate_or_round_trips(gates) -> None:
    bad = _first_bad_gate(gates, qubit_count=4, cbit_count=4)
    try:
        circuit = Circuit(qubit_count=4, classical_bit_count=4, gates=gates)
    except CircuitError as exc:
        assert type(exc) is CircuitError and exc.gate == bad is not None
        assert "\n" not in str(exc) and len(str(exc)) < 200
    else:
        assert bad is None
        assert parse(serialize(circuit)) == circuit
        _assert_facts_hold(circuit)


def test_circuit_refuses_an_entry_that_is_not_a_gate() -> None:
    good = Gate("X", (0,))
    for entry, message in (
        ("X 0", "is a str, not a Gate"),
        (("X", (0,), None, None), "is a tuple, not a Gate"),  # equal to good
        (type("G" * 40, (tuple,), {})(good), "is a " + "G" * 20 + "\u2026, not a Gate"),
        (None, "is a NoneType, not a Gate"),
    ):
        for gates, i in (((entry,), 0), ((good, good, entry, good), 2)):
            with pytest.raises(CircuitError) as excinfo:
                Circuit(qubit_count=1, gates=gates)
            assert (str(excinfo.value), excinfo.value.gate) == (f"gate {i} {message}", i)


def test_register_validation() -> None:
    assert Register("sum", 0, 3).width == 4
    with pytest.raises(CircuitError, match="bad register name"):
        Register("bad name", 0, 0)
    with pytest.raises(CircuitError, match="bad register range"):
        Register("a", 3, 1)
    with pytest.raises(CircuitError, match="bad register range"):
        Register("a", -1, 0)
    # exact types, so that serialize writes what parse reads back
    for args, message in (
        (("a", 0.0, 1.5), "register bound of type float, not int"),
        (("a", 0, True), "register bound of type bool, not int"),
        ((5, 0, 0), "register name of type int, not str"),
        ((None, 0, 0), "register name of type NoneType, not str"),
    ):
        with pytest.raises(CircuitError) as excinfo:
            Register(*args)
        assert type(excinfo.value) is CircuitError and str(excinfo.value) == message


def test_circuit_validation() -> None:
    with pytest.raises(CircuitError, match="negative qubit or classical bit count"):
        Circuit(qubit_count=-1)
    with pytest.raises(CircuitError, match="exceeds qubit count"):
        Circuit(qubit_count=1, inputs=(Register("a", 0, 1),))
    # registers are disjoint within each spec; an input register may be an output too
    a, b = Register("a", 0, 2), Register("b", 2, 3)
    for spec, message in (("inputs", "in register 'b' overlaps qubit 2 already covered by "
                                     "another in register"),
                          ("outputs", "out register 'b' overlaps qubit 2 already covered by "
                                      "another out register")):
        with pytest.raises(CircuitError) as excinfo:
            Circuit(qubit_count=4, **{spec: (a, b)})
        assert str(excinfo.value) == message
    assert Circuit(qubit_count=4, inputs=(a,), outputs=(a, Register("b", 3, 3))).outputs[0] == a
    with pytest.raises(CircuitError, match="uses qubit 5 but the circuit has 1"):
        Circuit(qubit_count=1, gates=(Gate("X", (5,)),))
    long_type = type("T" * 40, (int,), {})
    for changes, message in (
        ({"qubit_count": 2.0}, "qubit count of type float, not int"),
        ({"qubit_count": True}, "qubit count of type bool, not int"),
        ({"qubit_count": "3"}, "qubit count of type str, not int"),
        ({"qubit_count": long_type(1)}, "qubit count of type " + "T" * 20 + "\u2026, not int"),
        ({"classical_bit_count": 1.0}, "classical bit count of type float, not int"),
        ({"metadata": {"a": 5}}, "metadata value for 'a' of type int, not str"),
        ({"metadata": {5: "x"}}, "metadata key of type int, not str"),
        ({"inputs": (("a", 0, 0),)}, "in register 0 is a tuple, not a Register"),
        ({"outputs": (Register("a", 0, 0), "b")}, "out register 1 is a str, not a Register"),
        ({"metadata": None}, "metadata of type NoneType, not dict"),
        ({"metadata": [("a", "b")]}, "metadata of type list, not dict"),
        ({"inputs": 5}, "circuit inputs of type int, not tuple or list"),
        ({"outputs": 5}, "circuit outputs of type int, not tuple or list"),
        ({"gates": 5}, "circuit gates of type int, not tuple or list"),
        ({"gates": None}, "circuit gates of type NoneType, not tuple or list"),
        ({"gates": iter(())}, "circuit gates of type tuple_iterator, not tuple or list"),
        ({"inputs": {Register("a", 0, 0): 1}}, "circuit inputs of type dict, not tuple or list"),
        ({"gates": type("G" * 40, (tuple,), {})()},
         "circuit gates of type " + "G" * 20 + "\u2026, not tuple or list"),
    ):
        with pytest.raises(CircuitError) as excinfo:
            Circuit(**{"qubit_count": 1, **changes})
        assert type(excinfo.value) is CircuitError and str(excinfo.value) == message
        assert excinfo.value.gate is None
    listed = Circuit(qubit_count=1, inputs=[Register("a", 0, 0)], gates=[Gate("X", (0,))])
    assert listed.inputs == (Register("a", 0, 0),) and listed.gates == (Gate("X", (0,)),)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"gates": (Gate("X", (_HUGE,)),)},
         "qubit 10000000000000000000\u2026 out of range: gate 0 (X) uses qubit "
         "10000000000000000000\u2026 but the circuit has 1"),
        ({"gates": (Gate("CX", (_HUGE, _HUGE)),)},
         "duplicate operand in CX (1000000000000000000\u2026"),
        ({"gates": (Gate("MX", (0,), _HUGE),)},
         "classical bit c10000000000000000000\u2026 out of range: gate 0 (MX) uses "
         "c10000000000000000000\u2026 but the circuit has 1"),
        ({"gates": (Gate("MX", (0,), -_HUGE),)}, "bad MX destination -1000000000000000000\u2026"),
        ({"gates": (Gate("X", (0,), condition=(_HUGE, 1)),)},
         "classical bit c10000000000000000000\u2026 out of range: gate 0 (X) uses "
         "c10000000000000000000\u2026 but the circuit has 1"),
        ({"gates": (Gate("X", (0,), condition=(0, _HUGE)),)},
         "bad condition (0, 1000000000000000\u2026"),
        ({"gates": (Gate(_HUGE, (0,)),)}, "unknown gate kind 10000000000000000000\u2026"),
        ({"qubit_count": _HUGE}, "10000000000000000000\u2026 qubits exceed the ceiling 65536"),
        ({"classical_bit_count": _HUGE},
         "10000000000000000000\u2026 classical bits exceed the ceiling 1048576"),
        ({"inputs": (Register("a", 0, _HUGE),)},
         "in register 'a' range 0..10000000000000000000\u2026 exceeds qubit count 1"),
    ],
)
def test_huge_integers_are_refused_in_one_short_line(changes, message) -> None:
    # str() refuses an int of over 4300 digits; the message shows its first 20
    with pytest.raises(CircuitError) as excinfo:
        Circuit(**{"qubit_count": 1, "classical_bit_count": 1, **changes})
    assert type(excinfo.value) is CircuitError and str(excinfo.value) == message
    assert excinfo.value.gate == (0 if "gates" in changes else None)


def test_huge_register_range_is_refused_in_one_short_line() -> None:
    with pytest.raises(CircuitError) as excinfo:
        Register("a", _HUGE, 0)
    assert str(excinfo.value) == "bad register range 10000000000000000000\u2026..0"


def test_shown_cuts_any_value_without_raising() -> None:
    shown = circuit_module._shown
    rng = random.Random(7)
    for digits in [*range(1, 80), *rng.sample(range(80, 4300), 200)]:
        for n in (10 ** (digits - 1), 10**digits - 1, rng.randrange(10**digits)):
            for value in (n, -n):
                text = str(value)
                assert shown(value) == (text if len(text) <= 20 else text[:20] + "\u2026")
    for value in ((0, 1, 1), (0,), (), [0, 1], ((1, 2), 3), (1,) * 1000, True, 1.5, "a'b" * 9):
        text = repr(value)
        assert shown(value, repr) == (text if len(text) <= 20 else text[:20] + "\u2026")

    class Unprintable:
        def __repr__(self) -> str:
            raise RuntimeError("no repr")

    nested: tuple = ()
    for _ in range(200):
        nested = (nested, nested)  # 2**200 leaves, shared
    assert shown((Unprintable(), 1), repr) == "(<Unprintable>, 1)"
    assert shown(nested) == "(" * 20 + "\u2026"
    assert shown(10**200_000) == "1" + "0" * 19 + "\u2026"


@pytest.mark.parametrize(
    "separator", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                  "\u2028", "\u2029"],
)
def test_metadata_values_hold_no_line_break(separator: str) -> None:
    # str.splitlines breaks at each of these, so serialize would write a
    # value that parse cannot read back
    value = f"a{separator}b"
    with pytest.raises(CircuitError) as excinfo:
        Circuit(qubit_count=1, metadata={"k": value})
    assert str(excinfo.value) == f"bad metadata value for 'k': {value!r}"
    if "\n" not in separator:
        with pytest.raises(ParseError) as excinfo:
            parse(f"qubits 1\ncbits 0\nmeta k {value}\n")
        assert str(excinfo.value) == f"line 1, column 1: bad metadata value for 'k': {value!r}"
    spaced = Circuit(qubit_count=1, metadata={"k": "a\tb\u00a0c  d"})
    assert parse(serialize(spaced)) == spaced


def test_replace_gates_revalidates_and_keeps_headers() -> None:
    circuit = build_temp_and().circuit
    trimmed = circuit._replace(gates=circuit.gates[:1])
    assert trimmed.metadata == circuit.metadata
    assert trimmed.inputs == circuit.inputs
    assert len(trimmed.gates) == 1
    with pytest.raises(CircuitError):
        circuit._replace(gates=(Gate("X", (99,)),))


def _random_circuit(rng: random.Random) -> Circuit:
    """A structurally valid circuit with random gates and conditions."""
    qubit_count = rng.randint(3, 8)
    mx_budget = rng.randint(0, 3)
    gates: list[Gate] = []
    written: list[int] = []
    next_cbit = 0
    for _ in range(rng.randint(1, 25)):
        kind = rng.choice(("X", "CX", "CCX", "Z", "CZ", "CCZ", "MX"))
        if kind == "MX" and next_cbit >= mx_budget:
            kind = "X"
        arity = {"X": 1, "CX": 2, "CCX": 3, "Z": 1, "CZ": 2, "CCZ": 3, "MX": 1}[kind]
        qubits = tuple(rng.sample(range(qubit_count), arity))
        if kind == "MX":
            gates.append(Gate("MX", qubits, cbit=next_cbit))
            written.append(next_cbit)
            next_cbit += 1
            continue
        condition = None
        if written and rng.random() < 0.3:
            condition = (rng.choice(written), rng.randint(0, 1))
        gates.append(Gate(kind, qubits, condition=condition))
    return Circuit(
        qubit_count=qubit_count,
        classical_bit_count=next_cbit,
        inputs=(Register("data", 0, qubit_count - 1),),
        outputs=(Register("data", 0, qubit_count - 1),),
        gates=tuple(gates),
        metadata={"seed": str(rng.getstate()[1][0])},
    )


def test_random_circuits_round_trip_through_text() -> None:
    for seed in range(50):
        rng = random.Random(seed)
        circuit = _random_circuit(rng)
        raw = serialize(circuit)
        again = parse(raw)
        assert again == circuit, f"seed {seed}"
        assert serialize(again) == raw, f"seed {seed}"
        _assert_facts_hold(circuit)


def test_unicode_whitespace_and_line_breaks_are_refused() -> None:
    plain = "qubits 3\ncbits 1\nmeta k v\nin a 0..1\nCCX 0 1 2\nMX 2 -> c0\nIF c0=0 CZ 0 1\n"
    assert serialize(parse(plain)) == plain.encode()
    lines = plain.splitlines(keepends=True)
    for lineno, line in enumerate(lines, start=1):
        for at in [i for i, ch in enumerate(line) if ch == " "]:
            for odd in ("\t", "\u00a0", "\u2003", "\u3000", "\r", "\x0b", "\x1c", "\x85",
                        "\u2028"):
                spaced = "".join([*lines[: lineno - 1], line[:at] + odd + line[at + 1 :],
                                  *lines[lineno:]])
                with pytest.raises(ParseError) as excinfo:
                    parse(spaced)
                # a metadata key holds no whitespace, a rule of the validation walk
                # reported at line 1
                key = line.startswith("meta ") and at == 6
                assert excinfo.value.line == (1 if key else lineno), repr(spaced)


# ---------------------------------------------------------------------------
# the one spelling of a gate line


def _shape(line: str) -> tuple[str, bool, bool]:
    """A canonical gate line's shape: opcode and operands, "->", IF."""
    core = re.sub("^IF c[0-9]+(=0)? ", "", line).split(" -> ")[0]
    return core, " -> " in line, line.startswith("IF ")


@st.composite
def _canonical_gate_line(draw) -> str:
    kind = draw(st.sampled_from(sorted(_ARITIES)))
    qubits = draw(st.lists(st.integers(0, 5), min_size=_ARITIES[kind],
                           max_size=_ARITIES[kind], unique=True))
    line = " ".join([kind, *map(str, qubits)])
    if kind == "MX":
        return f"{line} -> c{draw(st.integers(2, 30))}"
    if draw(st.booleans()):
        cb = draw(st.integers(0, 2))  # c2 is written only if an MX line writes it
        line = f"IF c{cb}{draw(st.sampled_from(['', '=0']))} {line}"
    return line


@st.composite
def _gate_line(draw) -> tuple[str, bool]:
    """A gate line, and whether it is spelled other than serialize spells it."""
    line = draw(_canonical_gate_line())
    how = draw(st.sampled_from(["as is"] * 4 + ["space", "trailing", "digit", "long",
                                                 "zero", "one", "broken"]))
    if how == "space":  # a tab, a double space or an ideographic space
        at = draw(st.sampled_from([i for i, ch in enumerate(line) if ch == " "]))
        line = line[:at] + draw(st.sampled_from(["\t", "  ", "\u3000"])) + line[at + 1:]
    elif how == "trailing":
        line += " "
    elif how in ("digit", "long", "zero"):  # one integer spelled another way
        number = draw(st.sampled_from(list(re.finditer("[0-9]+", line))))
        spelled = {"digit": "\u0661", "long": "12345678", "zero": "0" + number[0]}[how]
        line = line[: number.start()] + spelled + line[number.end():]
    elif how == "one":  # the condition on 1, spelled with its "=1"
        line = f"IF c{draw(st.integers(0, 2))}=1 {_shape(line)[0]}"
    elif how == "broken":  # spelled right, but refused by a rule (or not, for MX)
        q = draw(st.integers(0, 5))
        core = _shape(line)[0]
        line = draw(st.sampled_from([
            f"IF c0 MX {q} -> c{q + 2}",
            f"MX {q}",
            f"{core} -> c{q + 2}",
            f"CX {q} {q}",
        ]))
    return line, how not in ("as is", "broken")


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.lists(_gate_line(), min_size=1, max_size=12))
# a line of a known shape whose bits the pattern must refuse or keep apart
@example([("MX 0 -> c12345678", True)])
@example([("MX 0 -> c\u0661", True)])
@example([("IF c0 CX 1 2", False), ("IF c0=1 CX 1 2", True)])
@example([("IF c0=0 CX 1 2", False), ("IF c1 CX 1 2", False), ("CX 1 2", False)])
@example([("CX 1 2", False), ("CX 1 02", True)])
@example([("MX 2 -> c5", False), ("MX 2 -> c05", True)])
@example([("CX 1 2", False), ("CX 1 2 -> c3", False)])
def test_gate_lines_parse_only_in_their_canonical_spelling(lines) -> None:
    head = ["qubits 6", "cbits 31", "MX 0 -> c0", "MX 1 -> c1"]
    text = "".join(f"{line}\n" for line in [*head, *(line for line, _ in lines)])
    respelled = [i for i, (_, odd) in enumerate(lines, start=len(head) + 1) if odd]
    try:
        circuit = parse(text)
    except ParseError as exc:
        # spelling is checked line by line, the validation walk after
        assert not respelled or exc.line <= respelled[0]
    else:
        assert not respelled
        assert serialize(circuit) == text.encode()


def test_gate_rules_run_once_per_distinct_operand_tuple(toy1009, monkeypatch) -> None:
    checks = 0
    checked = circuit_module._operand_error

    def counting(*args):
        nonlocal checks
        checks += 1
        return checked(*args)

    monkeypatch.setattr(circuit_module, "_operand_error", counting)
    built = build_pointadd_permutation(toy1009, toy1009.generator).circuit
    tuples = {id(gate.qubits) for gate in built.gates}
    assert (checks, len(tuples), len(built.gates)) == (242, 242, 94080)
    raw = serialize(built)
    checks = 0
    circuit = parse(raw)
    assert checks == len({id(gate.qubits) for gate in circuit.gates}) == 242
    monkeypatch.undo()
    assert circuit == built
    for gate in circuit.gates:
        again = Gate(gate.kind, gate.qubits, gate.cbit, gate.condition)
        assert gate == again and repr(gate) == repr(again)
    assert serialize(circuit) == raw


def test_replace_on_a_copied_gate_revalidates() -> None:
    circuit = parse("qubits 3\ncbits 2\nMX 0 -> c0\nMX 0 -> c1\n"
                    "IF c0 CX 1 2\nIF c1=0 CX 1 2\n")
    measure, conditioned = circuit.gates[1], circuit.gates[3]  # second of each shape
    assert (measure.cbit, conditioned.condition) == (1, (1, 0))
    assert measure.qubits is circuit.gates[0].qubits  # one tuple per shape
    assert measure._replace(cbit=5) == Gate("MX", (0,), cbit=5)
    for i, changes, message in (
        (1, {"cbit": None}, "MX requires a destination classical bit"),
        (1, {"condition": (0, 1)}, "measurements cannot be conditioned"),
        (3, {"condition": (1, 2)}, "bad condition (1, 2)"),
        (3, {"cbit": 0}, "CX does not write a classical bit"),
        (3, {"qubits": (2, 2)}, "duplicate operand in CX (2, 2)"),
    ):
        gates = list(circuit.gates)
        gates[i] = gates[i]._replace(**changes)
        with pytest.raises(CircuitError) as excinfo:
            circuit._replace(gates=gates)
        assert (str(excinfo.value), excinfo.value.gate) == (message, i)
    with pytest.raises(AttributeError):
        measure.cbit = 3  # type: ignore[misc]


# ---------------------------------------------------------------------------
# the facts the validation walk records


def _recount(circuit: Circuit) -> tuple:
    """A circuit's facts counted from scratch over (condition, kind) pairs,
    with each step mask as a dict entry: the count the lane pass once made
    on every pass."""
    by_kind = Counter(map(itemgetter(3, 0), circuit.gates))
    order = [gate.cbit for gate in circuit.gates if gate.kind == "MX"]  # by position
    executed = []
    for kinds in (GATE_KINDS, NON_CLIFFORD_KINDS):
        constant, steps, masks = 0, {}, {}
        for (condition, kind), n in by_kind.items():
            if kind in kinds and (condition is None or condition[1] == 0):
                constant += n
            if kind in kinds and condition is not None:
                cb, value = condition
                steps[cb] = steps.get(cb, 0) + (n if value else -n)
        for cb, step in steps.items():
            if step:
                masks[step] = masks.get(step, 0) | 1 << (len(order) - 1 - order.index(cb))
        executed.append((constant, masks))
    conditioned = frozenset(kind for condition, kind in by_kind if condition is not None)
    return (Counter(map(itemgetter(0), circuit.gates)), order, conditioned, executed)


def _assert_facts_hold(circuit: Circuit) -> None:
    facts = circuit.facts
    assert list(facts.measured.values()) == list(range(len(facts.measured)))
    executed = [(constant, dict(steps)) for constant, steps in facts.executed]
    assert (facts.kinds, list(facts.measured), facts.conditioned_kinds, executed) == (
        _recount(circuit)
    )
    kinds = [gate.kind for gate in circuit.gates]
    assert static_resources(circuit) == StaticResources(
        circuit.qubit_count, len(kinds), kinds.count("CCX") + kinds.count("CCZ"),
        kinds.count("MX"),
    )


def test_facts_equal_a_recount_on_every_builder_output(toy11, toy61, toy1009) -> None:
    reports = [
        build_temp_and(), build_mod_add_const(4, 5, 11), build_lookup([5, 0, 7, 3]),
        build_lookup([1, 2, 3, 4, 5, 6, 7, 0], entry_bits=4),
        *(build_adder(width) for width in (1, 2, 5)),
        *(build_pointadd_permutation(curve, curve.generator) for curve in (toy11, toy61, toy1009)),
        *(build_windowed_pointadd(curve, curve.generator, w) for curve in (toy11, toy61)
          for w in (1, 2)),
    ]
    for report in reports:
        _assert_facts_hold(report.circuit)
        assert report.predicted == static_resources(report.circuit)


def test_facts_equal_a_recount_on_mutants(pointadd11, toy61) -> None:
    windowed = build_windowed_pointadd(toy61, toy61.generator, 2).circuit
    for circuit in (pointadd11.circuit, windowed):
        for seed in range(50):
            _assert_facts_hold(mutate(circuit, seed))


def test_facts_of_conditions_on_zero_and_conditioned_non_clifford_gates() -> None:
    circuit = parse(
        "qubits 4\ncbits 3\nMX 0 -> c0\nMX 1 -> c1\nMX 2 -> c2\n"
        "IF c0=0 CCX 1 2 3\nIF c0 CCZ 1 2 3\nIF c1=0 CCZ 0 1 2\nIF c1=0 CZ 0 1\n"
        "IF c2 X 3\nCCX 0 1 2\n"
    )
    _assert_facts_hold(circuit)
    facts = circuit.facts
    assert facts.measured == {0: 0, 1: 1, 2: 2}
    assert facts.conditioned_kinds == {"CCX", "CCZ", "CZ", "X"}
    # c0's two gates cancel; c1 = 1 (word bit 1) skips two gates, c2 (bit 0) runs one
    assert [(constant, dict(steps)) for constant, steps in facts.executed] == [
        (7, {-2: 0b010, 1: 0b001}), (3, {-1: 0b010}),
    ]
    for word in range(8):
        ran = run(circuit, {}, [word >> 2 & 1, word >> 1 & 1, word & 1])
        counts = [constant + sum(step * (word & mask).bit_count() for step, mask in steps)
                  for constant, steps in facts.executed]
        assert counts == [ran.executed_total, ran.executed_non_clifford]


def test_a_circuit_is_frozen_and_replace_records_fresh_facts() -> None:
    circuit = parse("qubits 3\ncbits 2\nMX 0 -> c0\nMX 1 -> c1\nIF c0 CCX 0 1 2\n"
                    "IF c1=0 CZ 1 2\n")
    for name in ("qubit_count", "classical_bit_count", "inputs", "outputs", "gates",
                 "metadata", "facts"):
        with pytest.raises(AttributeError):
            setattr(circuit, name, getattr(circuit, name))
    trimmed = circuit._replace(gates=circuit.gates[:3])
    _assert_facts_hold(trimmed)
    assert trimmed.facts != circuit.facts
    assert trimmed.facts.conditioned_kinds == {"CCX"}
    assert static_resources(trimmed).total_gate_count == 3
    with pytest.raises(TypeError, match="facts"):
        circuit._replace(facts=trimmed.facts)
