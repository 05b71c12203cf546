"""Text format round-trips, canonical serialization, and parse diagnostics."""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    build_temp_and,
    build_windowed_pointadd,
    parse,
    serialize,
    static_resources,
)
import kickmix.circuit as circuit_module

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


def test_parse_tolerates_comments_blanks_and_odd_whitespace() -> None:
    messy = (
        "# leading comment\r\n"
        "\n"
        "   qubits   3\r\n"
        "cbits 1\n"
        "  # indented comment\n"
        "meta note written by hand, with   spaces\n"
        "in a 0..1\n"
        "\t\n"
        "CCX 0 1 2\n"
        "   MX 2 -> c0   \n"
        "IF c0 CZ 0 1\n"
    )
    circuit = parse(messy)
    assert circuit.qubit_count == 3
    assert circuit.metadata["note"] == "written by hand, with   spaces"
    assert len(circuit.gates) == 3
    assert serialize(parse(serialize(circuit))) == serialize(circuit)


def test_inline_comments_after_gates_are_rejected() -> None:
    with pytest.raises(ParseError):
        parse("qubits 2\nCX 0 1  # comments own their line\n")


def test_if_without_value_means_condition_on_one() -> None:
    base = "qubits 2\ncbits 1\nMX 0 -> c0\n"
    implicit = parse(base + "IF c0 Z 1\n")
    explicit = parse(base + "IF c0=1 Z 1\n")
    inverted = parse(base + "IF c0=0 Z 1\n")
    assert implicit.gates[-1].condition == (0, 1)
    assert explicit.gates[-1] == implicit.gates[-1]
    assert inverted.gates[-1].condition == (0, 0)
    # canonical spelling drops "=1" and keeps "=0"
    assert b"IF c0 Z 1" in serialize(implicit)
    assert b"IF c0=0 Z 1" in serialize(inverted)


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
        ("qubits 2\nBOGUS 0\n", 2, 1, "unknown opcode 'BOGUS'"),
        ("CX 0 1\n", 1, 1, "gate before the qubits line"),
        ("qubits 2\nqubits 3\n", 2, 1, "duplicate qubits line"),
        ("qubits 2\ncbits 1\ncbits 1\n", 3, 1, "duplicate cbits line"),
        ("qubits 2\ncbits 1\nMX 0\n", 3, 1, r"usage: MX q -> c<k>"),
        ("qubits 2\ncbits 1\nIF c0\n", 3, 4, "IF prefix without a gate"),
        ("qubits 1\ncbits 1\nIF c9 Z 0\n", 3, 1, "classical bit c9 out of range"),
        (
            "qubits 1\ncbits 1\nIF c0 Z 0\n",
            3,
            1,
            "condition on c0 before any measurement writes it",
        ),
        ("qubits 2\nCX 0 2\n", 2, 1, "qubit 2 out of range"),
        ("qubits two\n", 1, 8, "expected qubit count, got 'two'"),
        ("qubits 2\nCX 0 0\n", 2, 1, "duplicate operand"),
        ("qubits 2\nCX 0 1\nqubits 2\n", 3, 1, "header line 'qubits' after gates"),
        (
            "qubits 1\ncbits 1\nMX 0 -> c0\nMX 0 -> c0\n",
            4,
            1,
            "classical bit c0 written twice",
        ),
        (
            "qubits 1\ncbits 1\nIF c0 MX 0 -> c0\n",
            3,
            1,
            "measurements cannot be conditioned",
        ),
        ("qubits 1\nmeta k\n", 2, 1, "usage: meta key value"),
        ("", 1, 1, "missing qubits line"),
        ("qubits 1\nin a 0..0\nin a 0..0\n", 1, 1, "duplicate in register 'a'"),
        ("qubits 2\nin a 0..3\n", 1, 1, "exceeds qubit count"),
        ("qubits 2\nX 0 -> c0\n", 2, 1, "X does not write a classical bit"),
        ("cbits 1\n", 1, 1, "'cbits' before the qubits line"),
        (
            "qubits 1\ncbits 1\nMX 0 -> c0\nIF c0=2 Z 0\n",
            4,
            4,
            "condition value must be 0 or 1",
        ),
        # The line of a gate error comes from the source, not the gate count.
        ("qubits 2\n\n# pair\nCX 0 1\n\n# bad\nCX 0 2\n", 7, 1, "qubit 2 out of range"),
        ("qubits 1\ncbits 1\nMX 0 -> c3\n", 3, 1, "classical bit c3 out of range"),
        # A gate error points at the first token of its line, even on an IF line.
        (
            "qubits 1\ncbits 1\nMX 0 -> c0\n   IF c0 Z 4\n",
            4,
            4,
            "qubit 4 out of range",
        ),
        ("qubits 1\ncbits 1\nIF c\u00b2 Z 0\n", 3, 4, "expected classical bit like c0"),
        ("qubits 1\ncbits 1\nMX 0 -> c\u00b2\n", 3, 9, "expected classical bit like c0"),
        pytest.param(
            "qubits 1\ncbits 1\nMX 0 -> c" + "1" * 5000 + "\n",
            3,
            9,
            "expected classical bit index",
            id="cref-of-5000-digits",
        ),
        ("qubits 65537\n", 1, 1, "65537 qubits exceed the ceiling 65536"),
        ("qubits 1\ncbits 1048577\n", 1, 1, "classical bits exceed the ceiling"),
        (b"qubits 1\nX 0\n# \xc3\n", 3, 3, "invalid UTF-8"),
        # Integers are ASCII digit strings only.
        ("qubits 1_0\n", 1, 8, "expected qubit count, got '1_0'"),
        ("qubits 4\nX \u0663\n", 2, 3, "expected qubit index, got '\u0663'"),
        ("qubits 4\nX +2\n", 2, 3, "expected qubit index, got '+2'"),
        ("qubits 2\nin a 0..+1\n", 2, 6, "expected register hi, got '+1'"),
        pytest.param(
            "qubits 1\nX " + "1" * 5000 + "\n",
            2,
            3,
            "expected qubit index, got '" + "1" * 20 + "\u2026'",
            id="qubit-of-5000-digits",
        ),
        # A repeated line that breaks a rule only at its later copy.
        (
            "qubits 1\ncbits 1\nX 0\nMX 0 -> c0\n\nX 0\nMX 0 -> c0\n",
            7,
            1,
            "gate 3 (MX): classical bit c0 written twice",
        ),
        # Register names and metadata values are cut like tokens.
        pytest.param(
            "qubits 1\nin a-" + "b" * 5000 + " 0..0\n",
            2,
            4,
            "bad register name 'a-" + "b" * 18 + "\u2026'",
            id="register-name-of-5002-characters",
        ),
        pytest.param(
            "qubits 1\n" + ("in " + "a" * 5000 + " 0..0\n") * 2,
            1,
            1,
            "duplicate in register '" + "a" * 20 + "\u2026'",
            id="duplicate-register-of-5000-characters",
        ),
        pytest.param(
            "qubits 1\nmeta exceptional " + "x" * 5000 + "\n",
            1,
            1,
            "exceptional policy '" + "x" * 20 + "\u2026' not in",
            id="policy-of-5000-characters",
        ),
        pytest.param(
            "qubits 1\nout " + "a" * 5000 + " 0..3\n",
            1,
            1,
            "out register '" + "a" * 20 + "\u2026' range 0..3 exceeds qubit count 1",
            id="register-of-5000-characters-out-of-range",
        ),
        # Integers have at most 7 digits, zero padding included.
        pytest.param(
            "qubits 1\nin a 0.." + "9" * 4000 + "\n",
            2,
            6,
            "expected register hi, got '" + "9" * 20 + "\u2026'",
            id="register-hi-of-4000-digits",
        ),
        pytest.param(
            "qubits 1\nX " + "9" * 4000 + "\n",
            2,
            3,
            "expected qubit index, got '" + "9" * 20 + "\u2026'",
            id="qubit-of-4000-digits",
        ),
        ("qubits 00000001\n", 1, 8, "expected qubit count, got '00000001'"),
        ("qubits 2\ncbits 1\nMX 0 -> c00000000\n", 3, 9, "expected classical bit index"),
        # Operand errors name the first bad operand, wherever it stands.
        ("qubits 4\nCCX 0 1 \u0663\n", 2, 9, "expected qubit index, got '\u0663'"),
        (
            "qubits 2\ncbits 1\nMX 0 -> c0\nIF c0 CX 0 x\n",
            4,
            12,
            "expected qubit index, got 'x'",
        ),
        ("qubits 2\ncbits 1\nMX -1 -> c0\n", 3, 4, "qubit index must be non-negative, got -1"),
        ("qubits 2\nCX 0 11111111\n", 2, 6, "expected qubit index, got '11111111'"),
        # Columns count characters, whatever whitespace separates the tokens.
        ("qubits 4\nCX\t0\u3000\u3000x\n", 2, 7, "expected qubit index, got 'x'"),
        ("qubits 2\n\u3000\tCX 0 5\n", 2, 3, "qubit 5 out of range"),
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
        ).map(lambda lines: "\n".join(["qubits 2", "cbits 2", *lines]).encode()),
    )
)
def test_parse_of_any_bytes_raises_only_a_one_line_parse_error(data: bytes) -> None:
    try:
        circuit = parse(data)
    except ParseError as exc:
        assert len(str(exc).splitlines()) == 1
    else:
        assert parse(serialize(circuit)) == circuit


def test_gate_validation() -> None:
    with pytest.raises(CircuitError, match="unknown gate kind 'H'"):
        Gate("H", (0,))
    with pytest.raises(CircuitError, match=r"CX takes 2 qubit operand\(s\), got 1"):
        Gate("CX", (0,))
    with pytest.raises(CircuitError, match="duplicate operand"):
        Gate("CCX", (0, 1, 1))
    with pytest.raises(CircuitError, match="negative qubit index"):
        Gate("X", (-1,))
    with pytest.raises(CircuitError, match="MX requires a destination classical bit"):
        Gate("MX", (0,))
    with pytest.raises(CircuitError, match="X does not write a classical bit"):
        Gate("X", (0,), cbit=0)
    with pytest.raises(CircuitError, match=r"bad condition \(0, 2\)"):
        Gate("Z", (0,), condition=(0, 2))


def test_direct_gate_construction_keeps_each_rule_message() -> None:
    # the rule table of Gate, in the order its checks run
    for args, kwargs, message in (
        (("H", (0,)), {}, "unknown gate kind 'H'"),
        (("H", ()), {}, "unknown gate kind 'H'"),
        (("CX", (0,)), {}, "CX takes 2 qubit operand(s), got 1"),
        (("CX", (0, 0, 1)), {}, "CX takes 2 qubit operand(s), got 3"),
        (("CCX", (0, 1, 1)), {}, "duplicate operand in CCX (0, 1, 1)"),
        (("CX", (-1, -1)), {}, "duplicate operand in CX (-1, -1)"),
        (("X", (-1,)), {}, "negative qubit index"),
        (("CCZ", (2, 0, -3)), {}, "negative qubit index"),
        (("MX", (-1,)), {}, "negative qubit index"),
        (("MX", (0,)), {}, "MX requires a destination classical bit"),
        (("MX", (0,)), {"condition": (0, 1)}, "MX requires a destination classical bit"),
        (("MX", (0,)), {"cbit": 0, "condition": (0, 1)}, "measurements cannot be conditioned"),
        (("X", (0,)), {"cbit": 0}, "X does not write a classical bit"),
        (("CZ", (0, 1)), {"cbit": 0, "condition": (0, 2)}, "CZ does not write a classical bit"),
        (("Z", (0,)), {"condition": (0, 2)}, "bad condition (0, 2)"),
        (("Z", (0,)), {"condition": (-1, 1)}, "bad condition (-1, 1)"),
    ):
        with pytest.raises(CircuitError) as excinfo:
            Gate(*args, **kwargs)
        assert type(excinfo.value) is CircuitError
        assert str(excinfo.value) == message
        assert excinfo.value.gate is None


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
    # different gate.
    with pytest.raises(CircuitError) as excinfo:
        Gate(*args, **kwargs)
    assert type(excinfo.value) is CircuitError
    assert str(excinfo.value) == message


def test_replace_on_a_gate_revalidates() -> None:
    gate = Gate("CX", (0, 1))
    assert dataclasses.replace(gate, qubits=(1, 0)) == Gate("CX", (1, 0))
    flipped = Gate("Z", (0,), condition=(0, 1))
    assert dataclasses.replace(flipped, condition=(0, 0)).condition == (0, 0)
    for changes, message in (
        ({"qubits": (1, 1)}, "duplicate operand in CX (1, 1)"),
        ({"kind": "MX"}, "MX takes 1 qubit operand(s), got 2"),
        ({"cbit": 0}, "CX does not write a classical bit"),
        ({"condition": (0, 2)}, "bad condition (0, 2)"),
    ):
        with pytest.raises(CircuitError) as excinfo:
            dataclasses.replace(gate, **changes)
        assert str(excinfo.value) == message
    with pytest.raises(dataclasses.FrozenInstanceError):
        gate.kind = "X"  # type: ignore[misc]
    assert not hasattr(gate, "__dict__")


def test_register_validation() -> None:
    assert Register("sum", 0, 3).width == 4
    with pytest.raises(CircuitError, match="bad register name"):
        Register("bad name", 0, 0)
    with pytest.raises(CircuitError, match="bad register range"):
        Register("a", 3, 1)
    with pytest.raises(CircuitError, match="bad register range"):
        Register("a", -1, 0)


def test_circuit_validation() -> None:
    with pytest.raises(CircuitError, match="negative qubit or classical bit count"):
        Circuit(qubit_count=-1)
    with pytest.raises(CircuitError, match="exceeds qubit count"):
        Circuit(qubit_count=1, inputs=(Register("a", 0, 1),))
    with pytest.raises(CircuitError, match="uses qubit 5 but the circuit has 1"):
        Circuit(qubit_count=1, gates=(Gate("X", (5,)),))


def test_replace_gates_revalidates_and_keeps_headers() -> None:
    circuit = build_temp_and().circuit
    trimmed = dataclasses.replace(circuit, gates=circuit.gates[:1])
    assert trimmed.metadata == circuit.metadata
    assert trimmed.inputs == circuit.inputs
    assert len(trimmed.gates) == 1
    with pytest.raises(CircuitError):
        dataclasses.replace(circuit, gates=(Gate("X", (99,)),))


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


def test_unicode_whitespace_separators_parse_like_single_spaces() -> None:
    plain = "qubits 3\ncbits 1\nin a 0..1\nCCX 0 1 2\nMX 2 -> c0\nIF c0=0 CZ 0 1\n"
    spaced = (
        "\u3000qubits\t3\n"
        "cbits\u00a01\n"
        "in\u2003a\u16800..1\n"
        "CCX\u30000\t1\u20032\n"
        "MX\u00a02\u202f->\u3000c0\u3000\n"
        "IF\tc0=0\u2003\u2003CZ 0\u00a01\n"
    )
    assert parse(spaced) == parse(plain)
    assert serialize(parse(spaced)) == plain.encode()


# ---------------------------------------------------------------------------
# the canonical-line pattern against the token path


def _token_path_parse(text: str) -> Circuit:
    """parse with the canonical-line pattern switched off, so that every line
    goes through the token code."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuit_module, "_GATE_LINE", lambda raw: None)
        return parse(text)


def _outcome(parse_text, text: str):
    try:
        circuit = parse_text(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return "circuit", circuit, repr(circuit.gates), serialize(circuit)


def _shape(line: str) -> tuple[str, bool, bool]:
    """A canonical gate line's shape: opcode and operands, "->", IF."""
    core = re.sub("^IF c[0-9]+(=[01])? ", "", line).split(" -> ")[0]
    return core, " -> " in line, line.startswith("IF ")


_ARITIES = {"X": 1, "CX": 2, "CCX": 3, "Z": 1, "CZ": 2, "CCZ": 3, "MX": 1}


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
        line = f"IF c{cb}{draw(st.sampled_from(['', '=0', '=1']))} {line}"
    return line


@st.composite
def _gate_line(draw) -> str:
    line = draw(_canonical_gate_line())
    how = draw(st.sampled_from(["as is"] * 4 + ["space", "trailing", "digit", "long",
                                                 "zero", "broken"]))
    if how == "space":  # a tab, a double space or an ideographic space
        at = draw(st.sampled_from([i for i, ch in enumerate(line) if ch == " "]))
        line = line[:at] + draw(st.sampled_from(["\t", "  ", "\u3000"])) + line[at + 1:]
    elif how == "trailing":
        line += " "
    elif how in ("digit", "long", "zero"):  # one integer spelled another way
        number = draw(st.sampled_from(list(re.finditer("[0-9]+", line))))
        spelled = {"digit": "\u0661", "long": "12345678", "zero": "0" + number[0]}[how]
        line = line[: number.start()] + spelled + line[number.end():]
    elif how == "broken":
        q = draw(st.integers(0, 5))
        core = _shape(line)[0]
        line = draw(st.sampled_from([
            f"IF c0=2 {core}",
            f"IF c0 MX {q} -> c{q + 2}",
            f"MX {q}",
            f"{core} -> c{q + 2}",
            f"CX {q} {q}",
            line.lower(),
            f"CCCX 0 1 2 {q}",
        ]))
    return line


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.lists(_gate_line(), min_size=1, max_size=12))
# a line of a known shape whose bits the pattern must refuse or keep apart
@example(["MX 0 -> c12345678"])
@example(["MX 0 -> c\u0661"])
@example(["IF c0 CX 1 2", "IF c0=2 CX 1 2", "IF c\u0661 CX 1 2"])
@example(["IF c0=0 CX 1 2", "IF c1 CX 1 2", "CX 1 2"])
@example(["MX 2 -> c5", "IF c0 MX 2 -> c6"])
@example(["CX 1 2", "CX 1 2 -> c3"])
def test_pattern_and_token_path_parse_gate_lines_alike(lines: list[str]) -> None:
    text = "\n".join(["qubits 6", "cbits 31", "MX 0 -> c0", "MX 1 -> c1", *lines]) + "\n"
    assert _outcome(parse, text) == _outcome(_token_path_parse, text)


def test_gate_rules_run_once_per_shape(toy61, monkeypatch) -> None:
    raw = serialize(build_windowed_pointadd(toy61, toy61.generator, 2).circuit)
    gate_lines = [line for line in raw.decode().splitlines()
                  if line.split(" ", 1)[0] not in ("qubits", "cbits", "meta", "in", "out")]
    shapes = {_shape(line) for line in gate_lines}
    assert len(shapes) < len(set(gate_lines))  # most distinct lines are copies
    calls = 0
    checked = Gate.__post_init__

    def counting(gate: Gate) -> None:
        nonlocal calls
        calls += 1
        checked(gate)

    monkeypatch.setattr(Gate, "__post_init__", counting)
    circuit = parse(raw)
    monkeypatch.undo()
    assert calls == len(shapes)
    assert len(circuit.gates) == len(gate_lines)
    for gate in circuit.gates:
        again = Gate(gate.kind, gate.qubits, gate.cbit, gate.condition)
        assert gate == again and repr(gate) == repr(again)
    assert serialize(circuit) == raw


def test_replace_on_a_copied_gate_revalidates() -> None:
    circuit = parse("qubits 3\ncbits 2\nMX 0 -> c0\nMX 0 -> c1\n"
                    "IF c0 CX 1 2\nIF c1=0 CX 1 2\n")
    measure, conditioned = circuit.gates[1], circuit.gates[3]  # second of each shape
    assert (measure.cbit, conditioned.condition) == (1, (1, 0))
    assert measure.qubits is circuit.gates[0].qubits  # a copy of its shape's first gate
    assert dataclasses.replace(measure, cbit=5) == Gate("MX", (0,), cbit=5)
    for gate, changes, message in (
        (measure, {"cbit": None}, "MX requires a destination classical bit"),
        (measure, {"condition": (0, 1)}, "measurements cannot be conditioned"),
        (conditioned, {"condition": (1, 2)}, "bad condition (1, 2)"),
        (conditioned, {"cbit": 0}, "CX does not write a classical bit"),
        (conditioned, {"qubits": (2, 2)}, "duplicate operand in CX (2, 2)"),
    ):
        with pytest.raises(CircuitError) as excinfo:
            dataclasses.replace(gate, **changes)
        assert str(excinfo.value) == message
    with pytest.raises(dataclasses.FrozenInstanceError):
        measure.cbit = 3  # type: ignore[misc]
