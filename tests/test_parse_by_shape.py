"""``parse`` reads the gate lines a chunk at a time, by shape: checked
against a reference that matches each distinct gate line on its own, and
measured on hostile files."""

from __future__ import annotations

import re
import tracemalloc

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
    build_windowed_pointadd,
    named_curve,
    parse,
    serialize,
)
from kickmix.circuit import _GATE_LINE, _HEADER, _REGISTER, _core, _refused, _shown


def _per_line_parse(text: str | bytes) -> Circuit:
    """The reference: ``parse`` as it read the gate block before it parsed
    by shape, matching each distinct gate line against _GATE_LINE."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            lines = text[: exc.start].decode("utf-8").split("\n")
            raise ParseError("invalid UTF-8", len(lines), len(lines[-1]) + 1) from None
    if text and text[-1] != "\n":
        raise ParseError("no newline at the end of the file", text.count("\n") + 1)
    header = _HEADER(text)
    qubit_count, cbit_count, meta, ins, outs = header.groups()
    if qubit_count is None or cbit_count is None:
        lineno = 1 if qubit_count is None else 2
        expected = "'qubits N'" if qubit_count is None else "'cbits M'"
        raise _refused(expected, text.split("\n", 2)[lineno - 1], lineno)
    lineno = 2
    metadata: dict[str, str] = {}
    for raw in meta.split("\n")[:-1]:
        lineno += 1
        key, _, value = raw[5:].partition(" ")
        if metadata and key <= last:
            raise ParseError(f"meta key {_shown(key)!r} not after {_shown(last)!r}", lineno)
        metadata[key] = value
        last = key
    inputs: list[Register] = []
    outputs: list[Register] = []
    for head, block, registers in (("in", ins, inputs), ("out", outs, outputs)):
        for raw in block.split("\n")[:-1]:
            lineno += 1
            match = _REGISTER(raw, len(head) + 1)
            if match is None:
                raise _refused(f"'{head} name lo..hi'", raw, lineno)
            try:
                registers.append(Register(match[1], int(match[2]), int(match[3])))
            except CircuitError as exc:
                raise ParseError(str(exc), lineno) from None

    header_lines = lineno
    lines = text[header.end() :].split("\n")
    lines.pop()  # the empty text after the final newline
    gates: list[Gate] = []
    # gate line text -> its Gate; a line's core is itself a gate line, so
    # the lines of one core share its kind and operand tuple
    line_gates: dict[str, Gate] = {}
    for lineno, raw in enumerate(lines, start=header_lines + 1):
        gate = line_gates.get(raw)
        if gate is None:
            match = _GATE_LINE(raw)
            if match is None:
                raise _refused("a gate line", raw, lineno)
            cb, zero, core, dest = match.groups()
            gate = line_gates.get(core)
            if gate is None:
                kind, *operands = core.split(" ")
                qubits = tuple(map(int, operands))
                if _core(kind, qubits) != core:
                    raise _refused("a gate line", raw, lineno)
                gate = line_gates[core] = Gate(kind, qubits)
            if raw != core:
                cbit = None if dest is None else int(dest)
                condition = None if cb is None else (int(cb), 0 if zero else 1)
                gate = line_gates[raw] = Gate(gate.kind, gate.qubits, cbit, condition)
        gates.append(gate)

    try:
        return Circuit(
            qubit_count=int(qubit_count),
            classical_bit_count=int(cbit_count),
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            gates=tuple(gates),
            metadata=metadata,
        )
    except CircuitError as exc:
        lineno = 1 if exc.gate is None else header_lines + exc.gate + 1
        raise ParseError(str(exc), lineno) from None


def _outcome(read, data: bytes):
    """What ``read`` makes of ``data``: the circuit and its gates, or the
    refusal's line, column and message."""
    try:
        circuit = read(data)
    except ParseError as exc:
        return exc.line, exc.column, str(exc)
    return circuit, circuit.gates


def _assert_parsed_as_the_reference(data: bytes) -> None:
    got = _outcome(parse, data)
    assert got == _outcome(_per_line_parse, data)
    if type(got[0]) is Circuit:
        assert serialize(got[0]) == data


# ---------------------------------------------------------------------------
# canonical circuits, each with up to two lines edited


@pytest.fixture(scope="module")
def p61w2_bytes() -> bytes:
    toy61 = named_curve("toy-p61-b7")
    return serialize(build_windowed_pointadd(toy61, toy61.generator, 2).circuit)


def test_builder_circuits_parse_as_the_reference(pointadd11_bytes, p61w2_bytes) -> None:
    assert len(p61w2_bytes) > circuit_module._CHUNK  # more than one chunk
    for data in (pointadd11_bytes, p61w2_bytes):
        _assert_parsed_as_the_reference(data)


def _number_edit(spelled: str):
    """An edit that spells the line's first classical-bit number otherwise."""
    def edit(line: str, *_) -> str:
        return re.sub("c([0-9]+)", lambda m: "c" + spelled.format(m[1]), line, count=1)
    return edit


def _operand(line: str) -> str:
    """The first operand of a gate line, or 0 if it has none."""
    return (_core_of(line).split(" ")[1:] or ["0"])[0]


def _bit_equal_to_cbits(line: str, _, cbits: int) -> str:
    if re.search("c[0-9]", line):
        return re.sub("c[0-9]+", f"c{cbits}", line, count=1)
    return f"IF c{cbits} {line}"


# edit name -> (line, qubit count, classical bit count) -> the edited line;
# those that keep a gate line in its canonical spelling (or spell no number
# to edit) parse as before, and those from "bit = cbits" on keep it and
# break a gate rule
_EDITS = {
    "leading zero": _number_edit("0{}"),
    "8 digits": _number_edit("12345678"),
    "5000 digits": _number_edit("9" * 5000),
    "non-ASCII digit": _number_edit("\u0663"),
    "plus": _number_edit("+{}"),
    "underscore": _number_edit("1_{}"),
    "extra c token": lambda line, *_: line + " c1",
    "extra c number": lambda line, *_: line.replace(" ", " c2 ", 1),
    "IF on MX": lambda line, *_: f"IF c0 MX 1 -> c{len(line)}",
    "-> on non-MX": lambda line, *_: _core_of(line) + " -> c3",
    "=0": lambda line, *_: line.replace(" ", "=0 ", 1) if line.startswith("IF") else line + "=0",
    "=1": lambda line, *_: line.replace(" ", "=1 ", 1) if line.startswith("IF") else line + "=1",
    "too long": lambda line, *_: _core_of(line) + " 1" * 30,
    "longer than a chunk": lambda line, *_: "CX 1" + " 1" * circuit_module._CHUNK,
    "unknown kind": lambda line, *_: "Q" + line,
    "no operands": lambda line, *_: line.split(" ")[0],
    "bit = cbits": _bit_equal_to_cbits,
    "MX into c0": lambda line, *_: f"MX {_operand(line)} -> c0",
    "IF on the last bit": lambda line, _, cbits: f"IF c{max(cbits - 1, 0)} {_core_of(line)}",
    "MX without ->": lambda line, *_: f"MX {_operand(line)}",
    "qubit = qubits": lambda line, qubits, _: re.sub(
        "[0-9]+( -> c[0-9]+)?$", lambda m: f"{qubits}{m[1] or ''}", line),
    "CX q q": lambda line, *_: "CX {0} {0}".format(_operand(line)),
}


def _core_of(line: str) -> str:
    return re.sub("^IF c[^ ]* ", "", line).split(" -> ")[0]


def _counts(text: str) -> tuple[int, int]:
    """The qubit and classical bit counts of a canonical file."""
    return tuple(map(int, _HEADER(text).group(1, 2)))


@st.composite
def _small_circuit(draw) -> bytes:
    """A canonical circuit of a few gates, conditioned ones among them."""
    qubits = draw(st.integers(3, 6))
    lines, written = [], []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["X", "CX", "CCX", "Z", "CZ", "CCZ", "MX"]))
        operands = draw(st.permutations(range(qubits)))[: circuit_module._ARITY[kind]]
        line = _core(kind, tuple(operands))
        if kind == "MX":
            line += f" -> c{len(written)}"
            written.append(len(written))
        elif written and draw(st.booleans()):
            cb, zero = draw(st.sampled_from(written)), draw(st.sampled_from(["", "=0"]))
            line = f"IF c{cb}{zero} {line}"
        lines.append(line + "\n")
    head = f"qubits {qubits}\ncbits {len(written)}\nin a 0..{qubits - 1}\nout a 0..{qubits - 1}\n"
    return (head + "".join(lines)).encode()


@st.composite
def _edited(draw, p11: bytes, p61w2: bytes) -> bytes:
    """A canonical circuit with one or two gate lines edited; a second edit
    lands near the first (so in the same chunk, before or after it) or
    anywhere (so on either side of a chunk boundary of p61w2)."""
    data = draw(st.sampled_from([p11, p61w2]) | _small_circuit())
    lines = data.decode().split("\n")[:-1]
    first_gate = len(_HEADER(data.decode())[0].split("\n")) - 1
    at = draw(st.integers(first_gate, len(lines) - 1))
    edits = [(at, draw(st.sampled_from(sorted(_EDITS))))]
    if draw(st.booleans()):
        near = draw(st.integers(at - 40, at + 40) | st.integers(first_gate, len(lines) - 1))
        edits.append((min(max(near, first_gate), len(lines) - 1),
                      draw(st.sampled_from(sorted(_EDITS)))))
    counts = _counts(data.decode())
    for where, name in edits:
        lines[where] = _EDITS[name](lines[where], *counts)
    return "".join(line + "\n" for line in lines).encode()


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_parse_gives_the_reference_circuit_or_error(pointadd11_bytes, p61w2_bytes,
                                                    data) -> None:
    _assert_parsed_as_the_reference(data.draw(_edited(pointadd11_bytes, p61w2_bytes)))


def _chunk_lines(data: bytes) -> tuple[list[str], int, int]:
    """The lines of a file, the index of its first gate line and that of the
    first line of its second chunk."""
    text = data.decode()
    lines = text.split("\n")[:-1]
    start = _HEADER(text).end()
    second = text.rfind("\n", start, start + circuit_module._CHUNK) + 1
    return lines, text.count("\n", 0, start), text.count("\n", 0, second)


@pytest.mark.parametrize("second", sorted(_EDITS))
@pytest.mark.parametrize("first", ["leading zero", "5000 digits", "unknown kind", "IF on MX",
                                   "qubit = qubits", "MX into c0"])
def test_errors_on_both_sides_of_a_chunk_boundary(p61w2_bytes, first, second) -> None:
    """Two edited lines around the first chunk boundary of p61w2 and, in
    either order, two next to each other within one chunk."""
    lines, first_gate, boundary = _chunk_lines(p61w2_bytes)
    assert first_gate < boundary < len(lines)
    counts = _counts(p61w2_bytes.decode())
    for a, b in ((boundary - 1, boundary), (boundary, boundary - 1), (boundary - 2, boundary + 3),
                 (first_gate + 5, first_gate + 6), (first_gate + 6, first_gate + 5)):
        edited = list(lines)
        edited[a] = _EDITS[first](edited[a], *counts)
        edited[b] = _EDITS[second](edited[b], *counts)
        _assert_parsed_as_the_reference("".join(line + "\n" for line in edited).encode())


@pytest.mark.parametrize("bad", ["IF c05 X 0", "IF c12345678 X 0", "MX 0 -> c1" + "9" * 5000,
                                 "IF c\u0663 X 0", "IF c1 X 0" + " c2" * 20])
def test_the_parse_stops_in_the_chunk_of_the_first_bad_line(monkeypatch, bad) -> None:
    """No chunk after the first bad line's is read, and no number that a
    gate line cannot hold (a leading zero, too many digits) is lifted."""
    chunks: list[str] = []
    lift = circuit_module._LIFT
    monkeypatch.setattr(circuit_module, "_LIFT", lambda chunk: chunks.append(chunk) or lift(chunk))
    good = "MX 0 -> c1\nIF c1 X 0\n"
    after = good * (2 * circuit_module._CHUNK // len(good))  # two more chunks
    with pytest.raises(ParseError) as excinfo:
        parse(f"qubits 1\ncbits 2\n{good}{bad}\n{after}")
    assert str(excinfo.value) == f"line 5, column 1: expected a gate line, got {_shown(bad)!r}"
    assert len(chunks) == 1
    assert set(lift(chunks[0])[1::2]) <= {"1", "2"}


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_small_circuit())
@example(b"qubits 2\ncbits 1\nMX 0 -> c0\nIF c0 MX 1 -> c0\nIF c0 MX 1 -> c0\nIF c0 X 1 -> c0\n")
@example(b"qubits 2\ncbits 2\nMX 0 -> c0\nMX 1 -> c1\nIF c0 Z 1\nIF c1 Z 1\nIF c0 Z 1\n")
def test_small_canonical_circuits_parse_as_the_reference(data: bytes) -> None:
    _assert_parsed_as_the_reference(data)


# ---------------------------------------------------------------------------
# hostile files

_HEADER_LINES = b"qubits 1\ncbits 1\n"


def _peak(data: bytes) -> tuple[str, int]:
    """parse's refusal of ``data`` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as excinfo:
            parse(data)
        return str(excinfo.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each bound is the peak that the per-line parser reached on the same file
# (tracemalloc, CPython 3.11): it held a copy of the gate block and a str
# per line.
@pytest.mark.parametrize("data, shown, bound", [
    (_HEADER_LINES + b"c1 " * ((4 << 20) // 3) + b"c1\n", "c1 c1 c1 c1 c1 c1 c1…", 12_583_377),
    (_HEADER_LINES + b"c1\n" * 200_000, "c1", 13_027_419),
], ids=["one 4 MB line", "200k lines"])
def test_hostile_files_are_refused_within_the_per_line_memory(data, shown, bound) -> None:
    message, peak = _peak(data)
    assert message == f"line 3, column 1: expected a gate line, got {shown!r}"
    assert peak <= bound


def test_identical_conditioned_lines_share_one_gate() -> None:
    circuit = parse(_HEADER_LINES + b"MX 0 -> c0\n" + b"IF c0 Z 0\n" * 200_000)
    assert len(circuit.gates) == 200_001
    assert len(set(map(id, circuit.gates))) == 2
