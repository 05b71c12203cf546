"""Circuit representation and the `.kmx` text format.

A circuit is a straight-line sequence over the gate set

* permutation gates  X, CX, CCX   (controls first, target last),
* diagonal gates     Z, CZ, CCZ   (phase flip when every operand bit is 1),
* measurement        MX           (X-basis readout into a classical bit),

where any unitary gate may be conditioned on a classical bit previously
written by a measurement.  Measurements themselves can never be conditioned.

Text format
-----------

Header lines, then one gate per line::

    qubits 3
    cbits 1
    meta construction temp_and
    in a 0..0
    in b 1..1
    out a 0..0
    out b 1..1
    CCX 0 1 2
    MX 2 -> c0
    IF c0 CZ 0 1

* ``qubits N`` must come first; ``cbits M`` is optional and defaults to 0.
* ``meta key value`` attaches free-form metadata (value runs to end of line).
* ``in``/``out`` declare named registers covering the inclusive qubit range
  ``lo..hi``; the qubit at ``lo`` is the least significant bit.
* A gate line is ``[IF c<k>[=0|=1] ] OPCODE q ...``; a bare ``IF c<k>`` means
  ``=1``.  MX lines end with ``-> c<k>`` naming the destination bit.
* Every integer is a string of at most 7 ASCII digits (no sign, ``_``, or
  non-ASCII digit), enough for ``MAX_CBITS``.  An error message quotes at
  most the first 20 characters of the offending token, register name or
  metadata key or value.
* Blank lines and full-line ``#`` comments are accepted by the parser.

The canonical form produced by :func:`serialize` is byte-exact: header order
``qubits``, ``cbits``, ``meta`` (sorted by key), ``in`` then ``out`` lines in
declaration order, gates one per line, single spaces, ``IF c<k>`` spelled
without ``=1``, no comments or blank lines, and a trailing newline.
``parse(serialize(c))`` reproduces ``c`` exactly.

Structural rules enforced on every circuit:

* gate operands are distinct, in-range qubit indices;
* each classical bit is written by at most one MX;
* a condition may only reference a classical bit that an earlier MX wrote;
* at most ``MAX_QUBITS`` qubits and ``MAX_CBITS`` classical bits, checked
  before anything else, so no header value sizes an allocation;
* register ranges are in bounds and disjoint within the input spec and
  within the output spec (an input register may also be an output);
* the ``exceptional`` metadata key, when present, is one of ``undefined``,
  ``correct`` or ``wraps`` (how the circuit treats exceptional inputs such
  as the identity or a doubling for point arithmetic).

These rules live in :class:`Gate`, :class:`Register` and
:meth:`Circuit.validate` only; :func:`parse` checks syntax and header order.
A :class:`ParseError` for a broken rule points at the gate's source line and
the column of that line's first token; a rule that belongs to no one gate
(counts, registers, metadata) points at line 1, column 1.

:func:`parse` matches gate lines against one pattern of the canonical
spelling.  Headers, the first line of each shape (opcode and operands, with
or without ``-> c<k>`` and ``IF c<k>``) and every line the pattern refuses
are split with ``str.split()`` and handled by token index; only that code
raises on a line, and computes a column only then.  Later lines of a shape
copy its first :class:`Gate` with their own classical bits, and a line that
repeats an earlier one reuses its ``Gate``.  The builders share gates the
same way, per shape of kind and operands, so callers must not rely on gate
identity in a parsed or a built circuit.  ``validate`` still checks every
position.

MX resets the measured qubit to 0, so circuits may reuse the qubit index
afterwards; ``qubit_count`` is the peak width.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, fields

__all__ = [
    "GATE_KINDS",
    "PERMUTATION_KINDS",
    "DIAGONAL_KINDS",
    "NON_CLIFFORD_KINDS",
    "EXCEPTIONAL_POLICIES",
    "MAX_QUBITS",
    "MAX_CBITS",
    "CircuitError",
    "ParseError",
    "Gate",
    "Register",
    "Circuit",
    "StaticResources",
    "parse",
    "serialize",
    "static_resources",
]

PERMUTATION_KINDS = ("X", "CX", "CCX")
DIAGONAL_KINDS = ("Z", "CZ", "CCZ")
GATE_KINDS = PERMUTATION_KINDS + DIAGONAL_KINDS + ("MX",)
NON_CLIFFORD_KINDS = ("CCX", "CCZ")
EXCEPTIONAL_POLICIES = ("undefined", "correct", "wraps")
MAX_QUBITS = 1 << 16
MAX_CBITS = 1 << 20
_MAX_DIGITS = len(str(MAX_CBITS))  # no integer in a circuit file may exceed MAX_CBITS

_ARITY = {"X": 1, "CX": 2, "CCX": 3, "Z": 1, "CZ": 2, "CCZ": 3, "MX": 1}


def _shown(value) -> str:
    """A token, name or value as echoed in an error message, cut to a bounded length."""
    text = str(value)
    return text if len(text) <= 20 else text[:20] + "\u2026"


class CircuitError(ValueError):
    """A structurally invalid circuit; ``gate`` is the offending gate's index
    when the error belongs to one gate."""

    def __init__(self, message: str, gate: int | None = None):
        super().__init__(message)
        self.gate = gate


class ParseError(CircuitError):
    """Parse or validation failure in `.kmx` text, with 1-based position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _bad_condition(condition) -> bool:
    """Whether a condition is not a pair of an int bit >= 0 and an int 0 or 1."""
    cb, val = condition if type(condition) is tuple and len(condition) == 2 else (-1, -1)
    return type(cb) is not int or cb < 0 or type(val) is not int or val not in (0, 1)


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: kind, qubit operands (controls first, target last for the
    permutation kinds), MX destination bit, and an optional classical
    condition (cbit index, required value).  Operands are a tuple of exact
    non-negative ints, the MX destination and the condition's bit are exact
    non-negative ints and its value an exact 0 or 1, so that every gate
    serializes to a line that parses back to an equal gate.

    ``_reshaped`` copies a checked gate with other classical bits and runs
    no rule.  The rules read ``cbit`` and ``condition`` only as "is None"
    and by the types and ranges above, so the copy is a valid gate when
    each is None exactly where the template's is and otherwise meets them.
    Its two callers ensure that: :func:`parse` with ``int`` of its pattern's
    digits, and the builders' emitter with its own classical-bit counter for
    an MX and by re-checking every condition it is given."""

    kind: str
    qubits: tuple[int, ...]
    cbit: int | None = None
    condition: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        kind, qubits, cbit, condition = self.kind, self.qubits, self.cbit, self.condition
        if kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {kind!r}")
        if type(qubits) is not tuple:
            raise CircuitError(f"{kind} operands must be a tuple, not {type(qubits).__name__}")
        if len(qubits) != _ARITY[kind]:
            raise CircuitError(
                f"{kind} takes {_ARITY[kind]} qubit operand(s), got {len(qubits)}"
            )
        try:
            duplicated = len(set(qubits)) != len(qubits)
        except TypeError:  # an unhashable operand: not an int, refused below
            duplicated = False
        if duplicated:
            raise CircuitError(f"duplicate operand in {kind} {qubits}")
        for q in qubits:
            if type(q) is not int:
                raise CircuitError(f"{kind} operand of type {type(q).__name__}, not int")
            if q < 0:
                raise CircuitError("negative qubit index")
        if kind == "MX":
            if cbit is None:
                raise CircuitError("MX requires a destination classical bit")
            if type(cbit) is not int or cbit < 0:
                raise CircuitError(f"bad MX destination {_shown(repr(cbit))}")
            if condition is not None:
                raise CircuitError("measurements cannot be conditioned")
        elif cbit is not None:
            raise CircuitError(f"{kind} does not write a classical bit")
        if condition is not None and _bad_condition(condition):
            raise CircuitError(f"bad condition {_shown(repr(condition))}")

    @property
    def is_diagonal(self) -> bool:
        return self.kind in DIAGONAL_KINDS

    @property
    def is_non_clifford(self) -> bool:
        return self.kind in NON_CLIFFORD_KINDS


@dataclass(frozen=True)
class Register:
    """A named inclusive qubit range lo..hi; lo is the least significant bit."""

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise CircuitError(f"bad register name {_shown(self.name)!r}")
        if self.lo < 0 or self.hi < self.lo:
            raise CircuitError(f"bad register range {self.lo}..{self.hi}")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def qubits(self) -> range:
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class StaticResources:
    """Whole-circuit static counts.  non_clifford counts CCX and CCZ gates."""

    qubit_count: int
    total_gate_count: int
    non_clifford_gate_count: int
    measurement_count: int

    def as_dict(self) -> dict[str, int]:
        return {
            "qubit_count": self.qubit_count,
            "total_gate_count": self.total_gate_count,
            "non_clifford_gate_count": self.non_clifford_gate_count,
            "measurement_count": self.measurement_count,
        }


@dataclass
class Circuit:
    """A validated kickmix circuit.  Treat instances as immutable; derive
    modified copies with ``dataclasses.replace`` (which re-validates)."""

    qubit_count: int
    classical_bit_count: int = 0
    inputs: tuple[Register, ...] = ()
    outputs: tuple[Register, ...] = ()
    gates: tuple[Gate, ...] = ()
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        self.gates = tuple(self.gates)
        self.validate()

    def validate(self) -> None:
        if self.qubit_count < 0 or self.classical_bit_count < 0:
            raise CircuitError("negative qubit or classical bit count")
        if self.qubit_count > MAX_QUBITS:
            raise CircuitError(f"{self.qubit_count} qubits exceed the ceiling {MAX_QUBITS}")
        if self.classical_bit_count > MAX_CBITS:
            raise CircuitError(
                f"{self.classical_bit_count} classical bits exceed the ceiling {MAX_CBITS}"
            )
        for spec_name, regs in (("in", self.inputs), ("out", self.outputs)):
            seen_names: set[str] = set()
            used: set[int] = set()
            for reg in regs:
                if reg.name in seen_names:
                    raise CircuitError(f"duplicate {spec_name} register {_shown(reg.name)!r}")
                seen_names.add(reg.name)
                if reg.hi >= self.qubit_count:
                    raise CircuitError(
                        f"{spec_name} register {_shown(reg.name)!r} range {reg.lo}..{reg.hi} "
                        f"exceeds qubit count {self.qubit_count}"
                    )
                overlap = used.intersection(reg.qubits)
                if overlap:
                    raise CircuitError(
                        f"{spec_name} register {_shown(reg.name)!r} overlaps qubit "
                        f"{min(overlap)} already covered by another {spec_name} register"
                    )
                used.update(reg.qubits)
        written: set[int] = set()
        for i, gate in enumerate(self.gates):
            for q in gate.qubits:
                if q >= self.qubit_count:
                    raise CircuitError(
                        f"qubit {q} out of range: gate {i} ({gate.kind}) uses qubit "
                        f"{q} but the circuit has {self.qubit_count}",
                        gate=i,
                    )
            # the classical bit the gate reads (condition) or writes (MX)
            cb = gate.cbit if gate.condition is None else gate.condition[0]
            if cb is not None and cb >= self.classical_bit_count:
                raise CircuitError(
                    f"classical bit c{cb} out of range: gate {i} ({gate.kind}) uses "
                    f"c{cb} but the circuit has {self.classical_bit_count}",
                    gate=i,
                )
            if gate.condition is not None and cb not in written:
                raise CircuitError(
                    f"gate {i} ({gate.kind}): condition on c{cb} before any "
                    "measurement writes it",
                    gate=i,
                )
            if gate.kind == "MX":
                if cb in written:
                    raise CircuitError(
                        f"gate {i} (MX): classical bit c{cb} written twice", gate=i
                    )
                written.add(cb)
        for key, value in self.metadata.items():
            if not key or any(ch.isspace() for ch in key):
                raise CircuitError(f"bad metadata key {_shown(key)!r}")
            if value != value.strip() or "\n" in value or value == "":
                raise CircuitError(
                    f"bad metadata value for {_shown(key)!r}: {_shown(value)!r}"
                )
        policy = self.metadata.get("exceptional")
        if policy is not None and policy not in EXCEPTIONAL_POLICIES:
            raise CircuitError(
                f"exceptional policy {_shown(policy)!r} not in {EXCEPTIONAL_POLICIES}"
            )


def static_resources(circuit: Circuit) -> StaticResources:
    """Count peak qubits, gates, non-Clifford gates (CCX + CCZ) and measurements."""
    kinds = [g.kind for g in circuit.gates]
    return StaticResources(
        qubit_count=circuit.qubit_count,
        total_gate_count=len(kinds),
        non_clifford_gate_count=sum(map(kinds.count, NON_CLIFFORD_KINDS)),
        measurement_count=kinds.count("MX"),
    )


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(r"\S+")  # the tokens of str.split(), with their positions
_HEADERS = frozenset(("qubits", "cbits", "meta", "in", "out"))
# a gate line as serialize writes it; groups: IF bit, "=0"/"=1", core (opcode
# and operands), MX bit; [0-9], not \d, as parse refuses non-ASCII digits
_INT = f"[0-9]{{1,{_MAX_DIGITS}}}"
_GATE_LINE = re.compile(
    f"(?:IF c({_INT})(=[01])? )?([A-Z]{{1,3}}(?: {_INT}){{1,3}})(?: -> c({_INT}))?"
).fullmatch

# Gate's slot setters, which object.__setattr__ would look up on every call
_SET_KIND, _SET_QUBITS, _SET_CBIT, _SET_CONDITION = (
    getattr(Gate, f.name).__set__ for f in fields(Gate)
)


def _reshaped(template: Gate, cbit: int | None, condition: tuple[int, int] | None) -> Gate:
    """``template`` with its own classical bits, unchecked; see :class:`Gate`."""
    gate = object.__new__(Gate)
    _SET_KIND(gate, template.kind)
    _SET_QUBITS(gate, template.qubits)
    _SET_CBIT(gate, cbit)
    _SET_CONDITION(gate, condition)
    return gate


class _TokenError(Exception):
    """A syntax error at token ``index`` of the line being parsed; ``parse``
    turns it into a :class:`ParseError` at that token's column."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _column(raw: str, index: int) -> int:
    """1-based column of token ``index`` of ``raw``; only called while raising."""
    return next(itertools.islice(_TOKEN.finditer(raw), index, None)).start() + 1


def _is_digits(tok: str) -> bool:
    return tok.isascii() and tok.isdigit()


def _parse_int(tok: str, what: str, index: int) -> int:
    """A non-negative integer spelled in at most _MAX_DIGITS ASCII digits."""
    if _is_digits(tok) and len(tok) <= _MAX_DIGITS:
        return int(tok)
    if tok.startswith("-") and _is_digits(tok[1:]):
        raise _TokenError(f"{what} must be non-negative, got {_shown(tok)}", index)
    raise _TokenError(f"expected {what}, got {_shown(tok)!r}", index)


def _parse_cref(tok: str, index: int) -> int:
    digits = tok[1:]
    if not (tok[:1] == "c" and digits.isascii() and digits.isdigit()):
        raise _TokenError(f"expected classical bit like c0, got {_shown(tok)!r}", index)
    return _parse_int(digits, "classical bit index", index)


def parse(text: str | bytes) -> Circuit:
    """Parse `.kmx` text into a validated Circuit.

    Raises :class:`ParseError` carrying 1-based line/column on any syntax or
    structural problem; see the module docstring for the position rule.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            lines = (text[: exc.start].decode("utf-8") + "?").splitlines()
            raise ParseError("invalid UTF-8", len(lines), len(lines[-1])) from None
    lines = text.splitlines()
    qubit_count: int | None = None
    classical_bit_count = 0
    saw_cbits = False
    inputs: list[Register] = []
    outputs: list[Register] = []
    gates: list[Gate] = []
    metadata: dict[str, str] = {}
    in_body = False
    # gate line text -> the Gate its first copy produced; Gate is frozen, so
    # repeated lines share it and only the first copy is parsed and built
    line_gates: dict[str, Gate] = {}
    # shape of a _GATE_LINE (core, no "->", no IF) -> its first line's Gate
    shapes: dict[tuple[str, bool, bool], Gate] = {}

    # Every syntax error in the loop is a _TokenError naming a token by its
    # index; the handler below re-scans that one line for the column.
    try:
        for lineno, raw in enumerate(lines, start=1):
            gate = line_gates.get(raw)
            if gate is not None:
                gates.append(gate)
                continue
            match = _GATE_LINE(raw)
            if match is not None:
                cb, val, core, dest = match.groups()
                shape = (core, dest is None, cb is None)
                template = shapes.get(shape)
                if template is not None:
                    gate = line_gates[raw] = _reshaped(
                        template,
                        None if dest is None else int(dest),
                        None if cb is None else (int(cb), 0 if val == "=0" else 1),
                    )
                    gates.append(gate)
                    continue
            toks = raw.split()
            if not toks or toks[0][0] == "#":
                continue
            head = toks[0]

            if head in _HEADERS:
                if in_body:
                    raise _TokenError(f"header line {head!r} after gates", 0)
                if head == "qubits":
                    if qubit_count is not None:
                        raise _TokenError("duplicate qubits line", 0)
                    if len(toks) != 2:
                        raise _TokenError("usage: qubits N", 0)
                    qubit_count = _parse_int(toks[1], "qubit count", 1)
                    continue
                if qubit_count is None:
                    raise _TokenError(f"{head!r} before the qubits line", 0)
                if head == "cbits":
                    if saw_cbits:
                        raise _TokenError("duplicate cbits line", 0)
                    if len(toks) != 2:
                        raise _TokenError("usage: cbits M", 0)
                    classical_bit_count = _parse_int(toks[1], "classical bit count", 1)
                    saw_cbits = True
                elif head == "meta":
                    if len(toks) < 3:
                        raise _TokenError("usage: meta key value", 0)
                    key = toks[1]
                    if key in metadata:
                        raise _TokenError(f"duplicate metadata key {_shown(key)!r}", 1)
                    metadata[key] = raw.split(None, 2)[2].strip()
                else:  # in / out
                    if len(toks) != 3:
                        raise _TokenError(f"usage: {head} name lo..hi", 0)
                    name, rng = toks[1], toks[2]
                    if ".." not in rng:
                        raise _TokenError(f"expected lo..hi, got {_shown(rng)!r}", 2)
                    lo_s, hi_s = rng.split("..", 1)
                    lo = _parse_int(lo_s, "register lo", 2)
                    hi = _parse_int(hi_s, "register hi", 2)
                    try:
                        reg = Register(name, lo, hi)
                    except CircuitError as exc:
                        raise _TokenError(str(exc), 1) from None
                    (inputs if head == "in" else outputs).append(reg)
                continue

            # gate line
            in_body = True
            if qubit_count is None:
                raise _TokenError("gate before the qubits line", 0)
            condition = None
            idx = 0
            if head == "IF":
                if len(toks) < 2:
                    raise _TokenError("IF needs a classical bit", 0)
                cpart, eq, vpart = toks[1].partition("=")
                cb = _parse_cref(cpart, 1)
                if eq and vpart not in ("0", "1"):
                    raise _TokenError(
                        f"condition value must be 0 or 1, got {_shown(vpart)!r}", 1
                    )
                condition = (cb, int(vpart) if eq else 1)
                idx = 2
                if idx >= len(toks):
                    raise _TokenError("IF prefix without a gate", 1)
            opcode = toks[idx]
            if opcode not in _ARITY:
                raise _TokenError(f"unknown opcode {_shown(opcode)!r}", idx)
            end = len(toks)
            dest: int | None = None
            if end - idx >= 3 and toks[-2] == "->":
                end -= 2
                dest = _parse_cref(toks[-1], end + 1)
            elif opcode == "MX":
                raise _TokenError("usage: MX q -> c<k>", idx)
            qubits = tuple(
                _parse_int(tok, "qubit index", i)
                for i, tok in enumerate(toks[idx + 1 : end], start=idx + 1)
            )
            try:
                gate = Gate(opcode, qubits, dest, condition)
            except CircuitError as exc:
                raise _TokenError(str(exc), 0) from None
            if match is not None:
                shapes[shape] = gate
            line_gates[raw] = gate
            gates.append(gate)
    except _TokenError as exc:
        raise ParseError(str(exc), lineno, _column(raw, exc.index)) from None

    if qubit_count is None:
        raise ParseError("missing qubits line", 1, 1)
    try:
        return Circuit(
            qubit_count=qubit_count,
            classical_bit_count=classical_bit_count,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            gates=tuple(gates),
            metadata=metadata,
        )
    except CircuitError as exc:
        if exc.gate is None:
            raise ParseError(str(exc), 1, 1) from None
        gate_lines = (
            (lineno, raw)
            for lineno, raw in enumerate(lines, start=1)
            if (toks := raw.split()) and toks[0][0] != "#" and toks[0] not in _HEADERS
        )
        lineno, raw = next(itertools.islice(gate_lines, exc.gate, None))
        raise ParseError(str(exc), lineno, _column(raw, 0)) from None


# ---------------------------------------------------------------------------
# serialization


def serialize(circuit: Circuit) -> bytes:
    """Canonical byte-exact `.kmx` form; see the module docstring for rules."""
    lines = [f"qubits {circuit.qubit_count}", f"cbits {circuit.classical_bit_count}"]
    for key in sorted(circuit.metadata):
        lines.append(f"meta {key} {circuit.metadata[key]}")
    for reg in circuit.inputs:
        lines.append(f"in {reg.name} {reg.lo}..{reg.hi}")
    for reg in circuit.outputs:
        lines.append(f"out {reg.name} {reg.lo}..{reg.hi}")
    # "KIND q q q" of each (kind, operands), written once; a line adds its
    # own "IF c<k>[=0] " prefix or " -> c<k>" suffix (Gate: only MX has a cbit)
    cores: dict[tuple[str, tuple[int, ...]], str] = {}
    for gate in circuit.gates:
        shape = (gate.kind, gate.qubits)
        core = cores.get(shape)
        if core is None:
            core = cores[shape] = " ".join((gate.kind, *map(str, gate.qubits)))
        if gate.condition is not None:
            cb, val = gate.condition
            core = f"IF c{cb} {core}" if val == 1 else f"IF c{cb}=0 {core}"
        elif gate.cbit is not None:
            core = f"{core} -> c{gate.cbit}"
        lines.append(core)
    return ("\n".join(lines) + "\n").encode("utf-8")
