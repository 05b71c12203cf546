"""Circuit representation and the `.kmx` text format.

A circuit is a straight-line sequence over the gate set

* permutation gates  X, CX, CCX   (controls first, target last),
* diagonal gates     Z, CZ, CCZ   (phase flip when every operand bit is 1),
* measurement        MX           (X-basis readout into a classical bit),

where any unitary gate may be conditioned on a classical bit previously
written by a measurement.  Measurements themselves can never be conditioned.

Text format
-----------

A file has exactly one spelling, the one :func:`serialize` writes::

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

* ``qubits N``, then ``cbits M``, then ``meta key value`` lines in strictly
  increasing key order (the value runs to the end of the line), then
  ``in`` lines, then ``out`` lines, then one gate per line.
* ``in``/``out`` declare named registers covering the inclusive qubit range
  ``lo..hi``; the qubit at ``lo`` is the least significant bit.
* A gate line is ``[IF c<k>[=0] ]OPCODE q ...``; ``IF c<k>`` is the
  condition ``=1``.  MX lines end with ``-> c<k>`` naming the destination bit.
* Outside ``meta`` values, tokens are separated by one space; every line
  ends in ``"\n"``, and there are no comments or blank lines.  Every
  integer is spelled as ``str(int)`` spells it, in at most 7 ASCII digits,
  enough for ``MAX_CBITS``.

So ``serialize(parse(b)) == b`` for every ``b`` that :func:`parse` accepts,
and ``parse(serialize(c)) == c`` for every valid circuit.  The harness
seeds its tests with the file bytes, so this is what keeps an author from
re-rolling a comment or a line ending for a fresh transcript; ``meta``
values are still free, so the harness's ``security_bits`` is also the
grinding margin.

Structural rules enforced on every circuit:

* ``inputs``, ``outputs`` and ``gates`` are tuples or lists (checked by
  ``Circuit.__post_init__`` before it makes them tuples), ``metadata`` a
  dict; every ``inputs``/``outputs`` entry is a :class:`Register` and every
  ``gates`` entry a :class:`Gate`; counts, register bounds, operands and
  classical bits are exact ints, names and metadata exact strs;
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

These rules live in :class:`Register` and :class:`Circuit` only; a
:class:`Gate` is a plain record, and :func:`parse` checks spelling and line
order.  ``validate`` reports the first broken rule, checking the counts,
the registers, the gates by position, then the metadata; :func:`parse`
reports a spelling error anywhere in the file before any of these.  Every
:class:`ParseError` is one line at column 1 (invalid UTF-8 excepted: it
names the column of the first bad byte).  A refused line is quoted, cut to
20 characters like a register name or metadata key or value.  A broken
rule points at the gate's line; a rule that belongs to no one gate (counts,
registers, metadata) points at line 1.

:func:`parse` reads the gate lines a chunk of whole lines at a time, by
shape: it lifts out each classical-bit number ``c<k>`` spelled as above,
which leaves the line's shape (a number spelled otherwise stays, and the
shape is refused), matches each new shape once, and shares one Gate among
identical lines and one operand tuple among the lines of one "KIND q q q"
(the builders share one per kind and operands).  ``validate`` checks each
operand tuple once, however many gates share it, and the classical bits of
every gate.  Callers must not rely on gate or tuple identity.  A message
stays one bounded line for any value.  The same walk records the
:class:`Facts` that every layer reads instead of recounting the gates;
``Circuit`` is frozen, so they cannot go stale.

MX resets the measured qubit to 0, so circuits may reuse the qubit index
afterwards; ``qubit_count`` is the peak width.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from operator import itemgetter
from typing import NamedTuple

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

_NON_CLIFFORD = frozenset(NON_CLIFFORD_KINDS)
_ARITY = {"X": 1, "CX": 2, "CCX": 3, "Z": 1, "CZ": 2, "CCZ": 3, "MX": 1}


def _shown(value, form=str) -> str:
    """``form(value)`` (str or repr) for an error message, cut to 20 characters;
    never raises.  str() sees only an int's leading digits; a tuple or list
    shows its first items in repr form, a value whose form raises its type."""
    try:
        if type(value) is int:
            # n // 10**k keeps at least 21 leading digits, as 0.30102 < log10(2)
            k = max(int((abs(value).bit_length() - 1) * 0.30102) - 20, 0)
            text = ("-" if value < 0 else "") + str(abs(value) // 10**k)
        elif type(value) in (tuple, list):
            items: list[str] = []
            for item in value:
                if len(", ".join(items)) > 20:
                    break
                items.append(_shown(item, repr))
            text = ", ".join(items) + ("," if len(value) == 1 and type(value) is tuple else "")
            text = f"({text})" if type(value) is tuple else f"[{text}]"
        else:
            text = form(value)
    except Exception:  # RecursionError too, from a deeply nested value
        text = f"<{type(value).__name__}>"
    return text if len(text) <= 20 else text[:20] + "\u2026"


class CircuitError(ValueError):
    """A structurally invalid circuit; ``gate`` is the offending gate's index
    when the error belongs to one gate."""

    def __init__(self, message: str, gate: int | None = None):
        super().__init__(message)
        self.gate = gate


def _exact(value, kind: type, what: str) -> None:
    """Refuse a value whose type is not exactly ``kind`` (a bool is no int)."""
    if type(value) is not kind:
        raise CircuitError(f"{what} of type {_shown(type(value).__name__)}, not {kind.__name__}")


class ParseError(CircuitError):
    """Parse or validation failure in `.kmx` text, with 1-based position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Gate(NamedTuple):
    """One gate: kind, qubit operands (controls first, target last for the
    permutation kinds), MX destination bit, and an optional classical
    condition (cbit index, required value).  A plain record: the rules a
    gate must meet are checked by :meth:`Circuit.validate`."""

    kind: str
    qubits: tuple[int, ...]
    cbit: int | None = None
    condition: tuple[int, int] | None = None


def _operand_error(i: int, kind, qubits, qubit_count: int) -> str | None:
    """What is wrong with the kind or operands of gate ``i``, or None."""
    if kind not in GATE_KINDS:
        return f"unknown gate kind {_shown(kind, repr)}"
    if type(qubits) is not tuple:
        return f"{kind} operands must be a tuple, not {_shown(type(qubits).__name__)}"
    if len(qubits) != _ARITY[kind]:
        return f"{kind} takes {_ARITY[kind]} qubit operand(s), got {len(qubits)}"
    if any(qubits.count(q) > 1 for q in qubits):
        return f"duplicate operand in {kind} {_shown(qubits)}"
    for q in qubits:
        if type(q) is not int:
            return f"{kind} operand of type {_shown(type(q).__name__)}, not int"
        if q < 0:
            return "negative qubit index"
        if q >= qubit_count:
            return (f"qubit {_shown(q)} out of range: gate {i} ({kind}) uses qubit {_shown(q)} "
                    f"but the circuit has {_shown(qubit_count)}")


@dataclass(frozen=True)
class Register:
    """A named inclusive qubit range lo..hi; lo is the least significant bit."""

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        _exact(self.name, str, "register name")
        if not self.name or not self.name.replace("_", "").isalnum():
            raise CircuitError(f"bad register name {_shown(self.name)!r}")
        _exact(self.lo, int, "register bound")
        _exact(self.hi, int, "register bound")
        if self.lo < 0 or self.hi < self.lo:
            raise CircuitError(f"bad register range {_shown(self.lo)}..{_shown(self.hi)}")

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
        return asdict(self)


class Facts(NamedTuple):
    """What :meth:`Circuit.validate`'s walk learns of a valid circuit.
    ``measured`` maps each MX bit to i, its index in gate order: bit m-1-i
    of an m-bit outcome word.  ``executed`` holds, for all gates and then
    CCX/CCZ, the count run on the all-zeros branch and (step, mask) pairs: a
    branch runs step more per set bit of ``word & mask``."""

    kinds: Counter[str]  # gates per kind
    measured: dict[int, int]
    conditioned_kinds: frozenset[str]
    executed: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def _executed(total: int, conditions: list, measured: dict[int, int]):
    """(all-zeros count, ((step, mask), ...)) of ``total`` gates, of which
    those conditioned have the given conditions."""
    steps = [0] * len(measured)  # per measurement, in gate order
    for cb, value in conditions:
        total -= value
        steps[measured[cb]] += 1 if value else -1
    digits: dict[int, bytearray] = {}  # step -> its mask in binary: digit i is bit m-1-i
    for i, step in enumerate(steps):
        if step:
            if step not in digits:
                digits[step] = bytearray(b"0" * len(steps))
            digits[step][i] = 49  # "1"
    return total, tuple((step, int(mask, 2)) for step, mask in digits.items())


@dataclass(frozen=True)
class Circuit:
    """A validated kickmix circuit; derive modified copies with
    ``dataclasses.replace``, which re-validates and records fresh facts."""

    qubit_count: int
    classical_bit_count: int = 0
    inputs: tuple[Register, ...] = ()
    outputs: tuple[Register, ...] = ()
    gates: tuple[Gate, ...] = ()
    metadata: dict[str, str] = field(default_factory=dict)
    facts: Facts = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("inputs", "outputs", "gates"):
            value = getattr(self, name)
            if type(value) not in (tuple, list):
                raise CircuitError(f"circuit {name} of type {_shown(type(value).__name__)}, "
                                   "not tuple or list")
            object.__setattr__(self, name, tuple(value))
        object.__setattr__(self, "facts", self.validate())

    def validate(self) -> Facts:
        """Check every rule in the module docstring; return the facts met on the way."""
        _exact(self.qubit_count, int, "qubit count")
        _exact(self.classical_bit_count, int, "classical bit count")
        if self.qubit_count < 0 or self.classical_bit_count < 0:
            raise CircuitError("negative qubit or classical bit count")
        for count, what, ceiling in ((self.qubit_count, "qubits", MAX_QUBITS),
                                     (self.classical_bit_count, "classical bits", MAX_CBITS)):
            if count > ceiling:
                raise CircuitError(f"{_shown(count)} {what} exceed the ceiling {ceiling}")
        for spec_name, regs in (("in", self.inputs), ("out", self.outputs)):
            seen_names: set[str] = set()
            used: set[int] = set()
            for i, reg in enumerate(regs):
                if type(reg) is not Register:
                    raise CircuitError(f"{spec_name} register {i} is a "
                                       f"{_shown(type(reg).__name__)}, not a Register")
                if reg.name in seen_names:
                    raise CircuitError(f"duplicate {spec_name} register {_shown(reg.name)!r}")
                seen_names.add(reg.name)
                if reg.hi >= self.qubit_count:
                    raise CircuitError(
                        f"{spec_name} register {_shown(reg.name)!r} range {_shown(reg.lo)}.."
                        f"{_shown(reg.hi)} exceeds qubit count {_shown(self.qubit_count)}"
                    )
                overlap = used.intersection(reg.qubits)
                if overlap:
                    raise CircuitError(
                        f"{spec_name} register {_shown(reg.name)!r} overlaps qubit "
                        f"{min(overlap)} already covered by another {spec_name} register"
                    )
                used.update(reg.qubits)
        gates, cbit_count = self.gates, self.classical_bit_count
        if not set(map(type, gates)) <= {Gate}:
            i, bad = next((i, g) for i, g in enumerate(gates) if type(g) is not Gate)
            raise CircuitError(f"gate {i} is a {_shown(type(bad).__name__)}, not a Gate", gate=i)
        # id of an operand tuple -> the kind _operand_error passed it with; the
        # tuple is alive in gates and holds exact ints, so it passes again
        checked: dict[int, str] = {}
        written: dict[int, int] = {}  # measured bit -> measurement index
        conditions, non_clifford = [], []  # of conditioned gates, and of CCX/CCZ among them
        conditioned_kinds: set[str] = set()
        for i, (kind, qubits, cbit, condition) in enumerate(gates):
            if checked.get(id(qubits)) is not kind:
                if error := _operand_error(i, kind, qubits, self.qubit_count):
                    raise CircuitError(error, gate=i)
                checked[id(qubits)] = kind
            if kind == "MX":
                if cbit is None:
                    raise CircuitError("MX requires a destination classical bit", gate=i)
                if type(cbit) is not int or cbit < 0:
                    raise CircuitError(f"bad MX destination {_shown(cbit, repr)}", gate=i)
                if condition is not None:
                    raise CircuitError("measurements cannot be conditioned", gate=i)
                cb = cbit  # the classical bit the gate writes or reads
            elif cbit is not None:
                raise CircuitError(f"{kind} does not write a classical bit", gate=i)
            elif condition is None:
                continue  # the gate writes and reads no classical bit
            elif (type(condition) is not tuple or len(condition) != 2
                  or type(condition[0]) is not int or condition[0] < 0
                  or type(condition[1]) is not int or condition[1] not in (0, 1)):
                raise CircuitError(f"bad condition {_shown(condition, repr)}", gate=i)
            else:
                cb = condition[0]
            if cb >= cbit_count:
                raise CircuitError(f"classical bit c{_shown(cb)} out of range: gate {i} ({kind}) "
                                   f"uses c{_shown(cb)} but the circuit has {_shown(cbit_count)}",
                                   gate=i)
            if kind == "MX":
                if cb in written:
                    raise CircuitError(f"gate {i} (MX): classical bit c{cb} written twice", gate=i)
                written[cb] = len(written)
            elif cb not in written:
                raise CircuitError(f"gate {i} ({kind}): condition on c{cb} before any "
                                   "measurement writes it", gate=i)
            else:
                conditions.append(condition)
                if kind in _NON_CLIFFORD:
                    non_clifford.append(condition)
                conditioned_kinds.add(kind)
        _exact(self.metadata, dict, "metadata")
        for key, value in self.metadata.items():
            _exact(key, str, "metadata key")
            _exact(value, str, f"metadata value for {_shown(key)!r}")
            if not key or any(ch.isspace() for ch in key):
                raise CircuitError(f"bad metadata key {_shown(key)!r}")
            if value != value.strip() or value.splitlines() != [value]:
                raise CircuitError(
                    f"bad metadata value for {_shown(key)!r}: {_shown(value)!r}"
                )
        policy = self.metadata.get("exceptional")
        if policy is not None and policy not in EXCEPTIONAL_POLICIES:
            raise CircuitError(
                f"exceptional policy {_shown(policy)!r} not in {EXCEPTIONAL_POLICIES}"
            )
        kinds = Counter(map(itemgetter(0), gates))
        return Facts(kinds, written, frozenset(conditioned_kinds),
                     (_executed(len(gates), conditions, written),
                      _executed(kinds["CCX"] + kinds["CCZ"], non_clifford, written)))


def static_resources(circuit: Circuit) -> StaticResources:
    """Peak qubits, gates, non-Clifford gates (CCX + CCZ) and measurements,
    from the circuit's facts."""
    kinds = circuit.facts.kinds
    return StaticResources(circuit.qubit_count, len(circuit.gates),
                           kinds["CCX"] + kinds["CCZ"], kinds["MX"])


# ---------------------------------------------------------------------------
# parsing


# An integer as str(int) spells it, in at most _MAX_DIGITS digits, as one
# group; [0-9], not \d, as parse refuses non-ASCII digits.  Gate operands
# match the looser _INT: parse compares the first line of each core with
# _core of its operands instead, which costs nothing on the later lines.
_NUM = f"(0|[1-9][0-9]{{0,{_MAX_DIGITS - 1}}})"
_INT = f"[0-9]{{1,{_MAX_DIGITS}}}"
# the header lines as serialize writes them; groups: qubits, cbits (each
# optional, so that a missing one is named), the meta, in and out lines
_HEADER = re.compile(
    f"(?:qubits {_NUM}\n)?(?:cbits {_NUM}\n)?"
    "((?:meta .*\n)*)((?:in .*\n)*)((?:out .*\n)*)"
).match
# an in or out line after its "in "/"out "; groups: name, lo, hi
_REGISTER = re.compile(f"([^ ]+) {_NUM}\\.\\.{_NUM}").fullmatch
# a gate line as serialize writes it; groups: IF bit, "=0", core (opcode
# and operands), MX bit
_GATE_LINE = re.compile(
    f"(?:IF c{_NUM}(=0)? )?([A-Z]{{1,3}}(?: {_INT}){{1,3}})(?: -> c{_NUM})?"
).fullmatch

def _core(kind: str, qubits: tuple[int, ...]) -> str:
    """The canonical "KIND q q q" of a gate line, without IF or "->"."""
    return " ".join((kind, *map(str, qubits)))


# parse reads the gate lines a chunk of whole lines, at most _CHUNK
# characters, at a time.  _LIFT splits out each classical-bit number c<k>
# spelled as _NUM spells it; the rest, each number spelled c0, holds the
# lines' shapes, which a circuit has few of.
_CHUNK = 1 << 16
_LIFT = re.compile(f"c{_NUM}(?![0-9])").split
_gate = partial(tuple.__new__, Gate)  # Gate(*fields), without its Python-level __new__


class _Shapes(dict):
    """Gate-line shape -> its Gate, or None if no gate line has the shape;
    for a shape that holds classical-bit numbers, (its Gates by number, the
    maker of one from its number, pair), with a pair of numbers for IF and
    ->.  The lines of one core share its Gate's kind and operand tuple."""

    def __missing__(self, shape: str) -> Gate | tuple | None:
        match = _GATE_LINE(shape)
        if match is None:
            return None
        cb, zero, core, dest = match.groups()
        gate = self.get(core)
        if gate is None:
            kind, *operands = core.split(" ")
            qubits = tuple(map(int, operands))
            if _core(kind, qubits) != core:
                return None
            gate = self[core] = Gate(kind, qubits)
        if shape == core:
            return gate
        kind, qubits, value = gate.kind, gate.qubits, 0 if zero else 1
        if dest is None:
            entry = ({}, lambda k: _gate((kind, qubits, None, (int(k), value))), False)
        elif cb is None:
            entry = ({}, lambda k: _gate((kind, qubits, int(k), None)), False)
        else:
            entry = ({}, lambda ks: _gate((kind, qubits, int(ks[1]), (int(ks[0]), value))), True)
        self[shape] = entry
        return entry


def _refused(expected: str, raw: str, lineno: int) -> ParseError:
    return ParseError(f"expected {expected}, got {_shown(raw)!r}", lineno)


def parse(text: str | bytes) -> Circuit:
    """Parse canonical `.kmx` text into a validated Circuit.

    Accepts exactly the text :func:`serialize` writes, so that
    ``serialize(parse(b)) == b`` for every ``b`` it accepts.  Raises
    :class:`ParseError` carrying a 1-based line on any syntax or structural
    problem; see the module docstring for the position rule.
    """
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
    shapes = _Shapes()
    gates: list[Gate] = []
    pos = header.end()
    while pos < len(text):
        end = text.rfind("\n", pos, pos + _CHUNK) + 1
        if end == 0:  # a line longer than a chunk; _shown shows 21 characters at most
            raise _refused("a gate line", text[pos : pos + 21], lineno + 1)
        chunk = text[pos:end]
        parts = _LIFT(chunk)  # text, number, text, ..., number, text
        numbers = iter(parts[1::2])
        lines = "c0".join(parts[::2]).split("\n")
        lines.pop()  # the empty text after the chunk's last newline
        for shape in lines:
            entry = shapes[shape]
            if entry.__class__ is Gate:
                gates.append(entry)
                continue
            if entry is None:
                j = lines.index(shape)
                raise _refused("a gate line", chunk.split("\n", j + 1)[j], lineno + j + 1)
            made, make, pair = entry
            key = (next(numbers), next(numbers)) if pair else next(numbers)
            gate = made.get(key)
            if gate is None:
                gate = made[key] = make(key)
            gates.append(gate)
        lineno += len(lines)
        pos = end

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
    for kind, qubits, cbit, condition in circuit.gates:
        core = cores.get((kind, qubits))
        if core is None:
            core = cores[kind, qubits] = _core(kind, qubits)
        if condition is not None:
            cb, val = condition
            core = f"IF c{cb} {core}" if val == 1 else f"IF c{cb}=0 {core}"
        elif cbit is not None:
            core = f"{core} -> c{cbit}"
        lines.append(core)
    return ("\n".join(lines) + "\n").encode("utf-8")
