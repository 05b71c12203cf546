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
  ``Circuit.__init__`` before it makes them tuples), ``metadata`` a dict
  (kept as a read-only view of the circuit's own copy); every
  ``inputs``/``outputs`` entry is a :class:`Register` and every
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
order.  The validation walk reports the first broken rule, checking the
counts, the registers, the gates by position, then the metadata; :func:`parse`
reports a spelling error anywhere in the file before any of these.  Every
:class:`ParseError` is one line at column 1 (invalid UTF-8 excepted: it
names the column of the first bad byte).  A refused line is quoted, cut to
20 characters like a register name or metadata key or value.  A broken
rule points at the gate's line; a rule that belongs to no one gate (counts,
registers, metadata) points at line 1.

A circuit is its *program* (:class:`Program`): the table of gate shapes,
each gate's shape, and the classical-bit numbers in gate order, a shape
holding 0 in its number's place.  :func:`parse` makes it a chunk of whole
lines at a time: it lifts out each classical-bit number ``c<k>`` spelled as
above, as an int, which leaves the line's shape (a number spelled otherwise
stays, and the shape is refused), and matches each new shape once.  The
builders record it as they emit, and ``Circuit(...)`` lowers a gate list
into it; each hands the validation walk a finished program.  The walk checks
each shape once (its (kind, operand tuple) and its bit fields), then the
classical-bit rules at each gate with a bit, in gate order, from its shape
and number; it makes no Gate.  A message stays one bounded line for any
value.  The walk records the :class:`Facts` that every layer reads instead
of recounting the gates; ``Circuit`` is frozen, so they cannot go stale.
The lane pass, :func:`serialize` and :func:`static_resources` read the
program and the facts.  ``gates`` is a view of the program, built when
first read and kept (a plain gate is its shape's own Gate, and identical IF
lines share one), so callers must not rely on gate or tuple identity.

MX resets the measured qubit to 0, so circuits may reuse the qubit index
afterwards; ``qubit_count`` is the peak width.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import partial
from itertools import compress
from types import MappingProxyType
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
    gate must meet are checked when a :class:`Circuit` is made."""

    kind: str
    qubits: tuple[int, ...]
    cbit: int | None = None
    condition: tuple[int, int] | None = None


_gate = partial(tuple.__new__, Gate)  # Gate(*fields), without its Python-level __new__


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


class _Record:
    """Base of the frozen records.  A record names its fields in ``_fields``
    (its ``__slots__`` may hold more, never compared or shown); equality
    (same type, equal fields), hash, repr, ``_replace`` and ``_asdict`` read
    them off it.  Each record's ``__init__`` sets its slots with ``_set`` and
    checks them; nothing can assign or delete one afterwards.  A dict field
    that must not change is kept as a read-only view of a copy of its own
    (``MappingProxyType``); ``_asdict``, ``_replace``, copy and pickle hand
    it on as a plain dict."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())  # a TypeError where a field is a dict

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(self._asdict().values())

    def _replace(self, **changes):
        """A copy with some fields changed; __init__ checks it again."""
        return type(self)(**{**self._asdict(), **changes})

    def _asdict(self) -> dict:
        """The fields by name, each dict, list or read-only view a plain copy
        of its own."""
        return {name: value.copy() if type(value) in _COPIED else value
                for name, value in zip(self._fields, self._values())}


_COPIED = (dict, list, MappingProxyType)  # MappingProxyType.copy() is a dict


class Register(_Record):
    """A named inclusive qubit range lo..hi; lo is the least significant bit."""

    __slots__ = _fields = ("name", "lo", "hi")

    def __init__(self, name: str, lo: int, hi: int) -> None:
        self._set(name, lo, hi)
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


class StaticResources(_Record):
    """Whole-circuit static counts.  non_clifford counts CCX and CCZ gates."""

    __slots__ = _fields = ("qubit_count", "total_gate_count", "non_clifford_gate_count",
                           "measurement_count")

    def __init__(self, qubit_count: int, total_gate_count: int, non_clifford_gate_count: int,
                 measurement_count: int) -> None:
        self._set(qubit_count, total_gate_count, non_clifford_gate_count, measurement_count)


class Facts(NamedTuple):
    """What the validation walk learns of a valid circuit; ``kinds`` from the
    count of each shape.  ``measured`` maps each MX bit to i, its index in MX
    order: bit m-1-i of an m-bit outcome word.  ``executed`` holds, for all
    gates and then CCX/CCZ, the count run on the all-zeros branch and (step,
    mask) pairs: a branch runs step more per set bit of ``word & mask``."""

    kinds: Counter[str]  # gates per kind
    measured: dict[int, int]
    conditioned_kinds: frozenset[str]
    executed: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def _executed(total: int, steps: list[int]):
    """(all-zeros count, ((step, mask), ...)) of gates of which ``total`` run
    on the all-zeros branch and steps[i] more on r_i = 1 (measurement i in
    gate order)."""
    if not any(steps):
        return total, ()
    digits: dict[int, bytearray] = {}  # step -> its mask in binary: digit i is bit m-1-i
    for i, step in enumerate(steps):
        if step:
            if step not in digits:
                digits[step] = bytearray(b"0" * len(steps))
            digits[step][i] = 49  # "1"
    return total, tuple((step, int(mask, 2)) for step, mask in digits.items())


class Program(NamedTuple):
    """A circuit's gates as the validation walk, the lane pass and
    :func:`serialize` read them.  ``table`` holds each gate shape once, in
    order of first use, and gate i has shape ``index[i]``.  A shape holds 0
    where its gates' classical bit goes (cbit 0 for "-> c<k>", condition
    (0, value) for "IF c<k>"), and ``numbers`` holds those bits, one per such
    gate, in gate order.  A gate whose bit fields have any other form is a
    shape of its own, which the walk refuses."""

    table: list[Gate]
    index: list[int]
    numbers: list[int]


_IF = ((0, 0), (0, 1))  # a conditioned shape's condition, by value


def _split(cbit, condition) -> tuple:
    """(cbit, condition, number) of a gate's bit fields in a program: a bit
    of a form the walk accepts is 0 in the shape and ``number`` apart;
    ``number`` is None for any other form, which the shape keeps."""
    if condition is None:
        if type(cbit) is int and cbit >= 0:
            return 0, None, cbit
    elif (cbit is None and type(condition) is tuple and len(condition) == 2
          and type(condition[0]) is int and condition[0] >= 0
          and type(condition[1]) is int and condition[1] in (0, 1)):
        return None, _IF[condition[1]], condition[0]
    return cbit, condition, None


def _bit_error(kind: str, cbit, condition) -> str | None:
    """What is wrong with a shape's classical-bit fields, or None."""
    if kind == "MX":
        if cbit is None:
            return "MX requires a destination classical bit"
        if type(cbit) is not int or cbit < 0:
            return f"bad MX destination {_shown(cbit, repr)}"
        if condition is not None:
            return "measurements cannot be conditioned"
    elif cbit is not None:
        return f"{kind} does not write a classical bit"
    elif condition is not None and _split(None, condition)[2] is None:
        return f"bad condition {_shown(condition, repr)}"
    return None


def _positions(table: list[Gate], index: list[int], stop: int):
    """The gates before ``stop`` whose shapes carry a classical bit, in order."""
    carries = [cbit is not None or condition is not None for _, _, cbit, condition in table]
    return compress(range(stop), map(carries.__getitem__, index))


_NO_METADATA: dict[str, str] = {}  # Circuit's default, never stored: each gets a copy


class Circuit(_Record):
    """A validated kickmix circuit, a frozen :class:`_Record`; derive modified
    copies with ``_replace``, which re-validates and records fresh facts.

    A circuit is its :class:`Program`.  ``gates`` is a view of it, built
    when first read and kept (given a gate list, it is that list as a
    tuple), so callers must not rely on gate or tuple identity.  ``facts``
    and ``program`` are slots but no fields: never compared, shown or
    replaced."""

    _fields = ("qubit_count", "classical_bit_count", "inputs", "outputs", "gates", "metadata")
    __slots__ = (*_fields, "facts", "program")

    def __init__(self, qubit_count: int, classical_bit_count: int = 0,
                 inputs: tuple[Register, ...] = (), outputs: tuple[Register, ...] = (),
                 gates: tuple[Gate, ...] = (), metadata: dict[str, str] = _NO_METADATA) -> None:
        for name, value in (("inputs", inputs), ("outputs", outputs), ("gates", gates)):
            if type(value) not in (tuple, list):
                raise CircuitError(f"circuit {name} of type {_shown(type(value).__name__)}, "
                                   "not tuple or list")
        _exact(metadata, dict, "metadata")
        self._set(qubit_count, classical_bit_count, tuple(inputs), tuple(outputs), tuple(gates),
                  MappingProxyType(dict(metadata)))
        object.__setattr__(self, "facts", self._validate(None))

    def __getattr__(self, name: str):
        """``gates``, built from the program when first read; nothing else."""
        if name != "gates":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        gates = _view(self.program)
        object.__setattr__(self, "gates", gates)
        return gates

    def _validate(self, program: Program | None) -> Facts:
        """Check every rule in the module docstring on ``program`` (None
        lowers ``gates``, see :func:`_lower`), keep it, and return the facts
        met on the way."""
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
                        f"{_shown(reg.hi)} exceeds qubit count {_shown(self.qubit_count)}")
                overlap = used.intersection(reg.qubits)
                if overlap:
                    raise CircuitError(
                        f"{spec_name} register {_shown(reg.name)!r} overlaps qubit "
                        f"{min(overlap)} already covered by another {spec_name} register")
                used.update(reg.qubits)
        if program is None:
            program = _lower(self.gates)
        object.__setattr__(self, "program", program)
        table, index, numbers = program
        # Each shape once, in order of first use: its kind and operands, then
        # its bit fields.  The first bad shape stops the walk at its first gate.
        stop, bad = len(index), None
        for j, (kind, qubits, cbit, condition) in enumerate(table):
            if _operand_error(j, kind, qubits, self.qubit_count) or (  # message: below
                    (cbit is not None or condition is not None or kind == "MX")
                    and _bit_error(kind, cbit, condition)):
                bad = j
                break
        if bad is not None:
            stop = index.index(bad)  # the bits of the gates before it are checked first
        # The classical-bit rules at each gate with a bit, in gate order.
        written: dict[int, int] = {}  # measured bit -> measurement index
        steps: list[int] = []  # per measurement: gates more on r = 1 than on r = 0
        nc_steps: list[int] = []  # the same for CCX/CCZ
        cbit_count = self.classical_bit_count
        for i, cb in zip(_positions(table, index, stop), numbers):
            kind, _, _, condition = table[index[i]]
            if cb >= cbit_count:
                raise CircuitError(f"classical bit c{_shown(cb)} out of range: gate {i} ({kind}) "
                                   f"uses c{_shown(cb)} but the circuit has {_shown(cbit_count)}",
                                   gate=i)
            if condition is None:  # an MX
                if cb in written:
                    raise CircuitError(f"gate {i} (MX): classical bit c{cb} written twice", gate=i)
                written[cb] = len(steps)
                steps.append(0)
                nc_steps.append(0)
                continue
            m = written.get(cb)
            if m is None:
                raise CircuitError(f"gate {i} ({kind}): condition on c{cb} before any "
                                   "measurement writes it", gate=i)
            step = 1 if condition[1] else -1
            steps[m] += step
            if kind in _NON_CLIFFORD:
                nc_steps[m] += step
        if bad is not None:
            kind, qubits, cbit, condition = table[bad]
            raise CircuitError(_operand_error(stop, kind, qubits, self.qubit_count)
                               or _bit_error(kind, cbit, condition), gate=stop)
        for key, value in self.metadata.items():
            _exact(key, str, "metadata key")
            _exact(value, str, f"metadata value for {_shown(key)!r}")
            if not key or any(ch.isspace() for ch in key):
                raise CircuitError(f"bad metadata key {_shown(key)!r}")
            if value != value.strip() or value.splitlines() != [value]:
                raise CircuitError(f"bad metadata value for {_shown(key)!r}: {_shown(value)!r}")
        policy = self.metadata.get("exceptional")
        if policy is not None and policy not in EXCEPTIONAL_POLICIES:
            raise CircuitError(
                f"exceptional policy {_shown(policy)!r} not in {EXCEPTIONAL_POLICIES}")
        kinds: Counter[str] = Counter()
        conditioned_kinds: set[str] = set()
        skipped = [0, 0]  # gates, and CCX/CCZ, that the all-zeros branch skips
        for j, count in Counter(index).items():
            kind, _, _, condition = table[j]
            kinds[kind] += count
            if condition is not None:
                conditioned_kinds.add(kind)
                if condition[1]:
                    skipped[0] += count
                    skipped[1] += count if kind in _NON_CLIFFORD else 0
        return Facts(kinds, written, frozenset(conditioned_kinds),
                     (_executed(len(index) - skipped[0], steps),
                      _executed(kinds["CCX"] + kinds["CCZ"] - skipped[1], nc_steps)))


def _lower(gates) -> Program:
    """A gate list's program, in one pass.  A plain gate is its shape's own
    Gate; shapes are told apart by the form of their bit fields, then by the
    identity of their operand tuple and their kind."""
    if not set(map(type, gates)) <= {Gate}:
        i, bad = next((i, g) for i, g in enumerate(gates) if type(g) is not Gate)
        raise CircuitError(f"gate {i} is a {_shown(type(bad).__name__)}, not a Gate", gate=i)
    table: list[Gate] = []
    index: list[int] = []
    numbers: list[int] = []
    kinds: list = []  # each shape's kind, as table[j].kind reads slower
    # per bit form (none, "-> c<k>", "IF c<k>=0", "IF c<k>"): operand tuple id -> entry
    plain, measured, conditioned = {}, {}, ({}, {})
    add, add_number = index.append, numbers.append  # bound once: the loop runs once per gate
    for gate in gates:
        kind, qubits, cbit, condition = gate
        if cbit is None and condition is None:  # most gates: each is its shape's own Gate
            j = plain.get(id(qubits))
            if j is None or kinds[j] is not kind:
                j = plain[id(qubits)] = len(table)
                table.append(gate)
                kinds.append(kind)
            add(j)
            continue
        cbit, condition, number = _split(cbit, condition)
        if number is None:  # a shape of its own, which the walk refuses
            add(len(table))
            table.append(gate)
            kinds.append(None)
            continue
        add_number(number)
        shapes = measured if condition is None else conditioned[condition[1]]
        j = shapes.get(id(qubits))
        if j is None or kinds[j] is not kind:
            j = shapes[id(qubits)] = len(table)
            table.append(_gate((kind, qubits, cbit, condition)))
            kinds.append(kind)
        add(j)
    return Program(table, index, numbers)


def _made(qubit_count, classical_bit_count, inputs, outputs, program: Program,
          metadata) -> Circuit:
    """``Circuit(...)`` of ``program``; its ``gates`` are built when first read."""
    circuit = Circuit.__new__(Circuit)
    circuit._set(qubit_count, classical_bit_count, inputs, outputs)  # the fields before gates
    object.__setattr__(circuit, "metadata", MappingProxyType(metadata))
    object.__setattr__(circuit, "facts", circuit._validate(program))
    return circuit


def _view(program: Program) -> tuple[Gate, ...]:
    """The gates of a program: a plain gate is its shape's own Gate, and a
    gate with a bit is made from its shape and number (identical IF lines
    share one)."""
    table, index, numbers = program
    gates = list(map(table.__getitem__, index))
    made: dict[Gate, Gate] = {}
    for i, number in zip(_positions(table, index, len(index)), numbers):
        kind, qubits, _, condition = gates[i]
        if condition is None:
            gates[i] = _gate((kind, qubits, number, None))
        else:
            gate = _gate((kind, qubits, None, (number, condition[1])))
            gates[i] = made.setdefault(gate, gate)
    return tuple(gates)


def static_resources(circuit: Circuit) -> StaticResources:
    """Peak qubits, gates, non-Clifford gates (CCX + CCZ) and measurements,
    from the circuit's facts."""
    kinds = circuit.facts.kinds
    return StaticResources(circuit.qubit_count, sum(kinds.values()),
                           kinds["CCX"] + kinds["CCZ"], kinds["MX"])


# ---------------------------------------------------------------------------
# parsing


# _DIGITS spells an integer as str(int) does, in at most _MAX_DIGITS digits,
# and _NUM is it as one group; [0-9], not \d, as parse refuses non-ASCII digits.
_DIGITS = f"0|[1-9][0-9]{{0,{_MAX_DIGITS - 1}}}"
_NUM = f"({_DIGITS})"
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
    f"(?:IF c{_NUM}(=0)? )?([A-Z]{{1,3}}(?: (?:{_DIGITS})){{1,3}})(?: -> c{_NUM})?"
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


class _Shapes(dict):
    """Gate-line shape -> its index in ``table``, which holds each shape's
    Gate, with cbit 0 for "-> c<k>" and condition (0, value) for "IF c<k>"
    in a number's place.  A refused shape raises KeyError."""

    def __init__(self) -> None:
        self.table: list[Gate] = []

    def __missing__(self, shape: str) -> int:
        match = _GATE_LINE(shape)
        if match is None:
            raise KeyError(shape)
        cb, zero, core, dest = match.groups()
        kind, *operands = core.split(" ")
        self[shape] = len(self.table)
        self.table.append(Gate(kind, tuple(map(int, operands)), None if dest is None else 0,
                               None if cb is None else _IF[zero is None]))
        return self[shape]


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
    index: list[int] = []  # each gate line's shape
    numbers: list[int] = []  # the classical-bit numbers, in gate order
    pos = header.end()
    while pos < len(text):
        end = text.rfind("\n", pos, pos + _CHUNK) + 1
        if end == 0:  # a line longer than a chunk; _shown shows 21 characters at most
            raise _refused("a gate line", text[pos : pos + 21], lineno + 1)
        chunk = text[pos:end]
        parts = _LIFT(chunk)  # text, number, text, ..., number, text
        lines = "c0".join(parts[::2]).split("\n")
        lines.pop()  # the empty text after the chunk's last newline
        try:
            index += map(shapes.__getitem__, lines)
        except KeyError as exc:
            j = lines.index(exc.args[0])
            raise _refused("a gate line", chunk.split("\n", j + 1)[j], lineno + j + 1) from None
        numbers += map(int, parts[1::2])
        lineno += len(lines)
        pos = end

    try:
        return _made(int(qubit_count), int(cbit_count), tuple(inputs), tuple(outputs),
                     Program(shapes.table, index, numbers), metadata)
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
    # each shape's line, written once, with "%d" in its number's place
    table, index, numbers = circuit.program
    texts = []
    for kind, qubits, cbit, condition in table:
        core = _core(kind, qubits)
        if condition is not None:
            core = f"IF c%d {core}" if condition[1] else f"IF c%d=0 {core}"
        elif cbit is not None:
            core = f"{core} -> c%d"
        texts.append(core + "\n")
    lines.append("".join(map(texts.__getitem__, index)) % tuple(numbers))
    return "\n".join(lines).encode("utf-8")
