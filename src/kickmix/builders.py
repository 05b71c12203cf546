"""Circuit builders: arithmetic gadgets assembled from the kickmix gate set.

Every builder returns a :class:`BuildReport` pairing the circuit with the
resource counts the builder itself predicted; construction fails if the
prediction disagrees with a recount of the emitted gates.

The builders share one idiom: a temporary product bit is computed with a
CCX into a clean ancilla and later *measured away* instead of uncomputed
with a second CCX.  An X-basis readout of the ancilla resets it to 0 and, on
outcome 1, leaves a sign (-1)^product behind; a CZ on the two factors,
conditioned on that outcome, cancels the sign.  The uncompute side therefore
costs zero non-Clifford gates, and correctness of the conditioned correction
is visible to the simulator as "phase +1 on every measurement branch".

Permutations of basis states (fixed-point addition, modular constant
addition) are synthesized as chains of basis-state transpositions.  A
transposition of u and v first aligns all differing bits onto one pivot with
CX gates, flips a multi-controlled X whose control pattern matches the pair,
then undoes the alignment; the net effect touches only u and v, so sparse
permutations stay cheap.  Multi-controlled X gates decompose into a ladder
of the temporary products above.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from .circuit import (
    MAX_QUBITS,
    Circuit,
    CircuitError,
    Gate,
    Program,
    Register,
    StaticResources,
    _made,
    _Record,
    _shown,
    _split,
    static_resources,
)
from .curve import (
    CurvePoint,
    CurveParams,
    encode_point,
    enumerate_points,
    format_point,
    is_on_curve,
    point_add,
    scalar_mul,
)

__all__ = [
    "BuildReport",
    "build_temp_and",
    "build_adder",
    "build_mod_add_const",
    "build_lookup",
    "build_pointadd_permutation",
    "build_windowed_pointadd",
    "mutate",
    "MAX_ADDER_WIDTH",
    "MAX_LOOKUP_WINDOW",
    "MAX_MOD_ADD_WIDTH",
    "MAX_POINT_WINDOW",
]

MAX_ADDER_WIDTH = 16
MAX_LOOKUP_WINDOW = 8
MAX_MOD_ADD_WIDTH = 12
MAX_POINT_WINDOW = 4


class BuildReport(_Record):
    """A built circuit plus the builder's own resource prediction.

    The prediction must match a recount exactly; a builder with no closed
    form passes None and records the recount.  For windowed point
    addition the non-Clifford cost of the address-decoding tree is surfaced
    separately in lookup_overhead_non_clifford, mirroring how per-window
    lookup overhead enters the whole-derivation cost formulas.
    """

    __slots__ = _fields = ("circuit", "predicted", "construction",
                           "lookup_overhead_non_clifford")

    def __init__(self, circuit: Circuit, predicted: StaticResources | None, construction: str,
                 lookup_overhead_non_clifford: int | None = None) -> None:
        actual = static_resources(circuit)
        if predicted is None:  # no closed form: the recount is the record
            predicted = actual
        self._set(circuit, predicted, construction, lookup_overhead_non_clifford)
        if actual != self.predicted:
            raise CircuitError(
                f"builder {self.construction!r} predicted {self.predicted}, "
                f"emitted {actual}"
            )

    def sidecar_dict(self) -> dict:
        data: dict = {
            "construction": self.construction,
            "predicted": self.predicted._asdict(),
        }
        if self.lookup_overhead_non_clifford is not None:
            data["lookup_overhead_non_clifford"] = self.lookup_overhead_non_clifford
        return data


class _Emitter:
    """Accumulates gates as a program (``circuit.Program``); allocates
    ancilla qubits (LIFO reuse) and classical bits.  qubit watermark == peak
    circuit width.

    Each shape gets one Gate, which keeps the operand tuple that was
    emitted; :meth:`finish` hands the program to the validation walk.

    A ladder of :meth:`mcx` (three or more controls) is emitted gate by gate
    the first time and replayed after that.  Its gates depend only on the
    controls, the target and the ancilla state that :meth:`alloc` reads
    (the watermark and the free list), so those key the ladder's shape
    indices, its classical-bit numbers less the ``cbits`` it started at,
    and the ancilla state it leaves.  A replay appends the indices, the
    numbers offset by the current ``cbits``, and restores that state: the
    program is exactly the one gate-by-gate emission makes, shape table
    included."""

    def __init__(self, fixed_qubits: int):
        self.cbits = 0
        self.watermark = fixed_qubits
        self._free: list[int] = []
        self._shapes: dict[tuple, int] = {}  # (kind, operands, cbit, condition) -> its entry
        self._table: list[Gate] = []
        self._index: list[int] = []
        self._numbers: list[int] = []
        # (controls, target, watermark, free list) -> (shape indices, numbers
        # less the starting cbits, watermark after, free list after)
        self._ladders: dict[tuple, tuple] = {}

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        q = self.watermark
        self.watermark += 1
        return q

    def release(self, q: int) -> None:
        self._free.append(q)

    def emit(
        self, kind: str, *qubits: int, cond: tuple[int, int] | None = None, cbit: int | None = None
    ) -> None:
        if cbit is not None or cond is not None:
            cbit, cond, number = _split(cbit, cond)
            if number is None:  # a shape of its own, which the walk refuses
                self._index.append(len(self._table))
                self._table.append(Gate(kind, qubits, cbit, cond))
                return
            self._numbers.append(number)
        j = self._shapes.setdefault((kind, qubits, cbit, cond), len(self._table))
        if j == len(self._table):
            self._table.append(Gate(kind, qubits, cbit, cond))
        self._index.append(j)

    def measure(self, qubit: int) -> int:
        self.cbits += 1
        self.emit("MX", qubit, cbit=self.cbits - 1)
        return self.cbits - 1

    def temp_and(self, a: int, b: int) -> int:
        """Fresh ancilla holding a AND b (one CCX)."""
        t = self.alloc()
        self.emit("CCX", a, b, t)
        return t

    def drop_temp_and(self, t: int, a: int, b: int) -> None:
        """Measure the product away; conditioned CZ cancels the kickback."""
        cb = self.measure(t)
        self.emit("CZ", a, b, cond=(cb, 1))
        self.release(t)

    def mcx(self, controls: Sequence[int], target: int) -> None:
        """X on target under one or more controls, via a ladder of measured-away
        temporary products."""
        cs = list(controls)
        if len(cs) == 1:
            self.emit("CX", cs[0], target)
        elif len(cs) == 2:
            self.emit("CCX", cs[0], cs[1], target)
        else:
            key = (tuple(cs), target, self.watermark, tuple(self._free))
            kept = self._ladders.get(key)
            if kept is not None:
                shapes, bits, self.watermark, free = kept
                self._index += shapes
                self._numbers += map(self.cbits.__add__, bits)
                self.cbits += len(cs) - 1
                self._free[:] = free
                return
            start, first, base = len(self._index), len(self._numbers), self.cbits
            ladder: list[tuple[int, int, int]] = []
            head = cs[0]
            for c in cs[1:]:
                t = self.temp_and(head, c)
                ladder.append((t, head, c))
                head = t
            self.emit("CX", head, target)
            for t, a, b in reversed(ladder):
                self.drop_temp_and(t, a, b)
            self._ladders[key] = (self._index[start:],
                                  [n - base for n in self._numbers[first:]],
                                  self.watermark, tuple(self._free))

    def transpose(
        self,
        u: int,
        v: int,
        data: Sequence[int],
        extra_control: int | None = None,
    ) -> None:
        """Swap basis states u and v of the data qubits; fix everything else.

        With an extra control, the swap happens only when that qubit is 1
        (the alignment conjugation cancels itself on the 0 branch); u != v."""
        width = len(data)
        diff = u ^ v
        pivot = (diff & -diff).bit_length() - 1
        if (u >> pivot) & 1:
            u, v = v, u
        align = [i for i in range(width) if (diff >> i) & 1 and i != pivot]
        for i in align:
            self.emit("CX", data[pivot], data[i])
        flips = [i for i in range(width) if i != pivot and not (u >> i) & 1]
        for i in flips:
            self.emit("X", data[i])
        controls = [data[i] for i in range(width) if i != pivot]
        if extra_control is not None:
            controls.append(extra_control)
        self.mcx(controls, data[pivot])
        for i in reversed(flips):
            self.emit("X", data[i])
        for i in reversed(align):
            self.emit("CX", data[pivot], data[i])

    def synth_permutation(
        self,
        perm: Mapping[int, int],
        data: Sequence[int],
        extra_control: int | None = None,
    ) -> None:
        """Realize a sparse permutation of basis states of the data qubits.

        perm maps moved states to their images; any state absent from the
        mapping is a fixed point.  Each cycle becomes a chain of
        transpositions applied last-to-first."""
        size = 1 << len(data)
        moved = {k: v for k, v in perm.items() if k != v}
        for k, v in moved.items():
            if not (0 <= k < size and 0 <= v < size):
                raise CircuitError(f"permutation entry {k}->{v} outside {len(data)} bits")
        if sorted(moved) != sorted(moved.values()):
            raise CircuitError("mapping is not a permutation (moved set not closed)")
        seen: set[int] = set()
        for start in sorted(moved):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = moved[start]
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = moved[nxt]
            for i in range(len(cycle) - 2, -1, -1):
                self.transpose(cycle[i], cycle[i + 1], data, extra_control)

    def finish(
        self,
        construction: str,
        registers: tuple[Register, ...],
        metadata: Mapping[str, str],
        predicted: StaticResources | None = None,
        outputs: tuple[Register, ...] | None = None,
        lookup_overhead_non_clifford: int | None = None,
    ) -> BuildReport:
        """The emitted gates as a circuit at watermark width, paired with the
        prediction (a recount when the builder has no closed form)."""
        circuit = _made(self.watermark, self.cbits, registers,
                        registers if outputs is None else outputs,
                        Program(self._table, self._index, self._numbers),
                        {"construction": construction, **metadata})
        return BuildReport(
            circuit=circuit,
            predicted=predicted,
            construction=construction,
            lookup_overhead_non_clifford=lookup_overhead_non_clifford,
        )


def _point_metadata(curve: CurveParams, base: CurvePoint) -> dict[str, str]:
    """Checks shared by the curve builders, then their common metadata."""
    if not is_on_curve(base, curve):
        raise ValueError(f"base point {_shown(base)} is not on curve {curve.name}")
    if curve.p == (1 << curve.coordinate_bits) - 1:
        raise CircuitError(
            f"p={curve.p} fills its bit width; no spare encoding remains "
            "for the identity point"
        )
    return {
        "curve": curve.name,
        "coordinate_bits": str(curve.coordinate_bits),
        "base": format_point(base),
        "encoding": "xy-allones-identity",
        "exceptional": "correct",
    }


# ---------------------------------------------------------------------------
# builders


def build_temp_and() -> BuildReport:
    """The three-gate temporary-product gadget on qubits (a, b, t).

    Computes t = a AND b, then measures it away; the conditioned CZ leaves
    both inputs and the phase untouched on every branch."""
    em = _Emitter(3)
    em.emit("CCX", 0, 1, 2)
    em.drop_temp_and(2, 0, 1)
    return em.finish(
        "temp_and",
        (Register("a", 0, 0), Register("b", 1, 1)),
        {"exceptional": "correct"},
        predicted=StaticResources(3, 3, 1, 1),
    )


def build_adder(width: int) -> BuildReport:
    """In-place adder: |a, b> -> |a, (a + b) mod 2^width>.

    Ripple-carry where each carry is a temporary product (one CCX on the
    compute path, measured away on the return path), so the non-Clifford
    count is width - 1.  Overflow wraps.  width = 1 degenerates to one CX
    and no measurements."""
    if not 1 <= width <= MAX_ADDER_WIDTH:
        raise ValueError(f"adder width must be in 1..{MAX_ADDER_WIDTH}, got {_shown(width)}")
    m = width
    a = list(range(m))
    b = list(range(m, 2 * m))
    em = _Emitter(2 * m)
    if m == 1:
        em.emit("CX", a[0], b[0])
        predicted = StaticResources(2, 1, 0, 0)
    else:
        carry = [em.alloc() for _ in range(m - 1)]
        em.emit("CCX", a[0], b[0], carry[0])
        for i in range(1, m - 1):
            em.emit("CX", carry[i - 1], a[i])
            em.emit("CX", carry[i - 1], b[i])
            em.emit("CCX", a[i], b[i], carry[i])
            em.emit("CX", carry[i - 1], carry[i])
        em.emit("CX", carry[m - 2], b[m - 1])
        em.emit("CX", a[m - 1], b[m - 1])
        for i in range(m - 2, 0, -1):
            em.emit("CX", carry[i - 1], carry[i])
            cb = em.measure(carry[i])
            em.emit("CZ", a[i], b[i], cond=(cb, 1))
            em.emit("CX", carry[i - 1], a[i])
            em.emit("CX", a[i], b[i])
        cb = em.measure(carry[0])
        em.emit("CZ", a[0], b[0], cond=(cb, 1))
        em.emit("CX", a[0], b[0])
        predicted = StaticResources(3 * m - 1, 9 * m - 12, m - 1, m - 1)
    return em.finish(
        "adder",
        (Register("a", 0, m - 1), Register("b", m, 2 * m - 1)),
        {"width": str(m), "exceptional": "wraps"},
        predicted=predicted,
    )


def build_mod_add_const(width: int, constant: int, modulus: int) -> BuildReport:
    """|x> -> |(x + constant) mod modulus> for x < modulus, x unchanged above.

    Synthesized directly as a sparse permutation of the width-bit space;
    states x >= modulus are fixed points, recorded as exceptional inputs
    with undefined-by-contract behavior."""
    if not 1 <= width <= MAX_MOD_ADD_WIDTH:
        raise ValueError(
            f"mod-add width must be in 1..{MAX_MOD_ADD_WIDTH}, got {_shown(width)}"
        )
    if not 1 <= modulus < (1 << width):
        raise ValueError(f"modulus must be in 1..2^width-1, got {_shown(modulus)}")
    if not 0 <= constant < modulus:
        raise ValueError(f"constant must be in 0..modulus-1, got {_shown(constant)}")
    em = _Emitter(width)
    perm = {x: (x + constant) % modulus for x in range(modulus)}
    em.synth_permutation(perm, list(range(width)))
    return em.finish(
        "mod_add_const",
        (Register("x", 0, width - 1),),
        {
            "width": str(width),
            "modulus": str(modulus),
            "constant": str(constant),
            "exceptional": "undefined",
        },
    )


def _iterate_addresses(em: _Emitter, address: Sequence[int], apply_leaf) -> None:
    """Walk all values of the address register MSB-first.

    apply_leaf(control_qubit, index) is invoked once per address value with a
    qubit asserting "address == index".  Internal tree nodes compute their
    child indicator as a temporary product and measure it away afterwards;
    the root level reuses the top address bit itself (X-conjugated for the 0
    branch), which is why the tree costs 2^w - 2 CCX gates, not 2^w - 1."""
    msb = address[-1]
    em.emit("X", msb)
    _address_node(em, address, apply_leaf, msb, 1, 0)
    em.emit("X", msb)
    _address_node(em, address, apply_leaf, msb, 1, 1)


def _address_node(em: _Emitter, address: Sequence[int], apply_leaf, ctrl: int,
                  depth: int, prefix: int) -> None:
    """The subtree of _iterate_addresses under ctrl: not a closure that names
    itself, so the walk leaves no cycle holding the emitter and its gates."""
    w = len(address)
    if depth == w:
        apply_leaf(ctrl, prefix)
        return
    bit = address[w - 1 - depth]
    t = em.alloc()
    em.emit("X", bit)
    em.emit("CCX", ctrl, bit, t)
    em.emit("X", bit)
    _address_node(em, address, apply_leaf, t, depth + 1, prefix << 1)
    em.emit("CX", ctrl, t)
    _address_node(em, address, apply_leaf, t, depth + 1, (prefix << 1) | 1)
    em.drop_temp_and(t, ctrl, bit)


def build_lookup(table: Sequence[int], entry_bits: int | None = None) -> BuildReport:
    """Table read: |k>|0> -> |k>|table[k]>, with a window of w address bits
    for a table of 2^w entries.

    Walks the address space with the iteration tree above and copies each
    entry's bits into the value register under the leaf indicator.  Costs
    exactly 2^w - 2 CCX; a 1-bit window is a single (conjugated) controlled
    copy with no CCX at all."""
    window = (len(table) - 1).bit_length() if len(table) > 1 else 1
    if window > MAX_LOOKUP_WINDOW:
        raise ValueError(f"window must be in 1..{MAX_LOOKUP_WINDOW}, got {window}")
    if len(table) != 1 << window:
        raise ValueError(
            f"table length {len(table)} does not match window {window} "
            f"(need {1 << window})"
        )
    if any(v < 0 for v in table):
        raise ValueError("table entries must be non-negative")
    if entry_bits is None:
        entry_bits = max(1, max(table).bit_length())
    if entry_bits < 1:
        raise ValueError(f"entry_bits must be >= 1, got {_shown(entry_bits)}")
    if window + entry_bits > MAX_QUBITS:  # before any list is sized by entry_bits
        raise ValueError(f"{_shown(window + entry_bits)} qubits exceed the ceiling {MAX_QUBITS}")
    if max(table).bit_length() > entry_bits:
        raise ValueError(f"table entries do not fit in {_shown(entry_bits)} bit(s)")
    address = list(range(window))
    value = list(range(window, window + entry_bits))
    em = _Emitter(window + entry_bits)

    def leaf(ctrl: int, index: int) -> None:
        for j in range(entry_bits):
            if (table[index] >> j) & 1:
                em.emit("CX", ctrl, value[j])

    _iterate_addresses(em, address, leaf)
    k = Register("k", 0, window - 1)
    report = em.finish(
        "lookup",
        (k,),
        {
            "window": str(window),
            "entry_bits": str(entry_bits),
            "exceptional": "correct",
        },
        outputs=(k, Register("v", window, window + entry_bits - 1)),
    )
    emitted, expected = report.predicted.non_clifford_gate_count, (1 << window) - 2
    if emitted != expected:
        raise CircuitError(f"lookup tree emitted {emitted} CCX, expected {expected}")
    return report


def _pointadd_mapping(curve: CurveParams, base: CurvePoint) -> dict[int, int]:
    nb = curve.coordinate_bits
    return {
        encode_point(q, nb): encode_point(point_add(q, base, curve), nb)
        for q in enumerate_points(curve)
    }


def build_pointadd_permutation(curve: CurveParams, base: CurvePoint) -> BuildReport:
    """Fixed-point curve addition |Q> -> |Q + base> as a basis permutation.

    The table covers every on-curve Q including the identity (all-ones
    encoding), so identity, inverse and doubling inputs are all handled;
    off-curve encodings are fixed points.  Adding the identity yields an
    empty circuit.  Requires an enumerable curve."""
    metadata = _point_metadata(curve, base)
    nb = curve.coordinate_bits
    em = _Emitter(2 * nb)
    em.synth_permutation(_pointadd_mapping(curve, base), list(range(2 * nb)))
    return em.finish(
        "permutation_pointadd",
        (Register("qx", 0, nb - 1), Register("qy", nb, 2 * nb - 1)),
        metadata,
    )


def build_windowed_pointadd(
    curve: CurveParams, base: CurvePoint, window: int
) -> BuildReport:
    """Windowed curve addition |k>|Q> -> |k>|Q + k*base>.

    Composes the address-iteration tree with one fixed-point addition
    permutation per window value: leaf k applies the |Q> -> |Q + k*base>
    chain under the leaf indicator.  Window value 0 has table entry identity
    and contributes no gates.  The tree's 2^w - 2 CCX cost is surfaced as
    lookup overhead in the report."""
    if not 1 <= window <= MAX_POINT_WINDOW:
        raise ValueError(f"window must be in 1..{MAX_POINT_WINDOW}, got {_shown(window)}")
    metadata = _point_metadata(curve, base)
    nb = curve.coordinate_bits
    data = list(range(window, window + 2 * nb))
    em = _Emitter(window + 2 * nb)
    tables = {
        k: _pointadd_mapping(curve, scalar_mul(k, base, curve))
        for k in range(1 << window)
    }

    def leaf(ctrl: int, index: int) -> None:
        em.synth_permutation(tables[index], data, extra_control=ctrl)

    _iterate_addresses(em, list(range(window)), leaf)
    return em.finish(
        "windowed_pointadd",
        (
            Register("k", 0, window - 1),
            Register("qx", window, window + nb - 1),
            Register("qy", window + nb, window + 2 * nb - 1),
        ),
        {**metadata, "window": str(window)},
        lookup_overhead_non_clifford=(1 << window) - 2,
    )


# ---------------------------------------------------------------------------
# mutation


def mutate(circuit: Circuit, seed: int) -> Circuit:
    """One deterministic structural edit, chosen by seed.

    Picks among: retargeting one operand of a gate to a different qubit,
    dropping a gate (never a measurement some condition depends on), or
    flipping the required value of a conditioned gate.  The result is always
    structurally valid; it is *intended* to be functionally wrong, which the
    verification harness should then catch."""
    rng = random.Random(seed)
    gates = list(circuit.gates)
    if not gates:
        raise ValueError("circuit has no gates to mutate")
    depended_cbits = {g.condition[0] for g in gates if g.condition is not None}

    sites = {
        "retarget": [i for i, g in enumerate(gates) if circuit.qubit_count > len(g.qubits)],
        "drop": [i for i, g in enumerate(gates)
                 if g.kind != "MX" or g.cbit not in depended_cbits],
        "toggle": [i for i, g in enumerate(gates) if g.condition is not None],
    }
    # a non-empty gate list always has a gate to drop
    kind = rng.choice([kind for kind, found in sites.items() if found])
    i = rng.choice(sites[kind])
    gate = gates[i]
    if kind == "retarget":
        pos = rng.randrange(len(gate.qubits))
        new_q = rng.choice([q for q in range(circuit.qubit_count) if q not in gate.qubits])
        gates[i] = gate._replace(qubits=gate.qubits[:pos] + (new_q,) + gate.qubits[pos + 1 :])
    elif kind == "drop":
        del gates[i]
    else:
        cb, val = gate.condition
        gates[i] = gate._replace(condition=(cb, 1 - val))
    return circuit._replace(gates=tuple(gates))
