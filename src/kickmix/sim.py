"""Classical simulation of kickmix circuits on basis states.

Every gate in the set maps computational basis states to basis states, so a
run tracks a bit vector plus a global sign:

* X / CX / CCX flip the target when all controls are 1;
* Z / CZ / CCZ flip the sign exactly when every operand bit is 1;
* MX draws an outcome bit r from caller-supplied randomness.  On r = 1 the
  sign picks up (-1)^bit for the measured qubit (the phase kickback left by
  measuring out a temporary product); the outcome is stored in the
  destination classical bit and the measured qubit resets to 0.

Conditioned gates execute only when their classical bit matches; skipped
gates contribute nothing to the executed-gate counters.

Measurement randomness is injected as an iterable of 0/1 bits, which makes
runs reproducible and lets callers enumerate outcome branches exhaustively.
For circuits whose conditioned gates are all diagonal, the branch space
factorizes per measurement, and :func:`check_phase_all_branches` delivers an
exact all-branch verdict from a single instrumented pass — no enumeration.
That pass, :func:`_lane_pass`, runs many inputs at once and states its
algebra.  It reads the circuit's program; :func:`run` stays the reference,
over its gates.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .circuit import PERMUTATION_KINDS, Circuit, _Record

__all__ = [
    "RngExhausted",
    "RunResult",
    "LaneResult",
    "run",
    "run_all_measurement_branches",
    "check_phase_all_branches",
    "DEFAULT_BRANCH_LIMIT",
]

DEFAULT_BRANCH_LIMIT = 20


class RngExhausted(RuntimeError):
    """The injected randomness ran out before the last measurement."""


class RunResult(_Record):
    """Outcome of one simulated run.

    outputs maps each output register name to its integer value;
    measurements holds one entry per classical bit (None if never written);
    final_bits is the raw qubit vector for diagnostics.
    """

    __slots__ = _fields = ("outputs", "phase", "measurements", "executed_total",
                           "executed_non_clifford", "final_bits")

    def __init__(self, outputs: dict[str, int], phase: int, measurements: tuple[int | None, ...],
                 executed_total: int, executed_non_clifford: int,
                 final_bits: tuple[int, ...]) -> None:
        self._set(outputs, phase, measurements, executed_total, executed_non_clifford,
                  final_bits)


def _initial_bits(circuit: Circuit, inputs: Mapping[str, int]) -> list[int]:
    declared = {reg.name for reg in circuit.inputs}
    unknown = sorted(set(inputs) - declared)
    if unknown:
        raise ValueError(f"no such input register(s): {', '.join(unknown)}")
    missing = sorted(declared - set(inputs))
    if missing:
        raise ValueError(f"missing input register(s): {', '.join(missing)}")
    bits = [0] * circuit.qubit_count
    for reg in circuit.inputs:
        value = inputs[reg.name]
        if not 0 <= value < (1 << reg.width):
            raise ValueError(
                f"value {value} does not fit input register "
                f"{reg.name!r} ({reg.width} bit(s))"
            )
        for offset in range(reg.width):
            bits[reg.lo + offset] = (value >> offset) & 1
    return bits


def _read_register(bits: Sequence[int], lo: int, hi: int) -> int:
    value = 0
    for q in range(hi, lo - 1, -1):
        value = (value << 1) | bits[q]
    return value


def run(
    circuit: Circuit,
    inputs: Mapping[str, int],
    rng: Iterable[int],
    trace: Callable[[str], None] | None = None,
) -> RunResult:
    """Execute the circuit on a basis-state input.

    inputs assigns an integer to every declared input register; all other
    qubits start at 0.  rng supplies one bit per executed measurement and
    raising :class:`RngExhausted` if it runs dry.  An optional trace callback
    receives one line per executed gate.
    """
    bits = _initial_bits(circuit, inputs)
    cbits: list[int | None] = [None] * circuit.classical_bit_count
    phase = 1
    executed_total = 0
    executed_non_clifford = 0
    rng_iter: Iterator[int] = iter(rng)

    for index, (kind, qs, cbit, condition) in enumerate(circuit.gates):
        if condition is not None and cbits[condition[0]] != condition[1]:
            continue
        if kind == "MX":
            try:
                outcome = next(rng_iter)
            except StopIteration:
                raise RngExhausted(
                    f"measurement randomness exhausted at gate {index}"
                ) from None
            if outcome not in (0, 1):
                raise ValueError(f"measurement randomness must be bits, got {outcome!r}")
            if outcome and bits[qs[0]]:
                phase = -phase
            cbits[cbit] = outcome
            bits[qs[0]] = 0
        elif kind in ("X", "CX", "CCX"):
            if all(bits[q] for q in qs[:-1]):
                bits[qs[-1]] ^= 1
            if kind == "CCX":
                executed_non_clifford += 1
        else:  # Z / CZ / CCZ
            if all(bits[q] for q in qs):
                phase = -phase
            if kind == "CCZ":
                executed_non_clifford += 1
        executed_total += 1
        if trace is not None:
            trace(f"{index:5d} {kind} {' '.join(map(str, qs))} phase={phase:+d}")

    outputs = {
        reg.name: _read_register(bits, reg.lo, reg.hi) for reg in circuit.outputs
    }
    return RunResult(
        outputs=outputs,
        phase=phase,
        measurements=tuple(cbits),
        executed_total=executed_total,
        executed_non_clifford=executed_non_clifford,
        final_bits=tuple(bits),
    )


def run_all_measurement_branches(
    circuit: Circuit,
    inputs: Mapping[str, int],
    branch_limit: int = DEFAULT_BRANCH_LIMIT,
) -> list[RunResult]:
    """Run every measurement-outcome branch, in lexicographic outcome order.

    The outcome tuple feeds measurements in execution order.  Refuses
    circuits with more than branch_limit measurements (2^m branches); sample
    with :func:`run` or use :func:`check_phase_all_branches` instead.
    """
    m = len(circuit.facts.measured)
    if m > branch_limit:
        raise ValueError(
            f"{m} measurements give 2^{m} branches, beyond the limit of "
            f"2^{branch_limit}; sample with run() or use "
            "check_phase_all_branches() for a closed-form verdict"
        )
    return [
        run(circuit, inputs, outcomes)
        for outcomes in itertools.product((0, 1), repeat=m)
    ]


class LaneResult(_Record):
    """The verdict of :func:`check_phase_all_branches` on one input.

    outputs and final_bits hold on every measurement branch.
    phase_always_plus_one says whether the sign is +1 on every branch, and
    phase_defects are the classical bits whose r=0 and r=1 halves disagree.
    The executed counts are those of the all-zeros branch.
    """

    __slots__ = _fields = ("outputs", "phase_always_plus_one", "phase_defects",
                           "executed_total", "executed_non_clifford", "final_bits")

    def __init__(self, outputs: dict[str, int], phase_always_plus_one: bool,
                 phase_defects: tuple[int, ...], executed_total: int,
                 executed_non_clifford: int, final_bits: tuple[int, ...]) -> None:
        self._set(outputs, phase_always_plus_one, phase_defects, executed_total,
                  executed_non_clifford, final_bits)


def _lane_planes(circuit: Circuit, slot_inputs: Sequence[Mapping[str, int]]) -> list[int]:
    """One int per qubit whose bit s is that qubit's initial value in slot s."""
    planes = [0] * circuit.qubit_count
    for s, inputs in enumerate(slot_inputs):
        for q, bit in enumerate(_initial_bits(circuit, inputs)):
            if bit:
                planes[q] |= 1 << s
    return planes


def _lane_pass(circuit: Circuit, lane_inputs: Sequence[Mapping[str, int]],
               words: Sequence[int] | None):
    """Simulate many basis-state runs in one bitwise pass (bitslicing), and
    return them in columns: (lane_slot, reads, [signs, executed_total,
    executed_non_clifford]).

    Lanes map to slots, one per distinct inputs object: lanes that hold one
    mapping share its slot, and equal mappings held apart get one each (so a
    lane whose inputs are invalid raises what it raises alone).  lane_slot[j]
    is lane j's slot, numbered in order of first lane.  Each qubit is one int
    whose bit s holds slot s, so CCX is ``q[t] ^= q[a] & q[b]`` for every
    slot at once.  reads[s] is slot s's (final_bits, outputs,
    phase_always_plus_one, phase_defects), read once and shared by its
    lanes; each column holds one entry per lane.

    The pass reads the circuit's program, a shape and (for a gate with a
    bit) a classical-bit number per gate, and keeps one plane per measured
    bit.  MX starts plane i, that of its bit c_i, with the measured plane v_i
    and clears the qubit.  A diagonal gate XORs its parity into the
    zero-branch plane, or into plane i when conditioned on c_i, and into
    both when conditioned on c_i = 0.  So plane i is v_i ^ corr0_i ^ corr1_i
    (corr0_i / corr1_i: the parities conditioned on c_i = 0 / 1), its set
    bits are the slots whose two halves of measurement i disagree, and the
    sign on branch r is

        zero-branch plane  XOR  XOR_i r_i & plane_i.

    So a slot is clean on every branch iff its bit is 0 in the zero-branch
    plane and in every plane i, and its defects are the bits whose plane has
    it.  Only the non-zero planes are visited after the gate loop, in bit
    order.

    words[j], when given, is lane j's measurement randomness: the first m
    bits of its stream read as one big-endian int, so measurement i (in gate
    order) is bit m-1-i.  Lane j's sign and executed counts are exact on
    that branch; without words the signs are None and the counts are those
    of the all-zeros branch.  When no sign plane is set, every lane's sign
    is +1 and the sign column is made with no per-lane scan.

    A conditioned X/CX/CCX acts only on the lanes whose own outcome matches
    its condition, so every lane follows its own branch in a slot of its own
    (the slot of lane j is j), and the sign formula still holds on it; the
    all-branch verdict does not (the branch space no longer factorizes), so
    it is None and ().  Without words such a gate raises ValueError."""
    facts = circuit.facts
    top = len(facts.measured) - 1  # measurement i is stream-word bit top - i
    table, index, numbers = circuit.program
    # A conditioned X/CX/CCX makes the data bits follow each lane's branch;
    # otherwise they and the planes depend only on the inputs.
    follows = not facts.conditioned_kinds.isdisjoint(PERMUTATION_KINDS)
    # A lane shares a slot only with lanes that hold its very inputs object:
    # every key is the id of an object that slot_inputs holds for the whole
    # pass, so a later lane can match it only by being that same object.
    # Lanes that follow their own branches key their slots by lane index.
    own = follows and words is not None
    slots: dict[int, int] = {}  # slot key -> slot index, in order of first lane
    slot_inputs = []
    lane_slot = []
    for j, inputs in enumerate(lane_inputs):
        s = slots.setdefault(j if own else id(inputs), len(slot_inputs))
        if s == len(slot_inputs):
            slot_inputs.append(inputs)
        lane_slot.append(s)
    q = _lane_planes(circuit, slot_inputs)
    if follows and words is None:
        i = next(i for i, j in enumerate(index)
                 if table[j].condition is not None and table[j].kind in PERMUTATION_KINDS)
        raise ValueError(f"gate {i} is a conditioned {table[index[i]].kind}: branch space does "
                         "not factorize; check it with sampled verification instead")
    full = (1 << len(slot_inputs)) - 1
    zero = 0  # the sign plane of the all-zeros branch
    planes: dict[int, int] = {}  # measured bit -> its plane
    numbers = iter(numbers)
    # cbit -> lanes whose own outcome is 1; filled iff a conditioned X/CX/CCX ran
    outcomes: dict[int, int] = {}
    for kind, qs, _, cond in map(table.__getitem__, index):
        if kind == "CCX":
            a, b, t = qs
            flip = q[a] & q[b]
        elif kind == "CX":
            a, t = qs
            flip = q[a]
        elif kind == "X":
            (t,) = qs
            flip = full
        elif kind == "MX":
            (a,) = qs
            planes[next(numbers)] = q[a]
            q[a] = 0
            continue
        else:
            if kind == "CCZ":
                a, b, c = qs
                parity = q[a] & q[b] & q[c]
            elif kind == "CZ":
                a, b = qs
                parity = q[a] & q[b]
            else:
                parity = q[qs[0]]
            if cond is None:
                zero ^= parity
            else:
                planes[next(numbers)] ^= parity
                if not cond[1]:
                    zero ^= parity
            continue
        if cond is not None:  # words is not None: checked above
            cb = next(numbers)
            if cb not in outcomes:
                shift = top - facts.measured[cb]
                outcomes[cb] = sum((w >> shift & 1) << j for j, w in enumerate(words))
            flip &= outcomes[cb] if cond[1] else outcomes[cb] ^ full
        q[t] ^= flip

    defect_words: dict[int, int] = {}
    defects: dict[int, list[int]] = {}
    for cb in sorted(filter(planes.__getitem__, planes)):
        plane = planes[cb]
        bit = 1 << (top - facts.measured[cb])
        while plane:
            low = plane & -plane
            s = low.bit_length() - 1
            defect_words[s] = defect_words.get(s, 0) | bit
            defects.setdefault(s, []).append(cb)
            plane ^= low

    reads = []
    for s in range(len(slot_inputs)):
        bits = tuple((plane >> s) & 1 for plane in q)
        outputs = {reg.name: _read_register(bits, reg.lo, reg.hi) for reg in circuit.outputs}
        verdict = None if outcomes else not (zero >> s) & 1 and s not in defect_words
        reads.append((bits, outputs, verdict, () if outcomes else tuple(defects.get(s, ()))))

    lanes = len(lane_slot)
    if words is None:
        signs = [None] * lanes
    elif zero or defect_words:
        signs = [-1 if (zero >> s) & 1 ^ ((w & defect_words.get(s, 0)).bit_count() & 1) else 1
                 for s, w in zip(lane_slot, words)]
    else:  # no sign plane is set: +1 on every branch of every lane
        signs = [1] * lanes
    columns = [signs]
    for constant, steps in facts.executed:
        column = [constant] * lanes
        for step, mask in () if words is None else steps:
            column = [n + step * (w & mask).bit_count() for n, w in zip(column, words)]
        columns.append(column)
    return lane_slot, reads, columns


def check_phase_all_branches(circuit: Circuit, inputs: Mapping[str, int]) -> LaneResult:
    """Exact all-branch phase/output verdict from one instrumented pass.

    Requires every conditioned gate to be diagonal (Z/CZ/CCZ).  Then the data
    bits never depend on measurement outcomes, and the sign over a branch
    splits into independent per-measurement factors, so one
    :func:`_lane_pass` over this input decides all 2^m branches; its
    docstring states the algebra.  Cross-validated against brute-force
    branch enumeration in the test suite; raises ValueError when a
    conditioned permutation gate makes it inapplicable.
    """
    _, [(bits, outputs, verdict, defects)], (_, [total], [nc]) = _lane_pass(
        circuit, [inputs], None)
    return LaneResult(outputs=outputs, phase_always_plus_one=verdict, phase_defects=defects,
                      executed_total=total, executed_non_clifford=nc, final_bits=bits)
