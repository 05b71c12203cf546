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
:func:`run_lanes` makes that pass for many inputs at once, one bit per input
in each qubit's int, and also gives each lane's exact sign and executed
counts on its own sampled branch.  :func:`run` stays the reference.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .circuit import Circuit, static_resources

__all__ = [
    "RngExhausted",
    "RunResult",
    "BranchInvariant",
    "LaneResult",
    "run",
    "run_lanes",
    "run_all_measurement_branches",
    "check_phase_all_branches",
    "DEFAULT_BRANCH_LIMIT",
]

DEFAULT_BRANCH_LIMIT = 20


class RngExhausted(RuntimeError):
    """The injected randomness ran out before the last measurement."""


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated run.

    outputs maps each output register name to its integer value;
    measurements holds one entry per classical bit (None if never written);
    final_bits is the raw qubit vector for diagnostics.
    """

    outputs: dict[str, int]
    phase: int
    measurements: tuple[int | None, ...]
    executed_total: int
    executed_non_clifford: int
    final_bits: tuple[int, ...]


@dataclass(frozen=True)
class BranchInvariant:
    """Exact summary over all 2^m measurement branches of one input.

    Output bits are measurement-independent whenever every conditioned gate
    is diagonal, so `outputs` applies to every branch.  The sign on a branch
    with outcomes r is a product of one factor per measurement plus a fixed
    contribution, so phase_always_plus_one is decided by comparing the two
    halves of the branch space per measurement — checked in one pass.
    phase_defects lists classical bits whose r=0 / r=1 halves disagree.
    """

    outputs: dict[str, int]
    phase_always_plus_one: bool
    measurement_count: int
    phase_defects: tuple[int, ...]
    final_bits: tuple[int, ...]


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

    for index, gate in enumerate(circuit.gates):
        if gate.condition is not None:
            cb, wanted = gate.condition
            if cbits[cb] != wanted:
                continue
        kind = gate.kind
        qs = gate.qubits
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
            cbits[gate.cbit] = outcome
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
    m = static_resources(circuit).measurement_count
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


@dataclass(frozen=True)
class LaneResult:
    """One lane of :func:`run_lanes`.

    outputs and final_bits hold on every measurement branch.
    phase_always_plus_one and phase_defects are the all-branch verdict of
    :func:`check_phase_all_branches` (None and () on the scalar fallback).
    phase is the sign on the lane's own branch (None without a stream word);
    the executed counts are taken on that branch, or on the all-zeros branch
    without a stream word.
    """

    outputs: dict[str, int]
    phase: int | None
    phase_always_plus_one: bool | None
    phase_defects: tuple[int, ...]
    executed_total: int
    executed_non_clifford: int
    final_bits: tuple[int, ...]


def _lane_planes(circuit: Circuit, lane_inputs: Sequence[Mapping[str, int]]) -> list[int]:
    """One int per qubit whose bit j is that qubit's initial value in lane j."""
    planes = [0] * circuit.qubit_count
    for j, inputs in enumerate(lane_inputs):
        for q, bit in enumerate(_initial_bits(circuit, inputs)):
            if bit:
                planes[q] |= 1 << j
    return planes


def _executed_count(circuit: Circuit, position: Mapping[int, int], non_clifford: bool):
    """Executed gates as a constant plus per-measurement steps.

    A gate conditioned on (c, v) runs iff measurement c came out v, so the
    count on a branch is the all-zeros count plus, for every measurement
    that came out 1, the gates it enables minus those it disables.  Returns
    (all-zeros count, [(step, mask of stream-word bits with that step)])."""
    counts = Counter(
        g.condition for g in circuit.gates if not non_clifford or g.is_non_clifford
    )
    constant = counts[None]
    masks: dict[int, int] = {}
    for cb, pos in position.items():
        constant += counts[(cb, 0)]
        step = counts[(cb, 1)] - counts[(cb, 0)]
        if step:
            masks[step] = masks.get(step, 0) | (1 << pos)
    return constant, list(masks.items())


def _word_bits(word: int, count: int) -> Iterator[int]:
    return ((word >> shift) & 1 for shift in range(count - 1, -1, -1))


def run_lanes(
    circuit: Circuit,
    lane_inputs: Sequence[Mapping[str, int]],
    words: Sequence[int] | None = None,
) -> list[LaneResult]:
    """Simulate many basis-state runs in one bitwise pass (bitslicing).

    Each qubit is one int whose bit j holds lane j, so CCX is
    ``q[t] ^= q[a] & q[b]`` for every lane at once.  MX records the measured
    plane v_i and clears the qubit; diagonal gates XOR their parity into a
    base plane, or into corr0_i / corr1_i when conditioned on c_i = 0 / 1.
    The sign on branch r is then (see :func:`check_phase_all_branches`)

        zero-branch parity  XOR  XOR_i r_i & (v_i ^ corr0_i ^ corr1_i),

    so a lane is clean on every branch iff its zero-branch parity and all
    its defect bits v_i ^ corr0_i ^ corr1_i are 0.

    words[j], when given, is lane j's measurement randomness: the first m
    bits of its stream read as one big-endian int, so measurement i (in gate
    order) is bit m-1-i.  The lane's phase and executed counts are exact on
    that branch.  Circuits with a conditioned X/CX/CCX do not factorize;
    they run lane by lane through :func:`run` when words are given and are
    refused with ValueError otherwise.
    """
    m = sum(1 for g in circuit.gates if g.kind == "MX")
    blocker = next(
        (
            (index, g.kind)
            for index, g in enumerate(circuit.gates)
            if g.condition is not None and not g.is_diagonal
        ),
        None,
    )
    if blocker is not None and words is not None:
        return [
            _scalar_lane(run(circuit, inputs, _word_bits(word, m)))
            for inputs, word in zip(lane_inputs, words)
        ]
    q = _lane_planes(circuit, lane_inputs)
    if blocker is not None:
        raise ValueError(
            f"gate {blocker[0]} is a conditioned {blocker[1]}: branch space does "
            "not factorize; use run_all_measurement_branches instead"
        )

    full = (1 << len(lane_inputs)) - 1
    base = 0
    measured: dict[int, int] = {}
    corr: dict[tuple[int, int], int] = {}
    for gate in circuit.gates:
        kind = gate.kind
        qs = gate.qubits
        if kind == "CCX":
            a, b, t = qs
            q[t] ^= q[a] & q[b]
        elif kind == "CX":
            a, t = qs
            q[t] ^= q[a]
        elif kind == "X":
            q[qs[0]] ^= full
        elif kind == "MX":
            measured[gate.cbit] = q[qs[0]]
            q[qs[0]] = 0
        else:
            if kind == "CCZ":
                a, b, c = qs
                parity = q[a] & q[b] & q[c]
            elif kind == "CZ":
                a, b = qs
                parity = q[a] & q[b]
            else:
                parity = q[qs[0]]
            cond = gate.condition
            if cond is None:
                base ^= parity
            else:
                corr[cond] = corr.get(cond, 0) ^ parity

    position = {cb: m - 1 - i for i, cb in enumerate(measured)}
    zero = base
    defect_words: dict[int, int] = {}
    defects: dict[int, list[int]] = {}
    for cb in sorted(measured):
        c0 = corr.get((cb, 0), 0)
        zero ^= c0
        plane = measured[cb] ^ c0 ^ corr.get((cb, 1), 0)
        bit = 1 << position[cb]
        while plane:
            low = plane & -plane
            j = low.bit_length() - 1
            defect_words[j] = defect_words.get(j, 0) | bit
            defects.setdefault(j, []).append(cb)
            plane ^= low
    total0, total_steps = _executed_count(circuit, position, non_clifford=False)
    nc0, nc_steps = _executed_count(circuit, position, non_clifford=True)

    results = []
    for j in range(len(lane_inputs)):
        bits = tuple((plane >> j) & 1 for plane in q)
        zero_j = (zero >> j) & 1
        defect = defect_words.get(j, 0)
        phase = None
        total, nc = total0, nc0
        if words is not None:
            word = words[j]
            phase = -1 if zero_j ^ ((word & defect).bit_count() & 1) else 1
            total += sum(step * (word & mask).bit_count() for step, mask in total_steps)
            nc += sum(step * (word & mask).bit_count() for step, mask in nc_steps)
        results.append(
            LaneResult(
                outputs={
                    reg.name: _read_register(bits, reg.lo, reg.hi)
                    for reg in circuit.outputs
                },
                phase=phase,
                phase_always_plus_one=not zero_j and not defect,
                phase_defects=tuple(defects.get(j, ())),
                executed_total=total,
                executed_non_clifford=nc,
                final_bits=bits,
            )
        )
    return results


def _scalar_lane(result: RunResult) -> LaneResult:
    return LaneResult(
        outputs=result.outputs,
        phase=result.phase,
        phase_always_plus_one=None,
        phase_defects=(),
        executed_total=result.executed_total,
        executed_non_clifford=result.executed_non_clifford,
        final_bits=result.final_bits,
    )


def check_phase_all_branches(
    circuit: Circuit, inputs: Mapping[str, int]
) -> BranchInvariant:
    """Exact all-branch phase/output verdict from one instrumented pass.

    Requires every conditioned gate to be diagonal (Z/CZ/CCZ).  Then the data
    bits never depend on measurement outcomes, and the total sign over a
    branch splits into independent per-measurement factors:

        sign(r) = (-1)^base * prod_i (-1)^[r_i*v_i + corr_i(r_i)]

    where v_i is the measured bit and corr_i(r_i) the parity contributed by
    diagonal gates conditioned on classical bit i.  The sign is +1 on every
    one of the 2^m branches iff each measurement's two halves agree
    (corr_i(0) == v_i + corr_i(1) mod 2) and the all-zeros branch is +1.

    This is a one-lane :func:`run_lanes` call.  Cross-validated against
    brute-force branch enumeration in the test suite; raises ValueError when
    a conditioned permutation gate makes the factorization inapplicable.
    """
    [lane] = run_lanes(circuit, [inputs])
    return BranchInvariant(
        outputs=lane.outputs,
        phase_always_plus_one=lane.phase_always_plus_one,
        measurement_count=sum(1 for g in circuit.gates if g.kind == "MX"),
        phase_defects=lane.phase_defects,
        final_bits=lane.final_bits,
    )
