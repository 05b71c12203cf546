"""Builder outputs checked exhaustively against plain integer/curve oracles.

Every builder's circuit is small enough to check on its whole input domain,
so these tests never sample: adders against integer addition, lookups
against list indexing, curve circuits against the chord-and-tangent oracle.
Branch cleanliness (phase +1 on every measurement branch) rides along via
the closed-form checker, which test_sim.py validates independently.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

import kickmix.builders as builders_module
from kickmix import (
    INFINITY,
    BuildReport,
    Circuit,
    CircuitError,
    CurveParams,
    CurvePoint,
    Gate,
    StaticResources,
    build_adder,
    build_lookup,
    build_mod_add_const,
    build_pointadd_permutation,
    build_temp_and,
    build_windowed_pointadd,
    check_phase_all_branches,
    decode_point,
    encode_point,
    enumerate_points,
    is_on_curve,
    mutate,
    named_curve,
    parse,
    point_add,
    run,
    run_all_measurement_branches,
    scalar_mul,
    serialize,
)
from kickmix.circuit import MAX_QUBITS

_ZEROS = itertools.repeat(0)


def test_temp_and_report_shape() -> None:
    report = build_temp_and()
    assert report.predicted == StaticResources(3, 3, 1, 1)
    assert report.construction == "temp_and"
    sidecar = report.sidecar_dict()
    assert sidecar["construction"] == "temp_and"
    assert sidecar["predicted"]["non_clifford_gate_count"] == 1
    assert "lookup_overhead_non_clifford" not in sidecar


def test_build_report_rejects_wrong_predictions() -> None:
    circuit = build_temp_and().circuit
    with pytest.raises(CircuitError, match="predicted"):
        BuildReport(
            circuit=circuit,
            predicted=StaticResources(3, 99, 1, 1),
            construction="temp_and",
        )


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_adder_matches_integer_addition_exhaustively(width: int) -> None:
    circuit = build_adder(width).circuit
    size = 1 << width
    for a in range(size):
        for b in range(size):
            result = run(circuit, {"a": a, "b": b}, _ZEROS)
            assert result.outputs["a"] == a
            assert result.outputs["b"] == (a + b) % size
            assert result.phase == 1


def test_adder_is_phase_clean_on_every_branch() -> None:
    circuit = build_adder(3).circuit
    for a in range(8):
        for b in range(8):
            invariant = check_phase_all_branches(circuit, {"a": a, "b": b})
            assert invariant.phase_always_plus_one
            assert invariant.outputs == {"a": a, "b": (a + b) % 8}


@pytest.mark.parametrize(
    "width,resources",
    [
        (1, StaticResources(2, 1, 0, 0)),
        (2, StaticResources(5, 6, 1, 1)),
        (3, StaticResources(8, 15, 2, 2)),
        (4, StaticResources(11, 24, 3, 3)),
    ],
)
def test_adder_resource_counts(width: int, resources: StaticResources) -> None:
    report = build_adder(width)
    assert report.predicted == resources
    # one temporary product per carry: non-Clifford count is width - 1
    assert report.predicted.non_clifford_gate_count == max(0, width - 1)
    assert report.predicted.measurement_count == max(0, width - 1)


def test_adder_metadata_and_width_errors() -> None:
    assert build_adder(2).circuit.metadata["exceptional"] == "wraps"
    assert build_adder(2).circuit.metadata["width"] == "2"
    with pytest.raises(ValueError, match="adder width must be in 1..16"):
        build_adder(0)
    with pytest.raises(ValueError, match="adder width must be in 1..16"):
        build_adder(17)


def test_mod_add_const_exhaustive() -> None:
    circuit = build_mod_add_const(4, 5, 11).circuit
    assert circuit.metadata["exceptional"] == "undefined"
    for x in range(16):
        invariant = check_phase_all_branches(circuit, {"x": x})
        expected = (x + 5) % 11 if x < 11 else x  # states >= modulus are fixed
        assert invariant.outputs == {"x": expected}, x
        assert invariant.phase_always_plus_one, x
    assert check_phase_all_branches(circuit, {"x": 9}).outputs == {"x": 3}


def test_mod_add_const_at_width_2_matches_integers_on_every_branch() -> None:
    # at width 2 each transposition's multi-controlled X has one control
    for modulus in range(1, 4):
        for constant in range(modulus):
            circuit = build_mod_add_const(2, constant, modulus).circuit
            for x in range(4):
                expected = {"x": (x + constant) % modulus if x < modulus else x}
                for result in run_all_measurement_branches(circuit, {"x": x}):
                    assert (result.outputs, result.phase) == (expected, 1), (modulus, constant)
                invariant = check_phase_all_branches(circuit, {"x": x})
                assert invariant.outputs == expected and invariant.phase_always_plus_one


def test_mod_add_const_parameter_errors() -> None:
    with pytest.raises(ValueError, match="mod-add width must be in 1..12"):
        build_mod_add_const(0, 0, 1)
    with pytest.raises(ValueError, match="mod-add width must be in 1..12"):
        build_mod_add_const(13, 0, 1)
    with pytest.raises(ValueError, match=r"modulus must be in 1..2\^width-1"):
        build_mod_add_const(4, 0, 16)
    with pytest.raises(ValueError, match="constant must be in 0..modulus-1"):
        build_mod_add_const(4, 11, 11)


@pytest.mark.parametrize(
    "window,table",
    [
        (1, [1, 0]),
        (2, [3, 0, 2, 1]),
        (3, [5, 0, 7, 3, 1, 6, 2, 4]),
        (4, [(7 * k + 3) % 16 for k in range(16)]),
    ],
)
def test_lookup_matches_indexing_for_every_address(window: int, table: list[int]) -> None:
    report = build_lookup(table)
    circuit = report.circuit
    expected_nc = (1 << window) - 2 if window >= 2 else 0
    assert report.predicted.non_clifford_gate_count == expected_nc
    for k in range(1 << window):
        invariant = check_phase_all_branches(circuit, {"k": k})
        assert invariant.outputs["k"] == k
        assert invariant.outputs["v"] == table[k], k
        assert invariant.phase_always_plus_one, k


def test_lookup_frozen_resource_counts() -> None:
    report = build_lookup([5, 0, 7, 3, 1, 6, 2, 4])
    assert report.predicted == StaticResources(8, 50, 6, 6)


def test_lookup_entry_bits_and_errors() -> None:
    wide = build_lookup([1, 0], entry_bits=5)
    value_reg = next(r for r in wide.circuit.outputs if r.name == "v")
    assert value_reg.width == 5
    with pytest.raises(ValueError, match=r"do not fit in 2 bit\(s\)"):
        build_lookup([4, 0], entry_bits=2)
    for entry_bits in (0, -3):
        with pytest.raises(ValueError, match=f"^entry_bits must be >= 1, got {entry_bits}$"):
            build_lookup([1, 0], entry_bits=entry_bits)
    with pytest.raises(ValueError, match="does not match window"):
        build_lookup([1, 2, 3])
    with pytest.raises(ValueError, match="non-negative"):
        build_lookup([-1, 0])
    with pytest.raises(ValueError, match="window must be in 1..8"):
        build_lookup(list(range(512)))


def test_lookup_refuses_a_tree_that_emits_another_ccx_count(monkeypatch) -> None:
    walk = builders_module._iterate_addresses

    def one_more(em, address, apply_leaf) -> None:
        walk(em, address, apply_leaf)
        em.drop_temp_and(em.temp_and(address[0], address[1]), address[0], address[1])

    monkeypatch.setattr(builders_module, "_iterate_addresses", one_more)
    with pytest.raises(CircuitError, match="^lookup tree emitted 3 CCX, expected 2$"):
        build_lookup([5, 0, 7, 3])


def test_synth_permutation_refuses_a_mapping_that_is_no_permutation() -> None:
    em = builders_module._Emitter(2)
    with pytest.raises(CircuitError, match="^permutation entry 1->4 outside 2 bits$"):
        em.synth_permutation({1: 4, 4: 1}, [0, 1])
    with pytest.raises(CircuitError, match=r"^mapping is not a permutation \(moved set not"):
        em.synth_permutation({0: 1, 1: 2}, [0, 1])


def test_lookup_refuses_more_qubits_than_the_ceiling_before_building(monkeypatch) -> None:
    assert build_lookup([1, 0], entry_bits=MAX_QUBITS - 1).circuit.qubit_count == MAX_QUBITS
    # the refusal comes before any gate is emitted, so its cost is not sized
    # by entry_bits
    monkeypatch.setattr(builders_module, "_Emitter", None)
    for entry_bits in (MAX_QUBITS, 10**6):
        with pytest.raises(
            ValueError, match=f"^{entry_bits + 1} qubits exceed the ceiling {MAX_QUBITS}$"
        ):
            build_lookup([1, 0], entry_bits=entry_bits)


def test_point_encoding_round_trips_and_reserves_all_ones(toy11) -> None:
    nb = toy11.coordinate_bits
    for point in enumerate_points(toy11):
        assert decode_point(encode_point(point, nb), nb) == point
    assert encode_point(INFINITY, nb) == (1 << (2 * nb)) - 1
    assert decode_point((1 << (2 * nb)) - 1, nb) is INFINITY


def _coords(value: int, nb: int) -> dict[str, int]:
    ones = (1 << nb) - 1
    return {"qx": value & ones, "qy": (value >> nb) & ones}


def test_pointadd_is_the_expected_permutation_of_the_whole_space(
    toy11, pointadd11
) -> None:
    # Every on-curve encoding (identity included) must map to Q + G; every
    # off-curve encoding must be a fixed point.  This covers all 256 states.
    circuit = pointadd11.circuit
    nb = toy11.coordinate_bits
    for value in range(1 << (2 * nb)):
        point = decode_point(value, nb)
        if is_on_curve(point, toy11):
            expected = encode_point(point_add(point, toy11.generator, toy11), nb)
        else:
            expected = value
        invariant = check_phase_all_branches(circuit, _coords(value, nb))
        got = invariant.outputs["qx"] | (invariant.outputs["qy"] << nb)
        assert got == expected, value
        assert invariant.phase_always_plus_one, value


def test_pointadd_resource_counts_and_metadata(toy11, pointadd11) -> None:
    assert pointadd11.predicted == StaticResources(14, 353, 66, 66)
    meta = pointadd11.circuit.metadata
    assert meta["curve"] == "toy-p11-b7"
    assert meta["base"] == "4,4"
    assert meta["coordinate_bits"] == "4"
    assert meta["exceptional"] == "correct"
    assert meta["encoding"] == "xy-allones-identity"


def test_pointadd_with_identity_base_is_a_no_op(toy11) -> None:
    report = build_pointadd_permutation(toy11, INFINITY)
    assert len(report.circuit.gates) == 0
    assert report.circuit.metadata["base"] == "inf"


def test_pointadd_rejects_off_curve_base(toy11) -> None:
    with pytest.raises(ValueError, match="is not on curve"):
        build_pointadd_permutation(toy11, CurvePoint(0, 1))


def test_mersenne_field_width_leaves_no_identity_encoding() -> None:
    # p = 7 fills all three coordinate bits, so the all-ones identity
    # encoding would collide with a field element.
    curve = CurveParams(name="p7-b2", p=7, a=0, b=2, gx=0, gy=3, order=3)
    with pytest.raises(CircuitError, match="no spare encoding"):
        build_pointadd_permutation(curve, curve.generator)


def test_windowed_pointadd_w2_exhaustive(toy11, windowed11_w2) -> None:
    circuit = windowed11_w2.circuit
    nb = toy11.coordinate_bits
    assert windowed11_w2.predicted == StaticResources(18, 1068, 212, 212)
    assert windowed11_w2.lookup_overhead_non_clifford == 2
    for k in range(4):
        for value in range(1 << (2 * nb)):
            point = decode_point(value, nb)
            if is_on_curve(point, toy11):
                shifted = point_add(
                    point, scalar_mul(k, toy11.generator, toy11), toy11
                )
                expected = encode_point(shifted, nb)
            else:
                expected = value
            inputs = {"k": k, **_coords(value, nb)}
            invariant = check_phase_all_branches(circuit, inputs)
            got = invariant.outputs["qx"] | (invariant.outputs["qy"] << nb)
            assert got == expected, (k, value)
            assert invariant.outputs["k"] == k
            assert invariant.phase_always_plus_one, (k, value)


def test_windowed_pointadd_w1_overhead_and_bounds(toy11) -> None:
    report = build_windowed_pointadd(toy11, toy11.generator, 1)
    assert report.lookup_overhead_non_clifford == 0
    nb = toy11.coordinate_bits
    for k in range(2):
        for point in enumerate_points(toy11):
            value = encode_point(point, nb)
            invariant = check_phase_all_branches(
                report.circuit, {"k": k, **_coords(value, nb)}
            )
            expected = point_add(
                point, scalar_mul(k, toy11.generator, toy11), toy11
            )
            got = invariant.outputs["qx"] | (invariant.outputs["qy"] << nb)
            assert got == encode_point(expected, nb)
    with pytest.raises(ValueError, match="window must be in 1..4"):
        build_windowed_pointadd(toy11, toy11.generator, 0)
    with pytest.raises(ValueError, match="window must be in 1..4"):
        build_windowed_pointadd(toy11, toy11.generator, 5)


def test_mutate_is_deterministic_and_structurally_valid() -> None:
    circuit = build_adder(3).circuit
    kinds_seen: set[str] = set()
    for seed in range(30):
        first = mutate(circuit, seed)
        second = mutate(circuit, seed)
        assert first == second
        assert first != circuit
        # re-serialization forces full structural validation again
        assert parse(serialize(first)) == first
        if len(first.gates) != len(circuit.gates):
            kinds_seen.add("drop")
        else:
            for old, new in zip(circuit.gates, first.gates):
                if old.qubits != new.qubits:
                    kinds_seen.add("retarget")
                elif old.condition != new.condition:
                    kinds_seen.add("toggle")
    assert len(kinds_seen) >= 2


def test_mutate_refuses_gateless_circuits() -> None:
    with pytest.raises(ValueError, match="no gates to mutate"):
        mutate(parse("qubits 1\ncbits 0\n"), seed=0)


# sha256 of serialize(circuit), construction, predicted counts (qubits, gates,
# non-Clifford, measurements) and lookup overhead for every builder.  Recorded
# before the builders shared one finishing step; the golden report digests pin
# only the point-add circuits, so this table pins the rest.  Curve arguments
# are registry names; G stands for the curve's generator.
G = object()

_BUILDER_PINS = [
    (
        (build_temp_and,),
        "2e774c3fe3c41da673706f0a9a6898d70268efc4be69beaaefc775fb26ae174d",
        "temp_and",
        (3, 3, 1, 1),
        None,
    ),
    (
        (build_adder, 1),
        "0f77f465048e25a47c5e3d9f4d863ce6119592017e29b26404770860558b13a7",
        "adder",
        (2, 1, 0, 0),
        None,
    ),
    (
        (build_adder, 2),
        "108893b96de8c7119f2251c4386773010a64b013ac19974cc78b5b2d3ea8412f",
        "adder",
        (5, 6, 1, 1),
        None,
    ),
    (
        (build_adder, 3),
        "a7b9a19c76ead16d4f4444f8c36c067339bdce0a97840fd5a905a9fe2f0e50f9",
        "adder",
        (8, 15, 2, 2),
        None,
    ),
    (
        (build_adder, 4),
        "9cbf268f8248525c2df4826a50282d8eb2cc335d3249f115947692aaace2094b",
        "adder",
        (11, 24, 3, 3),
        None,
    ),
    (
        (build_adder, 5),
        "4dff80c8fdf72bc9583c049003209ff556fe9adca506ae62eb0447010116cf94",
        "adder",
        (14, 33, 4, 4),
        None,
    ),
    (
        (build_adder, 6),
        "43168a53cf55608464dc6100c11bc275e9e60524ec16d342da938cc969c3bee1",
        "adder",
        (17, 42, 5, 5),
        None,
    ),
    (
        (build_adder, 7),
        "90d547fa7b6a2cd5dac408a12810e2feb35863cd66a3b9cb092c51f4b6c1e204",
        "adder",
        (20, 51, 6, 6),
        None,
    ),
    (
        (build_adder, 8),
        "6812c751ab3b5abdea3e33452088bc79844302e75c1e2bbb9b45ca92b9ec108b",
        "adder",
        (23, 60, 7, 7),
        None,
    ),
    (
        (build_adder, 9),
        "f28662a5dc32b34c5f82d0d809919b9c58886b4f45b1e6436e9ab02be98e22b0",
        "adder",
        (26, 69, 8, 8),
        None,
    ),
    (
        (build_adder, 10),
        "3d6381e8e1d39efd13f0e5b065bfe622f8ec74fb6a5babb3aeb469b61189c9f4",
        "adder",
        (29, 78, 9, 9),
        None,
    ),
    (
        (build_adder, 11),
        "407f0c78e38c208d998424d21ac52537d5faf1b9f15ac006724669a770f993bd",
        "adder",
        (32, 87, 10, 10),
        None,
    ),
    (
        (build_adder, 12),
        "c024cac6b6fc5d227a6fc4fab58224ff26c42bd9fb4e2894985b1aa6b6a87b6c",
        "adder",
        (35, 96, 11, 11),
        None,
    ),
    (
        (build_adder, 13),
        "0028a756be7ae0b4e07c07627a7d9bc73d65619d3d0fc0e4b655e72b3ede39ed",
        "adder",
        (38, 105, 12, 12),
        None,
    ),
    (
        (build_adder, 14),
        "83de9895fd9a19da5519d339d821bf86a4ff6d12e556a713faeb81e8645c40c5",
        "adder",
        (41, 114, 13, 13),
        None,
    ),
    (
        (build_adder, 15),
        "49e1bd7cdf3a1f0f3353f75bc2e20b9cf94ebfc80fedb3196dfdf4722cdbfa7a",
        "adder",
        (44, 123, 14, 14),
        None,
    ),
    (
        (build_adder, 16),
        "40908a91b386a4edb05c96c3971b6708eccb996974e90d625a8e5b6e93a77f2f",
        "adder",
        (47, 132, 15, 15),
        None,
    ),
    (
        (build_mod_add_const, 4, 5, 13),
        "5c841e3f44411c2567be315a55d9756d4021146aaab737e5c08ca9383a40a9bc",
        "mod_add_const",
        (6, 154, 24, 24),
        None,
    ),
    (
        (build_lookup, [2, 1]),
        "e15bbad23631de5974106bb42f5141b289c3108abd3d2567cf5510f051f0ab9e",
        "lookup",
        (3, 4, 0, 0),
        None,
    ),
    (
        (build_lookup, [0, 3, 1, 2], 3),
        "c6009f50ac1bf4dba3aa9c44628688f5d5c986da657a46a1ba2090aa191708d3",
        "lookup",
        (6, 18, 2, 2),
        None,
    ),
    (
        (build_lookup, [5, 0, 7, 1, 6, 2, 4, 3]),
        "1f106ef7ff16517ba9ea4aa840d70526db2c2a158af59c406c5c3bebca3add21",
        "lookup",
        (8, 50, 6, 6),
        None,
    ),
    (
        (build_pointadd_permutation, "toy-p11-b7", G),
        "ce7731fbe1858a7ffc985710d5e91c86df398145ba017da6af8c67c565234f5c",
        "permutation_pointadd",
        (14, 353, 66, 66),
        None,
    ),
    (
        (build_pointadd_permutation, "toy-p61-b7", G),
        "2291eb22dd9930a2790f1d9de06c4048d8d0288b84802650836036021bc3f6f0",
        "permutation_pointadd",
        (22, 3124, 600, 600),
        None,
    ),
    (
        (build_pointadd_permutation, "toy-p1009-b7", G),
        "dc41ba5e3c7e430fdd88cf95540be33446ab7e587bdacefcf9c1d2ee0011068b",
        "permutation_pointadd",
        (38, 94080, 18396, 18396),
        None,
    ),
    (
        (build_pointadd_permutation, "toy-p11-b7", INFINITY),
        "dc6fef955684dc8607d0805fe58fe2420659f9f0456c9c4c8c5091e086d94805",
        "permutation_pointadd",
        (8, 0, 0, 0),
        None,
    ),
    (
        (build_windowed_pointadd, "toy-p11-b7", G, 1),
        "2f047f1beeb7d5dcb52219690b735be614d1619e15279bde6bbbbb210d678349",
        "windowed_pointadd",
        (16, 388, 77, 77),
        0,
    ),
    (
        (build_windowed_pointadd, "toy-p11-b7", G, 2),
        "a1e4dd37044a835233d2f54648da88b85330791c2cc00235f62f3df83979a740",
        "windowed_pointadd",
        (18, 1068, 212, 212),
        2,
    ),
    (
        (build_windowed_pointadd, "toy-p11-b7", G, 3),
        "801dd86faf1ca6ce38abd9dca083fe94ad383063e33d029971ad7c7d682e95f3",
        "windowed_pointadd",
        (20, 2350, 468, 468),
        6,
    ),
    (
        (build_windowed_pointadd, "toy-p61-b7", G, 2),
        "7537478ceba2159deec249558bdcbe59ca8b2711835c50703dc0cb21ce369555",
        "windowed_pointadd",
        (26, 9942, 1982, 1982),
        2,
    ),
]


def _pin_id(row) -> str:
    builder, *args = row[0]
    shown = ["G" if a is G else "inf" if a is INFINITY else str(a) for a in args]
    return "-".join([builder.__name__.removeprefix("build_"), *shown]).replace(" ", "")


def _build(call):
    builder, *args = call
    if args and isinstance(args[0], str):
        curve = named_curve(args[0])
        args = [curve] + [curve.generator if a is G else a for a in args[1:]]
    return builder(*args)


@pytest.mark.parametrize(
    "call, digest, construction, predicted, overhead",
    _BUILDER_PINS,
    ids=[_pin_id(row) for row in _BUILDER_PINS],
)
def test_builder_outputs_are_pinned(
    call, digest, construction, predicted, overhead
) -> None:
    report = _build(call)
    assert hashlib.sha256(serialize(report.circuit)).hexdigest() == digest
    assert report.construction == construction
    assert report.predicted == StaticResources(*predicted)
    assert report.lookup_overhead_non_clifford == overhead
    sidecar = {
        "construction": construction,
        "predicted": StaticResources(*predicted)._asdict(),
    }
    if overhead is not None:
        sidecar["lookup_overhead_non_clifford"] = overhead
    assert report.sidecar_dict() == sidecar


# ---------------------------------------------------------------------------
# shared gates: the emitter builds each unconditioned gate once and serialize writes
# each "KIND q q q" once; both must agree with the plain per-gate forms


def _gate_line(gate: Gate) -> str:
    """One gate's .kmx line, spelled out per gate as the format states it."""
    parts = []
    if gate.condition is not None:
        cb, val = gate.condition
        parts.append(f"IF c{cb}" if val == 1 else f"IF c{cb}=0")
    parts.append(gate.kind)
    parts.extend(str(q) for q in gate.qubits)
    if gate.kind == "MX":
        parts.append(f"-> c{gate.cbit}")
    return " ".join(parts)


def _gates_built(circuit: Circuit) -> bool:
    """Whether the circuit's gates view has been built; reading the slot
    itself builds nothing."""
    try:
        Circuit.__dict__["gates"].__get__(circuit, Circuit)
    except AttributeError:
        return False
    return True


def _plain_serialize(circuit) -> bytes:
    header = serialize(circuit._replace(gates=()))
    return header + "".join(_gate_line(g) + "\n" for g in circuit.gates).encode("ascii")


class _FreshEmitter(builders_module._Emitter):
    """The emitter that also keeps one fresh Gate, and operand tuple, per
    call, and whose circuit is ``Circuit(...)`` of that list."""

    def __init__(self, fixed_qubits):
        super().__init__(fixed_qubits)
        self.gates = []

    def emit(self, kind, *qubits, cond=None, cbit=None):
        super().emit(kind, *qubits, cond=cond, cbit=cbit)
        self.gates.append(Gate(kind, qubits, cbit, cond))

    def finish(self, *args, **kwargs):
        report = super().finish(*args, **kwargs)
        return report._replace(circuit=report.circuit._replace(gates=self.gates))


@pytest.mark.parametrize("call", [row[0] for row in _BUILDER_PINS],
                         ids=[_pin_id(row) for row in _BUILDER_PINS])
def test_shared_gates_match_fresh_gates_and_plain_lines(call, monkeypatch) -> None:
    shared = _build(call).circuit
    assert serialize(shared) == _plain_serialize(shared)
    unconditioned: dict[Gate, Gate] = {}
    for gate in shared.gates:
        if gate.cbit is None and gate.condition is None:
            assert unconditioned.setdefault(gate, gate) is gate  # one object per value
    monkeypatch.setattr(builders_module, "_Emitter", _FreshEmitter)
    fresh = _build(call).circuit
    assert fresh.gates == shared.gates
    assert fresh == shared


@pytest.mark.parametrize("call", [row[0] for row in _BUILDER_PINS],
                         ids=[_pin_id(row) for row in _BUILDER_PINS])
def test_the_three_programs_of_a_circuit_give_its_facts(call) -> None:
    """The emitter's program, the parse's and the lowering of the gate list
    each give the circuit the same facts, gates and bytes; the build and the
    parse make no gates to get there."""
    built = _build(call).circuit
    data = serialize(built)
    parsed = parse(data)
    assert not _gates_built(built) and not _gates_built(parsed)
    lowered = Circuit(built.qubit_count, built.classical_bit_count, built.inputs, built.outputs,
                      built.gates, dict(built.metadata))
    assert parsed.gates == built.gates and parsed == built == lowered
    assert parsed.facts == built.facts == lowered.facts
    assert data == _plain_serialize(built) == serialize(lowered)


def test_mutants_serialize_as_plain_lines(windowed11_w2) -> None:
    for circuit in (build_adder(6).circuit, windowed11_w2.circuit):
        toggled = 0
        for seed in range(40):
            mutant = mutate(circuit, seed)
            assert serialize(mutant) == _plain_serialize(mutant)
            toggled += any(g.condition is not None and g.condition[1] == 0 for g in mutant.gates)
        assert toggled  # some mutants carry an "IF c<k>=0" line


def test_emitter_keeps_conditioned_and_measured_shapes_apart() -> None:
    def play(em):
        for kind, qubits, cond in [
            ("MX", (2,), None), ("CZ", (0, 1), (0, 1)), ("CZ", (0, 1), None),
            ("CZ", (0, 1), (0, 0)), ("CZ", (0, 1), None), ("MX", (2,), None),
            ("X", (2,), None), ("X", (2,), (1, 1)), ("X", (2,), None), ("MX", (2,), None),
        ]:
            if kind == "MX":
                em.measure(*qubits)
            else:
                em.emit(kind, *qubits, cond=cond)
        return em.finish("play", (), {}).circuit.gates

    assert play(builders_module._Emitter(3)) == play(_FreshEmitter(3))


# (kind, operands, condition) that Circuit refuses; the emitter's circuit
# must be refused at finish with the same message, also when a valid gate of
# the same kind and operands came first
_BAD_GATES = [
    ("Y", (0,), None),
    ("CX", (0,), None),
    ("CX", (1, 1), None),
    ("CX", (0, -1), None),
    ("X", (True,), None),
    ("X", (1.0,), None),
    ("CX", (0, True), None),
    ("MX", (0,), None),
    ("CZ", (0, 1), (-1, 1)),
    ("CZ", (0, 1), (0, 2)),
    ("CZ", (0, 1), (0, True)),
    ("CZ", (0, 1), (0.0, 1)),
    ("CZ", (0, 1), [0, 1]),
    ("CZ", (0, 1), (0, 1, 1)),
    ("CZ", (0, 1), (0,)),
]


def _circuit_refusal(*gates: Gate) -> str:
    with pytest.raises(CircuitError) as refused:
        Circuit(qubit_count=4, classical_bit_count=1, gates=gates)
    assert refused.value.gate == len(gates) - 1
    return str(refused.value)


def _finish_refusal(em) -> CircuitError:
    with pytest.raises(CircuitError) as refused:
        em.finish("bad", (), {})
    return refused.value


@pytest.mark.parametrize("kind, qubits, cond", _BAD_GATES)
def test_emitter_refuses_what_gate_refuses(kind, qubits, cond) -> None:
    measured = Gate("MX", (0,), cbit=0)
    message = _circuit_refusal(measured, Gate(kind, qubits, condition=cond))
    em = builders_module._Emitter(4)
    em.measure(0)
    # a valid twin with the bad gate's kind and int operands comes first; a
    # bool or float operand equal to an int is the same qubit to the emitter
    twin = Gate(kind, qubits, condition=None if cond is None else (0, 1))
    if all(type(q) is int for q in qubits):
        try:
            Circuit(qubit_count=4, classical_bit_count=1, gates=(measured, twin))
        except CircuitError:
            pass
        else:
            em.emit(twin.kind, *twin.qubits, cond=twin.condition)
            em.emit(twin.kind, *twin.qubits, cond=twin.condition)
    bad = len(em._index)
    for _ in range(2):
        em.emit(kind, *qubits, cond=cond)
    refused = _finish_refusal(em)
    assert (str(refused), refused.gate) == (message, bad)


def test_emitter_measure_refuses_what_gate_refuses() -> None:
    for qubit in (True, 1.0, -1):
        message = _circuit_refusal(Gate("MX", (2,), cbit=0), Gate("MX", (qubit,), cbit=1))
        em = builders_module._Emitter(4)
        em.measure(2)
        em.measure(qubit)
        refused = _finish_refusal(em)
        assert (str(refused), refused.gate) == (message, 1)
