"""The frozen records: every one is a slotted class on circuit._Record.

Their equality, hash, repr and immutability are what the dataclasses they
replace gave; the reprs below are the strings those dataclasses printed,
except that ``Circuit.metadata`` and ``VerificationSpec.registers`` show as
the read-only views they are.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from kickmix.builders import BuildReport, build_temp_and
from kickmix.circuit import (
    Circuit,
    CircuitError,
    Gate,
    Register,
    StaticResources,
    _Record,
    parse,
    serialize,
)
from kickmix.costmodel import AttackScenario, MachineProfile, PointAddCost, WalletRecord
from kickmix.curve import INFINITY, CurveParams, CurvePoint, named_curve
from kickmix.harness import (
    HarnessError,
    Transcript,
    VerificationReport,
    VerificationSpec,
    _Plan,
)
from kickmix.sim import LaneResult, RunResult

_CIRCUIT = (
    "Circuit(qubit_count=3, classical_bit_count=1, inputs=(Register(name='a', lo=0, hi=0), "
    "Register(name='b', lo=1, hi=1)), outputs=(Register(name='a', lo=0, hi=0), "
    "Register(name='b', lo=1, hi=1)), gates=(Gate(kind='CCX', qubits=(0, 1, 2), cbit=None, "
    "condition=None), Gate(kind='MX', qubits=(2,), cbit=0, condition=None), Gate(kind='CZ', "
    "qubits=(0, 1), cbit=None, condition=(0, 1))), metadata=mappingproxy({'construction': "
    "'temp_and', 'exceptional': 'correct'}))"
)
_CURVE = "CurveParams(name='toy-p11-b7', p=11, a=0, b=7, gx=4, gy=4, order=12)"
_STATIC = ("StaticResources(qubit_count=3, total_gate_count=3, non_clifford_gate_count=1, "
           "measurement_count=1)")


def _records() -> dict[str, tuple[_Record, str]]:
    """One record of each class, and the repr it must print."""
    built = build_temp_and()
    circuit, curve = built.circuit, named_curve("toy-p11")
    return {
        "Register": (Register("a", 0, 2), "Register(name='a', lo=0, hi=2)"),
        "StaticResources": (StaticResources(3, 3, 1, 1), _STATIC),
        "Circuit": (circuit, _CIRCUIT),
        "CurvePoint": (CurvePoint(4, 4), "CurvePoint(4, 4)"),
        "INFINITY": (INFINITY, "CurvePoint(infinity)"),
        "CurveParams": (curve, _CURVE),
        "VerificationSpec": (
            VerificationSpec(curve="toy-p11-b7", test_count=3),
            "VerificationSpec(curve='toy-p11-b7', test_count=3, registers=mappingproxy("
            "{'accumulator_x': 'qx', 'accumulator_y': 'qy'}), base_source='metadata', "
            "tolerated_failure_fraction=0.01, security_bits=128, max_avg_non_clifford=None, "
            "max_qubits=None, max_total_ops=None, allow_failures=False)",
        ),
        "Transcript": (
            Transcript("00ff", "toy-p11-b7", (1, 2), (None, 3), (None, None)),
            "Transcript(commitment='00ff', curve_name='toy-p11-b7', scalars=(1, 2), "
            "windows=(None, 3), addend_scalars=(None, None))",
        ),
        "_Plan": (
            _Plan(circuit, curve, "a", "b", None, None, None, None, CurvePoint(4, 4), "correct"),
            f"_Plan(circuit={_CIRCUIT}, curve={_CURVE}, acc_x='a', acc_y='b', window_reg=None, "
            "window_bits=None, addend_x=None, addend_y=None, base=CurvePoint(4, 4), "
            "policy='correct')",
        ),
        "VerificationReport": (
            VerificationReport(data={"verdict": "pass"}, sealed=b"{}\n"),
            "VerificationReport(data={'verdict': 'pass'})",
        ),
        "RunResult": (
            RunResult({"a": 1}, -1, (0, None), 3, 1, (1, 0, 0)),
            "RunResult(outputs={'a': 1}, phase=-1, measurements=(0, None), executed_total=3, "
            "executed_non_clifford=1, final_bits=(1, 0, 0))",
        ),
        "LaneResult": (
            LaneResult({"a": 1}, True, (), 3, 1, (1, 0, 0)),
            "LaneResult(outputs={'a': 1}, phase_always_plus_one=True, phase_defects=(), "
            "executed_total=3, executed_non_clifford=1, final_bits=(1, 0, 0))",
        ),
        "BuildReport": (
            built,
            f"BuildReport(circuit={_CIRCUIT}, predicted={_STATIC}, construction='temp_and', "
            "lookup_overhead_non_clifford=None)",
        ),
        "PointAddCost": (PointAddCost(10, 20, 8, 2),
                         "PointAddCost(pa_toffoli=10, pa_qubits=20, n=8, w=2)"),
        "MachineProfile": (
            MachineProfile(reaction_time=1e-05, round_time=1e-06),
            "MachineProfile(reaction_time=1e-05, round_time=1e-06, toffoli_overhead_fraction=0.5, "
            "t_state_cost=50000, cultivation_qubits=10000, toffoli_to_t_factor=1.0)",
        ),
        "AttackScenario": (
            AttackScenario(600, 600.0),
            "AttackScenario(attack_time=600, mean_block_interval=600.0, signatures_required=1, "
            "machines=1)",
        ),
        "WalletRecord": (WalletRecord(1.5, label="cold"),
                         "WalletRecord(balance=1.5, keys_required=1, label='cold')"),
    }


_RECORDS = _records()


def test_every_record_class_is_covered() -> None:
    classes = {type(record) for record, _ in _RECORDS.values()}
    assert all(issubclass(cls, _Record) for cls in classes)
    assert classes == {Register, StaticResources, Circuit, CurvePoint, CurveParams,
                       VerificationSpec, Transcript, _Plan, VerificationReport, RunResult,
                       LaneResult, BuildReport, PointAddCost, MachineProfile, AttackScenario,
                       WalletRecord}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_repr_is_the_dataclass_repr(name: str) -> None:
    record, shown = _RECORDS[name]
    assert repr(record) == shown


@pytest.mark.parametrize("name", list(_RECORDS))
def test_equality_and_hash_read_the_fields(name: str) -> None:
    record, _ = _RECORDS[name]
    values = tuple(getattr(record, field) for field in record._fields)
    twin = type(record)(*record._asdict().values())
    assert twin == record and not twin != record
    assert record._replace() == record
    assert record != values and values != record
    assert (record == values, record.__eq__(values)) == (False, NotImplemented)
    others = [other for other, _ in _RECORDS.values() if type(other) is not type(record)]
    assert all(record != other for other in others)
    try:
        expected = hash(values)
    except TypeError:  # a dict or a view of one, here or in a record among the values
        with pytest.raises(TypeError, match="unhashable type: '(dict|mappingproxy)'"):
            hash(record)
    else:
        assert hash(record) == expected == hash(twin)


def test_a_changed_field_breaks_equality() -> None:
    assert Register("a", 0, 2) != Register("a", 0, 3)
    assert CurvePoint(4, 4) != CurvePoint(4, 7) and CurvePoint(4, 4) != INFINITY
    assert INFINITY != (None, None) and Register("a", 0, 2) != ("a", 0, 2)
    assert StaticResources(10, 20, 8, 2) != PointAddCost(10, 20, 8, 2)
    report = VerificationReport(data={"verdict": "pass"}, sealed=b"{}\n")
    assert report != report._replace(sealed=b"[]\n")  # compared, though not shown


@pytest.mark.parametrize("name", list(_RECORDS))
def test_no_field_can_be_assigned_or_deleted(name: str) -> None:
    record, shown = _RECORDS[name]
    assert not hasattr(record, "__dict__")
    for field in type(record).__slots__:
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1  # type: ignore[attr-defined]
    assert repr(record) == shown


@pytest.mark.parametrize("name", list(_RECORDS))
def test_copy_and_pickle_rebuild_an_equal_record(name: str) -> None:
    record, shown = _RECORDS[name]
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and repr(clone) == shown
        assert clone._values() == record._values()


def test_circuit_replace_revalidates_and_records_fresh_facts() -> None:
    circuit = build_temp_and().circuit
    trimmed = circuit._replace(gates=list(circuit.gates[:1]))
    assert trimmed.gates == circuit.gates[:1] and type(trimmed.gates) is tuple
    assert trimmed.metadata == circuit.metadata and trimmed.inputs == circuit.inputs
    assert trimmed.facts.kinds == {"CCX": 1} and circuit.facts.kinds["MX"] == 1
    assert trimmed.facts.measured == {} and circuit.facts.measured == {0: 0}
    with pytest.raises(CircuitError, match="qubit 9 out of range"):
        circuit._replace(gates=(Gate("X", (9,)),))
    with pytest.raises(TypeError, match="facts"):
        circuit._replace(facts=trimmed.facts)
    with pytest.raises(TypeError, match="width"):
        circuit._replace(width=3)
    assert "facts" not in circuit._fields and "facts" not in circuit._asdict()


def test_circuit_defaults_are_fresh_and_checked() -> None:
    first, second = Circuit(1), Circuit(qubit_count=1)
    assert first == second and first.metadata == {} and first.metadata is not second.metadata
    assert (first.classical_bit_count, first.inputs, first.outputs, first.gates) == (0, (), (), ())
    with pytest.raises(CircuitError, match="metadata of type NoneType, not dict"):
        Circuit(1, metadata=None)  # type: ignore[arg-type]
    with pytest.raises(CircuitError, match="circuit outputs of type dict, not tuple or list"):
        Circuit(1, inputs=[], outputs={})  # type: ignore[arg-type]


def test_spec_replace_checks_the_field_again() -> None:
    spec = VerificationSpec(curve="toy-p11-b7", test_count=3)
    assert spec._replace(test_count=4).test_count == 4
    with pytest.raises(HarnessError, match="spec field 'test_count' must be an integer"):
        spec._replace(test_count="4")
    with pytest.raises(HarnessError, match="registers.*must be an object"):
        spec._replace(registers=None)
    with pytest.raises(HarnessError, match="base_source must be 'metadata' or 'generator'"):
        spec._replace(base_source="nowhere")
    with pytest.raises(TypeError, match="colour"):
        spec._replace(colour="blue")


def test_spec_registers_are_fresh_and_to_dict_copies_them() -> None:
    first = VerificationSpec(curve="toy-p11-b7", test_count=3)
    second = VerificationSpec("toy-p11-b7", 3)
    assert first.registers == second.registers and first.registers is not second.registers
    data = first.to_dict()
    assert list(data) == list(first._fields) and data["registers"] == first.registers
    data["registers"]["window"] = "k"
    data["registers"].pop("accumulator_x")
    assert first.registers == {"accumulator_x": "qx", "accumulator_y": "qy"}
    assert VerificationSpec.from_dict(first.to_dict()) == first


def _frozen_dict_fields():
    """Each record with a dict field it must keep, the field's name, and how
    the record was made: from a caller's dict, by parse, or by a builder."""
    given = {"k": "v"}
    yield Circuit(1, metadata=given), "metadata", given
    given = {"accumulator_x": "qx", "accumulator_y": "qy"}
    yield VerificationSpec(curve="toy-p11-b7", test_count=3, registers=given), "registers", given
    built = build_temp_and().circuit
    yield built, "metadata", None
    yield parse(serialize(built)), "metadata", None


@pytest.mark.parametrize("record, field, given", list(_frozen_dict_fields()),
                         ids=["Circuit", "VerificationSpec", "built", "parsed"])
def test_a_dict_field_cannot_change_after_its_checks(record, field, given) -> None:
    shown, kept = repr(record), dict(getattr(record, field))
    if given is not None:  # the caller's dict is not the record's
        given["bad key"] = "x\ny"
        given.pop(next(iter(kept)))
    with pytest.raises(TypeError):
        getattr(record, field)["bad key"] = "x\ny"
    with pytest.raises(TypeError):
        del getattr(record, field)[next(iter(kept))]
    assert getattr(record, field) == kept and repr(record) == shown
    # its plain forms are dicts of their own
    plain = record._asdict()[field]
    assert type(plain) is dict and plain == kept
    plain["other"] = "x"
    assert getattr(record, field) == kept
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
                  record._replace()):
        assert clone == record and getattr(clone, field) == kept
        with pytest.raises(TypeError):
            getattr(clone, field)["other"] = "x"


def test_the_two_escapes_through_a_dict_field_are_closed() -> None:
    circuit = Circuit(1, metadata={"k": "v"})
    with pytest.raises(TypeError):
        circuit.metadata["bad key"] = "x\ny"
    assert parse(serialize(circuit)) == circuit
    spec = VerificationSpec(curve="toy-p11-b7", test_count=3)
    with pytest.raises(TypeError):
        spec.registers["bogus"] = "qq"
    assert type(spec.to_dict()["registers"]) is dict
    # a read-only view is no dict, so a caller cannot hand one in
    with pytest.raises(CircuitError, match="metadata of type mappingproxy, not dict"):
        Circuit(1, metadata=circuit.metadata)  # type: ignore[arg-type]
    with pytest.raises(HarnessError, match="registers.*must be an object"):
        VerificationSpec(curve="toy-p11-b7", test_count=3, registers=spec.registers)


def test_build_report_records_the_recount_when_nothing_is_predicted() -> None:
    built = build_temp_and()
    recounted = BuildReport(built.circuit, None, "temp_and")
    assert recounted == built and recounted.predicted == StaticResources(3, 3, 1, 1)
    with pytest.raises(CircuitError, match="builder 'temp_and' predicted"):
        built._replace(predicted=StaticResources(3, 3, 0, 1))


def test_checks_run_in_their_old_order() -> None:
    with pytest.raises(CircuitError, match="register name of type int, not str"):
        Register(1, -1, -2)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="both coordinates"):
        CurvePoint(None, 1)
    with pytest.raises(ValueError, match="not prime"):
        CurveParams("bad", 12, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="bit length must be >= 1"):
        PointAddCost(0, 0, 0, -1)
