"""Pinned report digests: the report bytes are the contract.

Every digest below was recorded from the per-test scalar simulator (one
``sim.run`` per test, one ``check_phase_all_branches`` plus a zero-branch
``run`` per exhaustive case).  Any faster path must reproduce them exactly;
a deliberate change to the report format re-records them in the same change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

import kickmix.harness as harness
import kickmix.sim as sim
from kickmix.circuit import DIAGONAL_KINDS
from kickmix import (
    INFINITY,
    Gate,
    VerificationSpec,
    build_windowed_pointadd,
    mutate,
    named_curve,
    parse,
    serialize,
    spec_for_circuit,
    verify,
    verify_exhaustive,
)


def _exhaustive_spec(circuit):
    return spec_for_circuit(circuit, test_count=0, tolerated_failure_fraction=0)


def conditioned_cx_circuit(circuit):
    """The circuit plus a measured-out copy of qx bit 0 on a fresh qubit, with
    the kickback corrected and a cancelling pair of conditioned X gates.  It
    computes the same function, but its branch space no longer factorizes."""
    anc = circuit.qubit_count
    cb = circuit.classical_bit_count
    extra = (
        Gate("CX", (0, anc)),
        Gate("MX", (anc,), cbit=cb),
        Gate("Z", (0,), condition=(cb, 1)),
        Gate("X", (anc,), condition=(cb, 1)),
        Gate("CX", (0, anc), condition=(cb, 1)),
        Gate("CX", (0, anc), condition=(cb, 1)),
        Gate("X", (anc,), condition=(cb, 1)),
    )
    return replace(
        circuit,
        qubit_count=anc + 1,
        classical_bit_count=cb + 1,
        gates=circuit.gates + extra,
    )


def _cases(pointadd11, pointadd61, windowed11_w2):
    p11 = pointadd11.circuit
    undefined = replace(p11, metadata={**p11.metadata, "exceptional": "undefined"})
    two_point = parse(
        "qubits 16\ncbits 0\n"
        "in qx 0..3\nin qy 4..7\nin ax 8..11\nin ay 12..15\n"
        "out qx 0..3\nout qy 4..7\nout ax 8..11\nout ay 12..15\n"
    )
    two_point_spec = VerificationSpec(
        curve="toy-p11-b7",
        test_count=60,
        registers={
            "accumulator_x": "qx",
            "accumulator_y": "qy",
            "addend_x": "ax",
            "addend_y": "ay",
        },
    )
    mutant5 = mutate(p11, 5)
    # Window value 0 and 1 both add the identity, so every input is exceptional.
    identity_w1 = build_windowed_pointadd(named_curve(p11.metadata["curve"]), INFINITY, 1).circuit
    identity_w1 = replace(identity_w1, metadata={**identity_w1.metadata, "exceptional": "undefined"})
    return {
        "p11-transcript": (p11, spec_for_circuit(p11), "verify"),
        "p61-exhaustive": (pointadd61.circuit, _exhaustive_spec(pointadd61.circuit), "exhaustive"),
        "p11-mutant5": (mutant5, spec_for_circuit(mutant5), "verify"),
        "p11-mutant5-fail-fast": (mutant5, spec_for_circuit(mutant5), "fail_fast"),
        "p11-mutant9": (mutate(p11, 9), spec_for_circuit(p11, test_count=500), "verify"),
        "p11w2-transcript": (
            windowed11_w2.circuit,
            spec_for_circuit(windowed11_w2.circuit, test_count=500),
            "verify",
        ),
        "p11w2-exhaustive": (
            windowed11_w2.circuit, _exhaustive_spec(windowed11_w2.circuit), "exhaustive"
        ),
        "p11-undefined-policy": (undefined, spec_for_circuit(undefined, test_count=300), "verify"),
        "two-point-adder": (two_point, two_point_spec, "verify"),
        "p11-conditioned-cx": (
            conditioned_cx_circuit(p11), spec_for_circuit(p11, test_count=300), "verify"
        ),
        "p11-bound-violations": (
            p11,
            spec_for_circuit(
                p11, test_count=100, max_qubits=1, max_total_ops=1, max_avg_non_clifford=0
            ),
            "verify",
        ),
        "p11-mutant5-tolerated": (
            mutant5,
            spec_for_circuit(
                mutant5, test_count=200, allow_failures=True, tolerated_failure_fraction=0.5
            ),
            "verify",
        ),
        "w1-identity-all-skipped": (
            identity_w1, spec_for_circuit(identity_w1, test_count=10), "verify"
        ),
    }


GOLDEN = {
    "p11-transcript": "381b4632087b1ce5e60613b201e19ab5ed1a0ef7f70146eba6de6eb655963301",
    "p61-exhaustive": "0c183f32229593d8e8a9e309c79f7229e836f27598c8cb780d56366ff697c007",
    "p11-mutant5": "b5c6c6be2dac575da2557c9c5fb48b805917456534c832c81594912137eaecb7",
    "p11-mutant5-fail-fast": "954c4639d2cf790545125e3535bb95645ebd53559375451f77852b8a33736134",
    "p11-mutant9": "c69853ddfea1e55d0a8c8235212af1e5d762e80d2c45a62ac94c1d7e5619bb0f",
    "p11w2-transcript": "2289e92a1210ad4eb8f35d67f51b8bf44f2500a59d05e90d52618a192a47837c",
    "p11w2-exhaustive": "4dc459d0eb25addc79a3fe918e5affc198d8e691ac75944abe5dbef405c898e1",
    "p11-undefined-policy": "f9494fcb446ab8b02572d7c6100c9cde273dc6e5a1282c5ddadf5992f91ab282",
    "two-point-adder": "35ea7234289b9e80885c69b9d8d1ede8eda43fb1ad66afc5c5eca4075139164a",
    "p11-conditioned-cx": "89877bbb3a904515aa1e9aba063f2c137e6da1ffb98506bcd9d9602d266a83d7",
    "p11-bound-violations": "53086f38d6fcdd977d63e015a6ef3e55a1aaa997f7bdb2368ca76e7570421dd3",
    "p11-mutant5-tolerated": "8a7dc4f75c876f0acef6d307208abc8cd2a06b271cfa00793b45593c6613aafc",
    "w1-identity-all-skipped": "0636c0032d9c01bf2bbe8bece1492818d080d56c2d75af2ad90f637f2ee634a3",
}


def _report(circuit, spec, mode):
    raw = serialize(circuit)
    if mode == "exhaustive":
        return verify_exhaustive(raw, spec)
    return verify(raw, spec, fail_fast=mode == "fail_fast")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_is_pinned(name, pointadd11, pointadd61, windowed11_w2) -> None:
    circuit, spec, mode = _cases(pointadd11, pointadd61, windowed11_w2)[name]
    report = _report(circuit, spec, mode)
    assert report.digest == GOLDEN[name]


def test_the_pinned_cases_cover_the_paths_they_name(pointadd11, pointadd61, windowed11_w2) -> None:
    cases = _cases(pointadd11, pointadd61, windowed11_w2)
    data = {name: _report(*cases[name]).data for name in ("p11-mutant5", "p11-conditioned-cx")}
    mutant = data["p11-mutant5"]
    assert mutant["failures"] > 0
    # mutation seed 5 breaks only the phase: every failing test has right outputs
    assert all(
        t["output_ok"] and not t["phase_ok"]
        for t in mutant["tests"]
        if t["index"] in set(mutant["failure_indices"])
    )
    assert data["p11-conditioned-cx"]["verdict"] == "pass"
    fallback = cases["p11-conditioned-cx"][0]
    assert any(g.condition is not None and g.kind not in DIAGONAL_KINDS for g in fallback.gates)


def test_the_report_assembly_cases_cover_the_paths_they_name(
    pointadd11, pointadd61, windowed11_w2
) -> None:
    cases = _cases(pointadd11, pointadd61, windowed11_w2)
    bounds, tolerated, skipped = (
        _report(*cases[name]).data
        for name in ("p11-bound-violations", "p11-mutant5-tolerated", "w1-identity-all-skipped")
    )
    assert len(bounds["bound_violations"]) == 3 and bounds["verdict"] == "fail"
    assert 0 < tolerated["failures"] <= tolerated["tolerated_failures"]
    assert tolerated["verdict"] == "pass"
    assert skipped["executed_tests"] == 0 and skipped["skipped_exceptional"] == 10
    assert skipped["warnings"][-1] == "every test hit the exceptional-input policy; nothing ran"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sealed_bytes_are_json_dumps_and_the_digest_covers_the_body(
    name, pointadd11, pointadd61, windowed11_w2
) -> None:
    report = _report(*_cases(pointadd11, pointadd61, windowed11_w2)[name])
    raw = report.to_json_bytes()
    assert raw == (json.dumps(report.data, sort_keys=True, indent=2) + "\n").encode()
    body = {key: value for key, value in report.data.items() if key != "report_digest"}
    body_bytes = (json.dumps(body, sort_keys=True, indent=2) + "\n").encode()
    assert hashlib.sha256(body_bytes).hexdigest() == report.digest == GOLDEN[name]


def _refuse_scalar_runs(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("verify called the scalar sim.run")

    monkeypatch.setattr(sim, "run", refuse)
    monkeypatch.setattr(harness, "run", refuse)


def test_conditioned_cx_digest_holds_without_the_scalar_reference(
    pointadd11, pointadd61, windowed11_w2, monkeypatch
) -> None:
    _refuse_scalar_runs(monkeypatch)
    circuit, spec, mode = _cases(pointadd11, pointadd61, windowed11_w2)["p11-conditioned-cx"]
    assert _report(circuit, spec, mode).digest == GOLDEN["p11-conditioned-cx"]


def test_conditioned_cx_reports_do_not_depend_on_the_lane_chunk_size(
    pointadd11, monkeypatch
) -> None:
    """Outcome planes are built per chunk; a chunk of two lanes must give the
    same bytes, also where lanes take different branches and some fail."""
    fixed = conditioned_cx_circuit(pointadd11.circuit)
    cb = fixed.classical_bit_count - 1
    # flips qx bit 0 on exactly the tests whose last outcome is 1
    broken = replace(fixed, gates=fixed.gates + (Gate("X", (0,), condition=(cb, 1)),))
    spec = spec_for_circuit(pointadd11.circuit, test_count=300)
    runs = [(serialize(c), fail_fast) for c in (fixed, broken) for fail_fast in (False, True)]
    before = [verify(raw, spec, fail_fast=fail_fast).to_json_bytes() for raw, fail_fast in runs]
    full = json.loads(before[2])
    assert 0 < full["failures"] < full["executed_tests"]
    assert all(t["output_ok"] is False for t in full["tests"] if t["index"] in full["failure_indices"])

    _refuse_scalar_runs(monkeypatch)
    monkeypatch.setattr(harness, "LANE_CHUNK", 2)
    after = [verify(raw, spec, fail_fast=fail_fast).to_json_bytes() for raw, fail_fast in runs]
    assert after == before
    assert json.loads(before[0])["report_digest"] == GOLDEN["p11-conditioned-cx"]
