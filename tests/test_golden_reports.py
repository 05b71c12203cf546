"""Pinned report digests: the report bytes are the contract.

Every digest below was recorded from the per-test scalar simulator (one
``sim.run`` per test, one ``check_phase_all_branches`` plus a zero-branch
``run`` per exhaustive case).  Any faster path must reproduce them exactly;
a deliberate change to the report format re-records them in the same change.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from kickmix import (
    Gate,
    VerificationSpec,
    mutate,
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
        "qubits 16\n"
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
    assert any(g.condition is not None and not g.is_diagonal for g in fallback.gates)
