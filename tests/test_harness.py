"""Self-seeded verification: byte-exact derivation, reports, and policies.

The derivation tests re-implement the documented hash-stream rules directly
with hashlib (single digest() calls, no incremental reads) and require the
harness to agree bit-for-bit; a handful of values are additionally frozen as
literals so any protocol drift fails loudly rather than silently moving
both sides at once.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickmix import harness, sim
from kickmix import (
    INFINITY,
    Gate,
    HarnessError,
    ParseError,
    VerificationSpec,
    build_pointadd_permutation,
    build_windowed_pointadd,
    commit,
    derive_tests,
    mutate,
    parse,
    required_test_count,
    serialize,
    spec_for_circuit,
    verify,
    verify_exhaustive,
)

from test_golden_reports import GOLDEN, conditioned_cx_circuit

_SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_commitment_is_plain_sha256() -> None:
    assert commit(b"") == _SHA256_EMPTY
    assert commit(b"abc") == hashlib.sha256(b"abc").hexdigest()


def test_harness_error_is_a_value_error() -> None:
    assert issubclass(HarnessError, ValueError)


# ---------------------------------------------------------------------------
# derivation


def test_scalar_stream_matches_independent_rederivation(
    pointadd11, pointadd11_bytes
) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=16)
    transcript = derive_tests(pointadd11_bytes, spec)
    assert transcript.commitment == hashlib.sha256(pointadd11_bytes).hexdigest()
    assert transcript.curve_name == "toy-p11-b7"
    # order 12 fits one byte, so scalar i is just stream byte i mod 12
    stream = hashlib.shake_256(pointadd11_bytes).digest(16)
    assert list(transcript.scalars) == [b % 12 for b in stream]
    # frozen pin so a drifted protocol cannot take the oracle down with it
    assert transcript.scalars == (9, 3, 1, 3, 5, 2, 2, 4, 5, 0, 11, 6, 6, 8, 7, 9)
    assert transcript.windows == transcript.addend_scalars == (None,) * 16


def test_window_values_are_drawn_after_all_scalars(
    windowed11_w2, windowed11_w2_bytes
) -> None:
    count = 8
    spec = spec_for_circuit(windowed11_w2.circuit, test_count=count)
    transcript = derive_tests(windowed11_w2_bytes, spec)
    stream = hashlib.shake_256(windowed11_w2_bytes).digest(2 * count)
    assert list(transcript.scalars) == [b % 12 for b in stream[:count]]
    assert list(transcript.windows) == [b % 4 for b in stream[count:]]
    assert transcript.addend_scalars == (None,) * count


def test_measurement_bits_match_independent_rederivation(
    pointadd11, pointadd11_bytes
) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=6)
    transcript = derive_tests(pointadd11_bytes, spec)
    for index in (0, 5):
        seed = hashlib.sha256(pointadd11_bytes).digest() + index.to_bytes(8, "big")
        raw = hashlib.shake_256(seed).digest(16)
        expected = [(byte >> shift) & 1 for byte in raw for shift in range(7, -1, -1)]
        bits = transcript.measurement_bits(index)
        assert [next(bits) for _ in range(128)] == expected


def test_test_inputs_are_a_prefix_stable_sequence(
    pointadd11, pointadd11_bytes
) -> None:
    short = derive_tests(pointadd11_bytes, spec_for_circuit(pointadd11.circuit, test_count=20))
    long = derive_tests(pointadd11_bytes, spec_for_circuit(pointadd11.circuit, test_count=50))
    for column in ("scalars", "windows", "addend_scalars"):
        assert getattr(long, column)[:20] == getattr(short, column)
    # measurement streams depend only on the commitment and the index
    a, b = short.measurement_bits(3), long.measurement_bits(3)
    assert [next(a) for _ in range(64)] == [next(b) for _ in range(64)]


def test_scalar_distribution_is_uniform_by_chi_square(
    pointadd11, pointadd11_bytes
) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=600)
    transcript = derive_tests(pointadd11_bytes, spec)
    counts = [0] * 12
    for scalar in transcript.scalars:
        counts[scalar] += 1
    assert sum(counts) == 600
    expected = 600 / 12
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 31.264 is the 99th percentile of chi-square with 11 degrees of freedom
    assert chi2 < 31.264
    assert round(chi2, 2) == 19.08  # frozen for drift detection


def test_window_distribution_is_uniform_by_chi_square(
    windowed11_w2, windowed11_w2_bytes
) -> None:
    spec = spec_for_circuit(windowed11_w2.circuit, test_count=400)
    transcript = derive_tests(windowed11_w2_bytes, spec)
    counts = [0] * 4
    for window in transcript.windows:
        counts[window] += 1
    expected = 400 / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 16.266 is the 99th percentile of chi-square with 3 degrees of freedom
    assert chi2 < 16.266
    assert counts == [87, 108, 94, 111]  # frozen for drift detection


# ---------------------------------------------------------------------------
# test-count arithmetic


def test_required_test_count_is_the_exact_threshold() -> None:
    for eps in ("0.5", "0.1", "0.01", "0.9"):
        for bits in (1, 8, 10, 40):
            n = required_test_count(float(eps), bits)
            survive = 1 - Fraction(eps)
            bound = Fraction(1, 1 << bits)
            assert survive**n <= bound
            assert n == 1 or survive ** (n - 1) > bound


def test_required_test_count_frozen_values() -> None:
    assert required_test_count(0.01, 128) == 8828
    assert required_test_count(0.01, 40) == 2759
    assert required_test_count(0.5, 10) == 10


def test_required_test_count_ceiling_keeps_documented_plans_exact() -> None:
    for eps, bits in ((0.01, 1024), (0.001, 128)):
        n = required_test_count(eps, bits)
        survive = 1 - Fraction(str(eps))
        assert survive**n <= Fraction(1, 1 << bits) < survive ** (n - 1)


def test_required_test_count_domain_errors() -> None:
    with pytest.raises(ValueError, match="enumerate the domain"):
        required_test_count(0, 40)
    with pytest.raises(ValueError, match="tolerated fraction"):
        required_test_count(1.0, 40)
    with pytest.raises(ValueError, match="tolerated fraction"):
        required_test_count(-0.1, 40)
    with pytest.raises(ValueError, match="security_bits must be a positive integer"):
        required_test_count(0.01, 0)
    with pytest.raises(ValueError, match="security_bits must be a positive integer"):
        required_test_count(0.01, 2.5)
    assert required_test_count(0.01, 40.0) == 2759  # a float with an integer value
    # The exact powers would run to millions of bits: refused before the search.
    with pytest.raises(ValueError, match="over the ceiling"):
        required_test_count(0.0001, 1024)
    with pytest.raises(ValueError, match="over the ceiling"):
        required_test_count(0.001, 1024)
    with pytest.raises(ValueError, match="over the ceiling"):
        required_test_count(0.0001, 128)
    with pytest.raises(ValueError, match="over the ceiling"):
        required_test_count(5e-324, 40)
    with pytest.raises(ValueError, match="over the ceiling"):
        required_test_count(Fraction(1, 10**400), 40)


@pytest.mark.parametrize("bits", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_required_test_count_refuses_a_float_that_is_no_integer(bits) -> None:
    with pytest.raises(ValueError) as excinfo:
        required_test_count(0.01, bits)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == f"security_bits must be a positive integer, got {bits}"


def test_required_test_count_steps_down_from_a_float_estimate_one_too_high() -> None:
    # at eps 1/2 the float estimate rounds up past the exact count for
    # 29, 31, 47, 58 and 62 bits, among others
    assert [required_test_count(0.5, bits) for bits in range(1, 301)] == list(range(1, 301))
    for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 10), Fraction(1, 100)):
        for bits in (1, 2, 29, 31, 40, 47, 58, 62, 93, 128):
            n = required_test_count(eps, bits)
            bound = Fraction(1, 1 << bits)
            # n tests reach the security bits (the bits that n tests achieve
            # are at least these), and n - 1 do not
            assert (1 - eps) ** n <= bound < (1 - eps) ** (n - 1), (eps, bits)


def test_round_fraction_rounds_half_up_at_six_places() -> None:
    # what every report's avg_executed_non_clifford.rounded goes through
    for numerator, denominator, rounded in (
        (2, 3, "0.666667"),  # up
        (1, 3, "0.333333"),  # down
        (9999995, 10**7, "1.000000"),  # a half, up into the whole part
        (1, 2 * 10**6, "0.000001"),  # a half, up from zero
        (3, 2 * 10**6, "0.000002"),
        (7, 1, "7.000000"),
    ):
        assert harness._round_fraction(numerator, denominator) == rounded


# ---------------------------------------------------------------------------
# spec construction


def test_spec_validation_errors() -> None:
    with pytest.raises(HarnessError, match="test_count must be >= 0"):
        VerificationSpec(curve="toy-p11-b7", test_count=-1)
    with pytest.raises(HarnessError, match="base_source must be"):
        VerificationSpec(curve="toy-p11-b7", test_count=1, base_source="files")
    with pytest.raises(HarnessError, match=r"unknown register role\(s\): foo"):
        VerificationSpec(
            curve="toy-p11-b7",
            test_count=1,
            registers={"accumulator_x": "qx", "accumulator_y": "qy", "foo": "x"},
        )
    with pytest.raises(HarnessError, match="must include accumulator_y"):
        VerificationSpec(curve="toy-p11-b7", test_count=1, registers={"accumulator_x": "qx"})
    with pytest.raises(HarnessError, match="mapped together"):
        VerificationSpec(
            curve="toy-p11-b7",
            test_count=1,
            registers={"accumulator_x": "qx", "accumulator_y": "qy", "addend_x": "ax"},
        )
    with pytest.raises(HarnessError, match="tolerated_failure_fraction"):
        VerificationSpec(curve="toy-p11-b7", test_count=1, tolerated_failure_fraction=1.0)


def test_spec_dict_round_trip() -> None:
    spec = VerificationSpec(
        curve="toy-p61-b7",
        test_count=99,
        max_qubits=20,
        allow_failures=True,
    )
    assert VerificationSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(HarnessError, match=r"unknown spec field\(s\): shiny"):
        VerificationSpec.from_dict({"curve": "x", "test_count": 1, "shiny": True})
    with pytest.raises(HarnessError, match="requires at least curve and test_count"):
        VerificationSpec.from_dict({"curve": "toy-p11-b7"})


def test_spec_for_circuit_defaults(pointadd11, windowed11_w2) -> None:
    spec = spec_for_circuit(pointadd11.circuit)
    assert spec.curve == "toy-p11-b7"
    assert spec.security_bits == 40
    assert spec.test_count == 2759  # matches the 40-bit requirement exactly
    assert spec.registers == {"accumulator_x": "qx", "accumulator_y": "qy"}

    windowed = spec_for_circuit(windowed11_w2.circuit)
    assert windowed.registers["window"] == "k"

    override = spec_for_circuit(pointadd11.circuit, test_count=50)
    assert override.test_count == 50

    bare = parse("qubits 1\ncbits 0\n")
    with pytest.raises(HarnessError, match="names no curve"):
        spec_for_circuit(bare)


@pytest.mark.parametrize(
    "override, message",
    [
        ({"tolerated_failure_fraction": "0.1"},
         "spec field 'tolerated_failure_fraction' must be a number, got str"),
        ({"security_bits": "40"}, "spec field 'security_bits' must be an integer, got str"),
        ({"security_bits": 40.0}, "spec field 'security_bits' must be an integer, got float"),
        ({"tolerated_failure_fraction": None},
         "spec field 'tolerated_failure_fraction' must be a number, got NoneType"),
    ],
)
def test_spec_for_circuit_checks_override_types_first(pointadd11, override, message) -> None:
    # the spec's own type check runs before the test count is worked out
    with pytest.raises(HarnessError) as excinfo:
        spec_for_circuit(pointadd11.circuit, **override)
    assert type(excinfo.value) is HarnessError and str(excinfo.value) == message


@pytest.mark.parametrize("bits", [0, -3, 2**64, 10**400], ids=["0", "-3", "2^64", "10^400"])
def test_security_bits_out_of_range_is_one_short_line(pointadd11, pointadd11_bytes,
                                                      bits) -> None:
    """The spec refuses fewer than 1 bit; required_test_count refuses a value
    it cannot size, one too long for a float included, echoing it cut."""
    fields = {"curve": "toy-p11-b7", "test_count": 5, "security_bits": bits}
    calls = (
        lambda: verify(pointadd11_bytes, VerificationSpec(**fields)),
        lambda: spec_for_circuit(pointadd11.circuit, security_bits=bits),
        lambda: required_test_count(0.01, bits),
    )
    for n, call in enumerate(calls):
        with pytest.raises(ValueError) as excinfo:
            call()
        message = str(excinfo.value)
        assert "\n" not in message and len(message) < 200
        if bits >= 1:
            assert message.startswith(f"tolerated fraction 0.01 at {str(bits)[:20]}")
            assert "over the ceiling" in message and (bits < 10**20 or "\u2026" in message)
        elif n < 2:
            assert type(excinfo.value) is HarnessError
            assert message == f"security_bits must be >= 1, got {bits}"
        else:
            assert message == f"security_bits must be a positive integer, got {bits}"


def test_the_harness_hands_each_draw_one_inputs_object(pointadd11, pointadd11_bytes,
                                                       monkeypatch) -> None:
    """Sampled lanes hold one mapping object per distinct (scalar, window,
    addend scalar) draw, and exhaustive ones one each, so a lane's slot is
    its draw (or case)."""
    passes = []
    lane_pass = sim._lane_pass

    def spy(circuit, lane_inputs, words):
        passes.append(lane_inputs)
        return lane_pass(circuit, lane_inputs, words)

    spec = spec_for_circuit(pointadd11.circuit, test_count=300)
    before = verify(pointadd11_bytes, spec).to_json_bytes()
    monkeypatch.setattr(harness, "_lane_pass", spy)
    report = verify(pointadd11_bytes, spec)
    assert report.to_json_bytes() == before
    transcript = derive_tests(pointadd11_bytes, spec)
    columns = zip(transcript.scalars, transcript.windows, transcript.addend_scalars)
    draws = [draw for draw, row in zip(columns, report.data["tests"]) if not row["skipped"]]
    [lane_inputs] = passes
    assert len(lane_inputs) == len(draws) > len(set(draws))
    objects = {}
    for draw, inputs in zip(draws, lane_inputs):
        assert objects.setdefault(draw, inputs) is inputs
    assert len(set(map(id, objects.values()))) == len(objects)
    passes.clear()
    exhaustive = verify_exhaustive(pointadd11_bytes, spec._replace(tolerated_failure_fraction=0))
    [lane_inputs] = passes
    ran = [row for row in exhaustive.data["tests"] if not row["skipped"]]
    assert len(set(map(id, lane_inputs))) == len(lane_inputs) == len(ran)


# ---------------------------------------------------------------------------
# verification runs


def test_verify_passes_a_correct_circuit(pointadd11, pointadd11_bytes) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=50)
    report = verify(pointadd11_bytes, spec)
    data = report.data
    assert report.passed and report.verdict == "pass"
    assert data["mode"] == "transcript"
    assert data["circuit_commitment"] == hashlib.sha256(pointadd11_bytes).hexdigest()
    assert data["test_count"] == 50
    assert data["executed_tests"] == 50
    assert data["skipped_exceptional"] == 0
    assert data["failures"] == 0 and data["failure_indices"] == []
    # every test executes the full permutation chain: exactly 66 CCX+CCZ
    assert data["avg_executed_non_clifford"] == {
        "numerator": 66,
        "denominator": 1,
        "rounded": "66.000000",
    }
    assert data["static_resources"]["qubit_count"] == 14
    assert data["peak_qubits"] == 14
    assert data["spec"] == spec.to_dict()
    assert data["warnings"] == [
        "test_count 50 is below the 2759 needed for 2^-40 at tolerated fraction 0.01"
    ]
    assert set(data["protocol"]) == {"commitment", "scalar_stream", "measurement_stream"}


def test_report_serialization_is_canonical_and_digested(
    pointadd11, pointadd11_bytes
) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=10)
    report = verify(pointadd11_bytes, spec)
    raw = report.to_json_bytes()
    assert raw.endswith(b"\n")
    assert json.loads(raw) == report.data
    body = dict(report.data)
    del body["report_digest"]
    recomputed = hashlib.sha256(
        (json.dumps(body, sort_keys=True, indent=2) + "\n").encode()
    ).hexdigest()
    assert recomputed == report.digest


def test_verify_catches_a_mutated_circuit(pointadd11, pointadd11_bytes) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=50)
    mutated = serialize(mutate(parse(pointadd11_bytes), 7))
    report = verify(mutated, spec)
    assert not report.passed
    assert report.data["failures"] == 37  # frozen: deterministic protocol + mutation
    failing = [
        t["index"] for t in report.data["tests"]
        if not t["skipped"] and not (t["output_ok"] and t["phase_ok"])
    ]
    assert failing == report.data["failure_indices"]


def test_fail_fast_stops_at_the_first_failure(pointadd11, pointadd11_bytes) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=50)
    mutated = serialize(mutate(parse(pointadd11_bytes), 7))
    report = verify(mutated, spec, fail_fast=True)
    assert not report.passed
    assert report.data["fail_fast"] is True
    entries = report.data["tests"]
    assert len(entries) < 50
    last = entries[-1]
    assert not (last["output_ok"] and last["phase_ok"])
    for entry in entries[:-1]:
        assert entry["skipped"] or (entry["output_ok"] and entry["phase_ok"])


def test_resource_bounds_fail_an_otherwise_correct_circuit(
    pointadd11, pointadd11_bytes
) -> None:
    spec = spec_for_circuit(
        pointadd11.circuit,
        test_count=10,
        max_qubits=10,
        max_avg_non_clifford=50,
        max_total_ops=100,
    )
    report = verify(pointadd11_bytes, spec)
    assert not report.passed
    assert report.data["failures"] == 0  # the tests themselves are fine
    violations = report.data["bound_violations"]
    assert len(violations) == 3
    assert any("qubit count 14 exceeds 10" in v for v in violations)
    assert any("non-Clifford 66.000 exceeds 50" in v for v in violations)
    assert any("total gate count 353 exceeds 100" in v for v in violations)


def test_allow_failures_tolerates_the_declared_fraction(
    pointadd11, pointadd11_bytes
) -> None:
    mutated = serialize(mutate(parse(pointadd11_bytes), 7))
    # 37 of 50 tests fail; a 0.8 tolerance admits floor(0.8 * 50) = 40
    lax = spec_for_circuit(
        pointadd11.circuit,
        test_count=50,
        tolerated_failure_fraction=0.8,
        allow_failures=True,
    )
    report = verify(mutated, lax)
    assert report.passed
    assert report.data["tolerated_failures"] == 40
    assert report.data["failures"] == 37

    strict = spec_for_circuit(
        pointadd11.circuit,
        test_count=50,
        tolerated_failure_fraction=0.8,
    )
    assert not verify(mutated, strict).passed  # allow_failures defaults off


def test_undefined_policy_skips_exceptional_inputs(pointadd11) -> None:
    relaxed = pointadd11.circuit._replace(
        metadata={**pointadd11.circuit.metadata, "exceptional": "undefined"},
    )
    raw = serialize(relaxed)
    spec = spec_for_circuit(relaxed, test_count=60)
    report = verify(raw, spec)
    assert report.passed
    transcript = derive_tests(raw, spec)
    # with base G, the chord rule breaks exactly on k in {0, 1, order-1}
    expected_skips = sum(1 for scalar in transcript.scalars if scalar in (0, 1, 11))
    assert report.data["skipped_exceptional"] == expected_skips
    assert expected_skips > 0
    for entry in report.data["tests"]:
        if entry["skipped"]:
            assert entry["output_ok"] is None and entry["phase_ok"] is None
            assert entry["executed_total"] == 0


def test_all_tests_skipped_emits_a_warning(toy11) -> None:
    # identity base + undefined policy: the addend is always the identity,
    # so every drawn input is exceptional and nothing runs
    report_build = build_windowed_pointadd(toy11, INFINITY, 1)
    relaxed = report_build.circuit._replace(
        metadata={**report_build.circuit.metadata, "exceptional": "undefined"},
    )
    raw = serialize(relaxed)
    spec = spec_for_circuit(relaxed, test_count=10)
    report = verify(raw, spec)
    assert report.data["executed_tests"] == 0
    assert report.data["skipped_exceptional"] == 10
    assert "every test hit the exceptional-input policy; nothing ran" in report.data["warnings"]
    assert report.data["avg_executed_non_clifford"]["rounded"] == "0.000000"


def test_register_mapping_errors(pointadd11_bytes, windowed11_w2, windowed11_w2_bytes) -> None:
    missing = VerificationSpec(
        curve="toy-p11-b7",
        test_count=5,
        registers={"accumulator_x": "nope", "accumulator_y": "qy"},
    )
    with pytest.raises(HarnessError, match="accumulator_x -> 'nope'"):
        verify(pointadd11_bytes, missing)

    narrow = VerificationSpec(
        curve="toy-p11-b7",
        test_count=5,
        registers={"accumulator_x": "k", "accumulator_y": "qy"},
    )
    with pytest.raises(HarnessError, match=r"'k' is 2 bit\(s\) but curve"):
        verify(windowed11_w2_bytes, narrow)

    with pytest.raises(ValueError, match="unknown curve"):
        verify(pointadd11_bytes, VerificationSpec(curve="no-such", test_count=5))

    # refused before any test runs, in one line, not by the simulator
    twice = VerificationSpec(
        curve="toy-p11-b7",
        test_count=5,
        registers={"accumulator_x": "qx", "accumulator_y": "qx"},
    )
    roleless = VerificationSpec(curve="toy-p11-b7", test_count=5)  # no window role for k
    for raw, spec, message in (
        (pointadd11_bytes, twice,
         "register mapping mismatch: accumulator_y -> 'qx' is already mapped to accumulator_x"),
        (windowed11_w2_bytes, roleless,
         "register mapping mismatch: input register 'k' has no role"),
    ):
        for run in (verify, verify_exhaustive, derive_tests):
            with pytest.raises(HarnessError) as excinfo:
                run(raw, spec)
            assert str(excinfo.value) == message, run


def test_a_respelled_circuit_is_refused_on_its_line(pointadd11, pointadd11_respellings):
    # Every spelling parse accepted would seed its own transcript, so an
    # author could re-roll comments or whitespace until the tests miss a bug.
    spec = spec_for_circuit(pointadd11.circuit, test_count=20)
    for name, (raw, line) in pointadd11_respellings.items():
        for run in (verify, verify_exhaustive, derive_tests):
            with pytest.raises(ParseError) as excinfo:
                run(raw, spec)
            assert (excinfo.value.line, excinfo.value.column) == (line, 1), (name, run)


def test_base_metadata_errors(toy11) -> None:
    text = (
        "qubits 8\ncbits 0\n"
        "meta curve toy-p11-b7\n"
        "in qx 0..3\nin qy 4..7\nout qx 0..3\nout qy 4..7\n"
    )
    spec = VerificationSpec(curve="toy-p11-b7", test_count=5)
    with pytest.raises(HarnessError, match="metadata has no 'base'"):
        verify(text.encode(), spec)
    # (4, 4) is the generator; only its one spelling "4,4" names it
    for raw in ("4;4", "+4,0_4", "4 , 4", "\u0664,\u0664", "04,4", "4,4,4"):
        bad = text.replace("meta curve toy-p11-b7\n", f"meta base {raw}\n")
        for run_mode in (verify, verify_exhaustive):
            with pytest.raises(HarnessError) as excinfo:
                run_mode(bad.encode(), spec)
            assert str(excinfo.value) == f"unparseable base metadata {raw!r}"
    for raw, shown in (("1,1", "'1,1'"), ("9" * 3000 + ",5", "'" + "9" * 20 + "…'")):
        off = text.replace("meta curve toy-p11-b7\n", f"meta base {raw}\n")
        for run_mode in (verify, verify_exhaustive):
            with pytest.raises(HarnessError) as excinfo:
                run_mode(off.encode(), spec)
            assert str(excinfo.value) == f"base metadata {shown} is not on curve toy-p11-b7"


def test_identity_base_metadata_makes_a_gateless_circuit_correct() -> None:
    text = (
        "qubits 8\ncbits 0\n"
        "meta base inf\n"
        "in qx 0..3\nin qy 4..7\nout qx 0..3\nout qy 4..7\n"
    )
    spec = VerificationSpec(curve="toy-p11-b7", test_count=20)
    report = verify(text.encode(), spec)
    assert report.passed  # adding the identity is exactly a no-op
    assert report.data["avg_executed_non_clifford"]["rounded"] == "0.000000"


def test_base_source_generator_overrides_metadata(toy11) -> None:
    from kickmix import CurvePoint

    doubled = build_pointadd_permutation(toy11, CurvePoint(6, 6))  # base 2G
    raw = serialize(doubled.circuit)
    trusting = spec_for_circuit(doubled.circuit, test_count=30)
    assert verify(raw, trusting).passed  # metadata says 2G, circuit adds 2G
    suspicious = spec_for_circuit(
        doubled.circuit, test_count=30, base_source="generator"
    )
    report = verify(raw, suspicious)
    assert not report.passed  # the harness now expects +G on every test
    assert report.data["failures"] == 30


def _assert_rows_are_the_columns(report, transcript) -> None:
    """A report's per-test inputs are the transcript's drawn columns; a row
    leaves out a field whose column holds None."""
    rows = report.data["tests"]
    assert [row["index"] for row in rows] == list(range(len(transcript.scalars)))
    for name, column in (
        ("scalar", transcript.scalars),
        ("window", transcript.windows),
        ("addend_scalar", transcript.addend_scalars),
    ):
        assert [row.get(name) for row in rows] == list(column)
        assert all((name in row) == (value is not None) for row, value in zip(rows, column))


def test_windowed_report_rows_are_the_transcript_columns(
    windowed11_w2, windowed11_w2_bytes
) -> None:
    spec = spec_for_circuit(windowed11_w2.circuit, test_count=40)
    report = verify(windowed11_w2_bytes, spec)
    transcript = derive_tests(windowed11_w2_bytes, spec)
    assert report.passed and None not in transcript.windows
    assert transcript.addend_scalars == (None,) * 40
    _assert_rows_are_the_columns(report, transcript)


def test_two_point_adder_path_uses_addend_scalars() -> None:
    # A gateless circuit with all four point registers: it "computes"
    # Q + A = Q, which is right exactly when A is the identity.
    text = (
        "qubits 16\ncbits 0\n"
        "in qx 0..3\nin qy 4..7\nin ax 8..11\nin ay 12..15\n"
        "out qx 0..3\nout qy 4..7\nout ax 8..11\nout ay 12..15\n"
    )
    spec = VerificationSpec(
        curve="toy-p11-b7",
        test_count=60,
        registers={
            "accumulator_x": "qx",
            "accumulator_y": "qy",
            "addend_x": "ax",
            "addend_y": "ay",
        },
    )
    raw = text.encode()
    report = verify(raw, spec)
    transcript = derive_tests(raw, spec)
    assert None not in transcript.addend_scalars
    expected_failures = [i for i, a in enumerate(transcript.addend_scalars) if a != 0]
    assert report.data["failure_indices"] == expected_failures
    _assert_rows_are_the_columns(report, transcript)
    with pytest.raises(HarnessError, match="fixed-base and windowed circuits only"):
        verify_exhaustive(raw, spec)


def test_zero_tolerance_delegates_to_exhaustive(pointadd11, pointadd11_bytes) -> None:
    spec = spec_for_circuit(
        pointadd11.circuit, test_count=0, tolerated_failure_fraction=0
    )
    report = verify(pointadd11_bytes, spec)
    assert report.data["mode"] == "exhaustive"
    assert report.passed


def test_zero_tolerance_refuses_fail_fast(pointadd11, pointadd11_bytes) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=0, tolerated_failure_fraction=0)
    with pytest.raises(HarnessError) as excinfo:
        verify(pointadd11_bytes, spec, fail_fast=True)
    assert str(excinfo.value) == (
        "fail_fast does not apply to exhaustive verification (tolerated_failure_fraction 0)"
    )


def test_exhaustive_covers_every_point_and_branch(pointadd11, pointadd11_bytes) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=0, tolerated_failure_fraction=0)
    report = verify_exhaustive(pointadd11_bytes, spec)
    data = report.data
    assert report.passed
    assert data["test_count"] == 12  # 11 finite points plus the identity
    assert data["tests"][0]["accumulator"] == "inf"
    for entry in data["tests"]:
        assert entry["branches_covered"] == "2^66"
        assert entry["executed_non_clifford"] == 66


def test_exhaustive_windowed_covers_the_product_domain(
    windowed11_w2, windowed11_w2_bytes
) -> None:
    spec = spec_for_circuit(
        windowed11_w2.circuit, test_count=0, tolerated_failure_fraction=0
    )
    report = verify_exhaustive(windowed11_w2_bytes, spec)
    assert report.passed
    assert report.data["test_count"] == 48  # 4 window values x 12 points
    windows = {entry["window"] for entry in report.data["tests"]}
    assert windows == {0, 1, 2, 3}


def _with_lines(data: bytes, *lines: str) -> bytes:
    """A canonical circuit with gate lines appended."""
    return data + "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize("extra, sampled_failures, exhaustive_failures",
                         [("X 13", 2759, 12), ("CX 0 13", 1384, 6)])
def test_a_qubit_left_set_outside_the_outputs_fails(
    pointadd11, pointadd11_bytes, extra, sampled_failures, exhaustive_failures
) -> None:
    """p11's outputs are qubits 0..7; qubit 13 is an ancilla, which a clean
    run leaves at 0 on every input and branch."""
    assert [(r.lo, r.hi) for r in pointadd11.circuit.outputs] == [(0, 3), (4, 7)]
    dirty = _with_lines(pointadd11_bytes, extra)
    sampled = verify(dirty, spec_for_circuit(pointadd11.circuit))
    exhaustive = verify_exhaustive(dirty, spec_for_circuit(
        pointadd11.circuit, test_count=0, tolerated_failure_fraction=0))
    for report, failures in ((sampled, sampled_failures), (exhaustive, exhaustive_failures)):
        assert not report.passed
        assert report.data["failures"] == failures
        for entry in report.data["tests"]:
            assert entry["phase_ok"] is True  # only the ancilla tells


def test_a_copy_of_any_output_bit_in_any_ancilla_fails(pointadd11, pointadd11_bytes) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=0, tolerated_failure_fraction=0)
    assert pointadd11.circuit.qubit_count == 14
    for out in range(8):
        for ancilla in range(8, 14):
            report = verify_exhaustive(_with_lines(pointadd11_bytes, f"CX {out} {ancilla}"), spec)
            assert not report.passed, (out, ancilla)


# ---------------------------------------------------------------------------
# lane chunks, streams, and spec types


def test_reports_do_not_depend_on_the_lane_chunk_size(
    pointadd11, pointadd11_bytes, monkeypatch
) -> None:
    spec = spec_for_circuit(pointadd11.circuit, test_count=50)
    mutated = serialize(mutate(parse(pointadd11_bytes), 5))
    full = verify(mutated, spec)
    fast = verify(mutated, spec, fail_fast=True)
    exhaustive_spec = spec_for_circuit(
        pointadd11.circuit, test_count=0, tolerated_failure_fraction=0
    )
    exhaustive = verify_exhaustive(mutated, exhaustive_spec)
    first = full.data["failure_indices"][0]
    assert first >= 2  # so a two-lane chunk passes cleanly before the failure
    assert fast.data["tests"] == full.data["tests"][: first + 1]

    monkeypatch.setattr(harness, "LANE_CHUNK", 2)
    assert verify(mutated, spec).to_json_bytes() == full.to_json_bytes()
    assert verify(mutated, spec, fail_fast=True).to_json_bytes() == fast.to_json_bytes()
    assert verify_exhaustive(mutated, exhaustive_spec).to_json_bytes() == (
        exhaustive.to_json_bytes()
    )


def _replayed(circuit, monkeypatch):
    """A 60-test report in 7-lane chunks, with each executed row's inputs,
    oracle outputs and transcript."""
    raw = serialize(circuit)
    spec = spec_for_circuit(circuit, test_count=60)
    monkeypatch.setattr(harness, "LANE_CHUNK", 7)
    report = verify(raw, spec)
    transcript = derive_tests(raw, spec)
    cases = harness._transcript_cases(harness._resolve(parse(raw), spec), transcript)
    return report, transcript, [(entry["index"], case) for entry, case in cases]


def test_report_rows_equal_a_scalar_replay(pointadd11, monkeypatch) -> None:
    """Outputs are judged once per slot and counts come from columns; every
    executed row must still be what one sim.run on its own branch gives."""
    p11 = pointadd11.circuit
    fixed = conditioned_cx_circuit(p11)
    cb = fixed.classical_bit_count - 1
    broken = fixed._replace(gates=fixed.gates + (Gate("X", (0,), condition=(cb, 1)),))
    for circuit in (p11, mutate(p11, 5), broken):
        report, transcript, cases = _replayed(circuit, monkeypatch)
        rows = report.data["tests"]
        assert [row["index"] for row in rows] == [index for index, _ in cases] == list(range(60))
        for row, (index, (inputs, expected)) in zip(rows, cases):
            scalar = sim.run(circuit, inputs, transcript.measurement_bits(index))
            assert row["skipped"] is False
            assert row["output_ok"] == all(scalar.outputs[k] == v for k, v in expected.items())
            assert row["phase_ok"] == (scalar.phase == 1)
            assert row["executed_total"] == scalar.executed_total
            assert row["executed_non_clifford"] == scalar.executed_non_clifford
        assert report.data["failure_indices"] == [
            row["index"] for row in rows if not (row["output_ok"] and row["phase_ok"])
        ]
        # the mutant and the broken circuit fail some rows and pass others
        assert 0 < report.data["failures"] < 60 if circuit is not p11 else report.passed


def test_verify_builds_no_lane_result(pointadd11, monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("verify built a LaneResult")

    monkeypatch.setattr(sim, "check_phase_all_branches", refuse)
    monkeypatch.setattr(sim, "LaneResult", refuse)
    p11 = pointadd11.circuit
    assert verify(serialize(p11), spec_for_circuit(p11)).digest == GOLDEN["p11-transcript"]
    conditioned = verify(serialize(conditioned_cx_circuit(p11)),
                         spec_for_circuit(p11, test_count=300))
    assert conditioned.digest == GOLDEN["p11-conditioned-cx"]


class _CountingShake:
    def __init__(self, seed: bytes) -> None:
        self._real = hashlib.shake_256(seed)
        self.hashed = 0

    def digest(self, length: int) -> bytes:
        self.hashed += length
        return self._real.digest(length)


def test_measurement_bits_are_prefix_exact_and_hash_linearly(
    pointadd11, pointadd11_bytes, monkeypatch
) -> None:
    transcript = derive_tests(pointadd11_bytes, spec_for_circuit(pointadd11.circuit, test_count=3))
    seed = transcript._measurement_seed(2)
    shakes: list[_CountingShake] = []

    class CountingHashlib:
        @staticmethod
        def shake_256(data: bytes) -> _CountingShake:
            shakes.append(_CountingShake(data))
            return shakes[-1]

    monkeypatch.setattr(harness, "hashlib", CountingHashlib)
    count = 8 * 9024 * 32
    bits = list(itertools.islice(transcript.measurement_bits(2), count))
    raw = hashlib.shake_256(seed).digest(count // 8)
    assert bits == [(byte >> shift) & 1 for byte in raw for shift in range(7, -1, -1)]
    assert len(shakes) == 1 and shakes[0].hashed <= 4 * (count // 8)


def test_measurement_words_are_the_stream_prefix(pointadd11, pointadd11_bytes) -> None:
    transcript = derive_tests(pointadd11_bytes, spec_for_circuit(pointadd11.circuit, test_count=3))
    for count in (0, 1, 7, 8, 9, 66, 200):
        bits = transcript.measurement_bits(2)
        prefix = [next(bits) for _ in range(count)]
        [word] = transcript.measurement_words([2], count)
        assert word == int("".join(map(str, prefix)) or "0", 2)


def test_measurement_words_are_each_index_shake_prefix_hashed_once(
    pointadd11, pointadd11_bytes, monkeypatch
) -> None:
    transcript = derive_tests(pointadd11_bytes, spec_for_circuit(pointadd11.circuit, test_count=3))
    indices = [0, 2, 7, 2**40 + 5]
    for count in (0, 1, 7, 8, 9, 66, 200):
        expected = [
            int.from_bytes(hashlib.shake_256(transcript._measurement_seed(i)).digest(
                (count + 7) // 8), "big") >> (-count % 8)
            for i in indices
        ]
        words = [transcript.measurement_words([i], count)[0] for i in indices]
        shakes: list[_CountingShake] = []

        class CountingHashlib:
            @staticmethod
            def shake_256(data: bytes) -> _CountingShake:
                shakes.append(_CountingShake(data))
                return shakes[-1]

        monkeypatch.setattr(harness, "hashlib", CountingHashlib)
        assert transcript.measurement_words(iter(indices), count) == words == expected
        monkeypatch.undo()
        assert [shake.hashed for shake in shakes] == [(count + 7) // 8] * len(indices)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("test_count", 5.5, "'test_count' must be an integer, got float"),
        ("test_count", True, "'test_count' must be an integer, got bool"),
        ("test_count", "5", "'test_count' must be an integer, got str"),
        ("registers", "qx", "'registers' must be an object mapping roles"),
        ("registers", {"accumulator_x": 1}, "'registers' must be an object mapping roles"),
        ("tolerated_failure_fraction", "0.01", "must be a number, got str"),
        ("tolerated_failure_fraction", float("nan"), "must be a number, got float"),
        ("security_bits", 40.0, "'security_bits' must be an integer, got float"),
        ("max_avg_non_clifford", "66", "must be a number or null, got str"),
        ("max_avg_non_clifford", float("inf"), "must be a number or null, got float"),
        ("max_qubits", False, "'max_qubits' must be an integer or null, got bool"),
        ("max_qubits", "3", "'max_qubits' must be an integer or null, got str"),
        ("max_total_ops", [1], "'max_total_ops' must be an integer or null, got list"),
        ("allow_failures", 1, "'allow_failures' must be true or false, got int"),
        ("curve", None, "'curve' must be a string, got NoneType"),
        ("test_count", 2**17 + 1, "test_count must be >= 0 and at most 131072, got 131073"),
        ("test_count", 10**15, "test_count must be >= 0 and at most 131072, got 1000000000000000"),
    ],
)
@pytest.mark.parametrize(
    "build",
    [VerificationSpec.from_dict, lambda data: VerificationSpec(**data)],
    ids=["from_dict", "constructor"],
)
def test_spec_from_dict_checks_field_types(build, field, value, message) -> None:
    # from_dict and direct construction share one statement of the types
    data = {"curve": "toy-p11-b7", "test_count": 5, field: value}
    with pytest.raises(HarnessError) as excinfo:
        build(data)
    assert message in str(excinfo.value) and len(str(excinfo.value)) < 200


def test_spec_from_dict_accepts_every_json_type_it_documents() -> None:
    spec = VerificationSpec.from_dict(
        {
            "curve": "toy-p11-b7",
            "test_count": 5,
            "tolerated_failure_fraction": 0,
            "max_avg_non_clifford": 66,
            "max_qubits": None,
            "allow_failures": False,
        }
    )
    assert spec.tolerated_failure_fraction == 0 and spec.max_avg_non_clifford == 66


@pytest.mark.parametrize("bound", [float("inf"), float("nan")])
def test_spec_rejects_a_non_finite_average_bound(bound) -> None:
    with pytest.raises(HarnessError) as excinfo:
        VerificationSpec(curve="toy-p11-b7", test_count=5, max_avg_non_clifford=bound)
    assert str(excinfo.value) == (
        "spec field 'max_avg_non_clifford' must be a number or null, got float"
    )


def test_spec_side_errors_cut_long_strings(pointadd11_bytes) -> None:
    long = "a" * 5000
    attempts = [
        lambda: VerificationSpec(curve="toy-p11-b7", test_count=1, base_source=long),
        lambda: VerificationSpec(curve="toy-p11-b7", test_count=1, registers={long: "qx"}),
        lambda: VerificationSpec.from_dict({"curve": "toy-p11-b7", "test_count": 1, long: 1}),
        lambda: verify(
            pointadd11_bytes,
            VerificationSpec(
                curve="toy-p11-b7",
                test_count=1,
                registers={"accumulator_x": long, "accumulator_y": "qy"},
            ),
        ),
        lambda: verify(pointadd11_bytes, VerificationSpec(curve=long, test_count=1)),
    ]
    for attempt in attempts:
        with pytest.raises(ValueError) as excinfo:
            attempt()
        message = str(excinfo.value)
        assert len(message.splitlines()) == 1 and len(message) < 200, message[:300]
        assert "a" * 20 + "…" in message


# JSON trees as a report can hold them, with the awkward corners of each type.
_JSON_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "é \U0001f600", "\ud800", 'a"b\\c\nd']
)
_JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(2**64), 2**200, -(10**300)])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e300, -1e-300])
    | _JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_JSON_TREES)
def test_canonical_json_matches_json_dumps(value) -> None:
    expected = (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()
    assert harness._canonical_json(value) == expected


@pytest.mark.parametrize(
    "value, error",
    [
        (float("inf"), ValueError),
        (float("-inf"), ValueError),
        ({"a": [float("nan")]}, ValueError),
        ({1: "a"}, TypeError),
        ({True: "a"}, TypeError),
        ({None: "a"}, TypeError),
        ({"a": 1, 2: 3}, TypeError),
        ((1, 2), TypeError),
        ({"a": (1,)}, TypeError),
        (Fraction(1, 2), TypeError),
        (b"bytes", TypeError),
        ({1}, TypeError),
        (object(), TypeError),
    ],
)
def test_canonical_json_refuses_what_it_cannot_encode(value, error) -> None:
    with pytest.raises(error):
        harness._canonical_json(value)


# Lists of rows that share one key set, as the report's ``tests`` is, with
# keys that a %-template or an escape could get wrong and columns of one
# exact type (the mapped path) or of mixed ones (the value-by-value path).
_ROW_KEYS = st.sampled_from(["%", "%s", "%%", "a%(b)s", '"', 'q"%d', "é", "\U0001f600", "index"])
_COLUMNS = [
    st.integers(),
    _JSON_TEXT,
    st.booleans(),
    st.booleans() | st.none(),
    st.integers() | st.booleans(),
    st.integers() | st.booleans() | st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=3) | st.just("inf"),
    _JSON_TREES,
    # Constant columns, and equal values that encode differently.
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([[1], [True]]),
    st.just("%s"),
    st.just(None),
    st.just(7),
]


@st.composite
def _row_lists(draw) -> list:
    keys = draw(st.lists(_ROW_KEYS | _JSON_TEXT, max_size=5, unique=True))
    columns = {key: draw(st.sampled_from(_COLUMNS)) for key in keys}
    count = draw(st.integers(1, 6))
    return [{key: draw(column) for key, column in columns.items()} for _ in range(count)]


@st.composite
def _scalar_lists(draw) -> list:
    """Scalars of one type, sometimes with one stray bool or str."""
    values = draw(st.lists(draw(st.sampled_from(_COLUMNS[:4])), min_size=1, max_size=6))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(values)))
        values.insert(at, draw(st.booleans() | _JSON_TEXT))
    return values


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_row_lists(), _scalar_lists(), st.integers(0, 2))
def test_canonical_json_encodes_rows_and_scalar_lists_like_json_dumps(rows, scalars, depth) -> None:
    value = {"tests": rows, "failure_indices": scalars, "pair": [rows, scalars]}
    for _ in range(depth):
        value = [value, {"%": value}]
    expected = (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()
    assert harness._canonical_json(value) == expected


class _Colour(enum.IntEnum):
    RED = 1


@pytest.mark.parametrize(
    "value",
    [[{"s": text, "i": i} for i in range(3)] for text in ("%", "%s", "%%", "a%(b)s%d")] + [
        [{"n": 7, "i": 0}, {"n": 7, "i": 1}],
        [{"b": True, "i": 0}, {"b": True, "i": 1}],
        [{"b": False, "z": None, "s": "é"}, {"b": False, "z": None, "s": "é"}],
        [{"z": None, "i": 5}, {"z": None, "i": 6}],
        # Equal values of one column that encode differently.
        [{"a": 0.0}, {"a": -0.0}],
        [{"a": [1]}, {"a": [True]}],
        [{"a": 1}, {"a": True}],
        [{"a": 1.0, "i": 0}, {"a": 1.0, "i": 1}],
        [{"a": {"x": [1]}}, {"a": {"x": [True]}}],
        # Two rows whose columns are all constant, one with % in its key.
        [{"%": "%s", "n": 7, "t": True, "z": None}] * 2,
        [{"%": 0, "q": "q"}, {"%": 0, "q": "q"}],
        [{"n": 2**64, "%d": -(2**64)}] * 3,
    ],
)
def test_canonical_json_writes_one_value_columns_into_the_row_template(value) -> None:
    for tree in (value, {"tests": value}, [value, value]):
        assert harness._canonical_json(tree) == (
            json.dumps(tree, sort_keys=True, indent=2) + "\n"
        ).encode()


def test_canonical_json_refuses_a_one_value_int_enum_column() -> None:
    with pytest.raises(TypeError, match="_Colour has no canonical JSON form"):
        harness._canonical_json([{"a": _Colour.RED, "i": 0}, {"a": _Colour.RED, "i": 1}])
    with pytest.raises(TypeError, match="_Colour has no canonical JSON form"):
        harness._canonical_json([{"a": _Colour.RED}] * 2)


_ROWS = [{"index": i, "scalar": i * i, "ok": i % 2 == 0, "x": float(i)} for i in range(6)]


@pytest.mark.parametrize(
    "late, error, message",
    [
        ({"x": float("nan")}, ValueError, "JSON has no form for the float nan"),
        ({"ok": (1,)}, TypeError, "tuple has no canonical JSON form"),
        ({"scalar": _Colour.RED}, TypeError, "_Colour has no canonical JSON form"),
        ({"index": 5, 5: 5}, TypeError, "not supported between instances"),
    ],
)
def test_canonical_json_refuses_a_bad_value_in_a_late_row(late, error, message) -> None:
    rows = [dict(row) for row in _ROWS]
    rows[-1].update(late)
    if len(rows[-1]) > len(rows[0]):
        del rows[-1]["scalar"]  # one key swapped: same size, other key set
    for value in (rows, {"tests": rows}):
        with pytest.raises(error, match=message):
            harness._canonical_json(value)


@pytest.mark.parametrize(
    "value, error, message",
    [
        ([1, 2, _Colour.RED], TypeError, "_Colour has no canonical JSON form"),
        ([1.0, 2.0, float("nan")], ValueError, "float nan"),
        ([{"a": 1}, {1: 1}], TypeError, "must be a string"),
        ([{1: 1}, {1: 2}], TypeError, "must be a string"),
        ([{"a": 1}, {"a": (1,)}], TypeError, "tuple has no canonical JSON form"),
        # Row by row, row 0's NaN comes before row 1's tuple.
        ([{"a": 1, "b": float("nan")}, {"a": (1,), "b": 2}], ValueError, "float nan"),
    ],
)
def test_canonical_json_raises_the_first_error_in_row_order(value, error, message) -> None:
    with pytest.raises(error, match=message):
        harness._canonical_json(value)


def test_unknown_names_are_cut_and_escaped_to_one_line() -> None:
    roles = {"accumulator_x": "qx", "accumulator_y": "qy"}
    attempts = [
        (lambda: VerificationSpec.from_dict({"curve": "toy-p11-b7", "test_count": 1, "a\nb": 1}),
         "unknown spec field(s): a\\nb"),
        (lambda: VerificationSpec(curve="toy-p11-b7", test_count=1,
                                  registers={**roles, "r\x00\u2028": "x"}),
         "unknown register role(s): r\\x00\\u2028"),
        (lambda: VerificationSpec.from_dict({"curve": "toy-p11-b7", "test_count": 1,
                                             "\n" * 5000: 1, "shiny": 1}),
         "unknown spec field(s): " + "\\n" * 20 + "…"),
        (lambda: VerificationSpec.from_dict({"curve": "toy-p11-b7", "test_count": 1,
                                             "shiny": 1, "dull": 2}),
         "unknown spec field(s): dull, shiny"),
    ]
    for attempt, message in attempts:
        with pytest.raises(HarnessError) as excinfo:
            attempt()
        assert str(excinfo.value) == message


def test_test_count_ceiling_covers_every_documented_plan() -> None:
    assert harness.MAX_TEST_COUNT == 1 << 17
    for eps, bits in ((0.001, 128), (0.01, 1024), (0.01, 128), (0.01, 40)):
        count = required_test_count(eps, bits)
        assert VerificationSpec(curve="toy-p11-b7", test_count=count).test_count == count
    VerificationSpec(curve="toy-p11-b7", test_count=harness.MAX_TEST_COUNT)
    with pytest.raises(HarnessError, match="at most 131072, got 131073"):
        VerificationSpec(curve="toy-p11-b7", test_count=harness.MAX_TEST_COUNT + 1)
