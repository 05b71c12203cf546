"""Self-seeded verification of curve-arithmetic circuits.

The harness checks a circuit file against the classical curve oracle on
pseudo-random inputs that the circuit file itself determines, so a verifier
needs nothing but the file to reproduce the exact test set:

* commitment = SHA-256 of the raw file bytes;
* test scalars come from a SHAKE256 stream seeded with those same bytes:
  k_1..k_N are drawn first, sequentially, each as ceil(order_bits / 8)
  bytes, big-endian, reduced modulo the curve group order (then window
  values w_1..w_N for windowed circuits, then addend scalars for two-point
  adders, in that order, with the analogous width rules); a
  :class:`Transcript` holds each draw as one column of N values (None where
  the circuit has no window or addend register), and a report's per-test
  ``scalar``, ``window`` and ``addend_scalar`` fields are those columns;
* measurement randomness for test i comes from its own stream,
  SHAKE256(commitment_bytes || i as 8-byte big-endian), consumed one byte
  at a time, bits taken most-significant first — so tests can run in any
  order or in parallel without changing a single outcome.

Test i drives the circuit with the point k_i * G and compares the simulated
output registers with the oracle sum, and every other qubit with 0; the verdict
also requires the run to end with phase +1 and the declared resource bounds to
hold.  Inputs the circuit's metadata declares undefined-by-contract (identity /
inverse / doubling cases) are skipped and counted, never silently passed.

A circuit wrong on at least a fraction eps of its domain slips past N
random tests with probability at most (1 - eps)^N;
:func:`required_test_count` returns the smallest N pushing that below
2^-security_bits (computed exactly, no floating point at the boundary).

The commitment covers canonical bytes: :func:`~kickmix.circuit.parse`
accepts only what ``serialize`` writes, so a comment, blank line or other
spelling of the same circuit cannot buy a fresh transcript.  ``meta``
values are still the author's free choice, and each one seeds another
transcript, so ``security_bits`` is also the grinding margin: an author
re-rolling them expects about 2^security_bits tries before a circuit
wrong on the tolerated fraction passes.

Reports are canonical JSON, the exact bytes of ``json.dumps(report,
sort_keys=True, indent=2) + "\n"`` (ASCII-escaped, no non-finite float), and
carry ``report_digest``: the SHA-256 of that encoding without the digest
member, which anyone recomputes by dropping it.  Two runs agree iff their
report bytes agree.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .circuit import Circuit, _Record, _shown, parse, static_resources
from .curve import (
    CurveParams, CurvePoint, encode_point, is_on_curve, named_curve, parse_point, point_add,
    point_neg, scalar_mul,
)
# run and check_phase_all_branches stay importable from here: the benchmark
# in perfbench/ times the simulator layer by wrapping these names.
from .sim import _lane_pass, check_phase_all_branches, run  # noqa: F401

__all__ = [
    "HarnessError",
    "VerificationSpec",
    "Transcript",
    "VerificationReport",
    "commit",
    "derive_tests",
    "verify",
    "verify_exhaustive",
    "required_test_count",
    "spec_for_circuit",
    "ROLES",
    "MAX_POWER_BITS",
    "MAX_TEST_COUNT",
]

ROLES = ("accumulator_x", "accumulator_y", "window", "addend_x", "addend_y")

# Ceiling on the size of the exact powers (1 - eps)^n that required_test_count
# compares: about n times the bit length of eps's denominator.  Every plan in
# the tests and the README stays below it (the largest, eps 0.01 at 1024
# bits, is about 494k bits); eps 0.0001 at 1024 bits would need 10^8.
MAX_POWER_BITS = 1 << 21

# Ceiling on a spec's test_count, above every documented plan (the largest is
# required_test_count(0.001, 128) = 88,679); 2^16 p11 tests take 2 s, 143 MB.
MAX_TEST_COUNT = 1 << 17

# Self-description embedded in every report so a reader can re-derive the
# transcript without consulting anything else.  Measurement bits come from
# per-test streams (not interleaved into the scalar stream) so tests can run
# in any order or in parallel with identical results.
_PROTOCOL_HEADER = {
    "commitment": "sha256(circuit_bytes)",
    "scalar_stream": "shake256(circuit_bytes): scalars, then window values, "
    "then addend scalars; big-endian, reduced mod order / 2^window_bits",
    "measurement_stream": "shake256(sha256(circuit_bytes) || test_index_u64be), "
    "bits most-significant-first per byte",
}


class HarnessError(ValueError):
    """Verification could not be set up (bad mapping, metadata, or spec)."""


def _unknown(what: str, names: list[str]) -> str:
    """'unknown <what>: <names>' on one short line: the names are cut like any
    echoed string, and characters that do not print are escaped."""
    shown = _shown(", ".join(names))
    return f"unknown {what}: " + "".join(c if c.isprintable() else repr(c)[1:-1] for c in shown)


def commit(data: bytes) -> str:
    """Hex SHA-256 commitment to exact bytes."""
    return hashlib.sha256(data).hexdigest()


def required_test_count(tolerated_fraction, security_bits: int) -> int:
    """Smallest N with (1 - eps)^N <= 2^-security_bits, exactly.

    eps is taken at decimal face value (0.01 means exactly 1/100).  eps = 0
    is refused: no finite number of random tests covers it — enumerate the
    domain instead (see verify_exhaustive)."""
    from fractions import Fraction

    eps = tolerated_fraction if isinstance(tolerated_fraction, Fraction) else Fraction(
        str(tolerated_fraction)
    )
    if not 0 < eps < 1:
        raise ValueError(
            "tolerated fraction must be in (0, 1); for 0, enumerate the domain "
            "exhaustively instead of sampling"
        )
    try:
        lam = int(security_bits)
    except (OverflowError, ValueError):  # an infinite or NaN float
        lam = 0
    if lam != security_bits or lam < 1:
        raise ValueError(f"security_bits must be a positive integer, got {_shown(security_bits)}")
    rate = -math.log1p(-float(eps))  # -ln(1 - eps), accurate for small eps
    # a lam too long for a float is far over the ceiling below
    estimate = lam * math.log(2) / rate if rate > 0 and lam.bit_length() < 1000 else math.inf
    power_bits = estimate * eps.denominator.bit_length()
    if power_bits > MAX_POWER_BITS:
        raise ValueError(
            f"tolerated fraction {_shown(tolerated_fraction)} at {_shown(security_bits)} "
            f"security bits needs exact powers of about {power_bits:.3g} bits, over the "
            f"ceiling of {MAX_POWER_BITS}; raise the fraction or lower the security bits"
        )
    survive = 1 - eps
    bound = Fraction(1, 1 << lam)
    n = max(1, math.ceil(estimate))
    while survive**n > bound:
        n += 1
    while n > 1 and survive ** (n - 1) <= bound:
        n -= 1
    return n


# The JSON type of each spec field, and how an error message names it;
# VerificationSpec checks every field against it before anything else, and
# its fields are these, in this order.
_NULL = type(None)
_SPEC_FIELDS = {
    "curve": ((str,), "a string"),
    "test_count": ((int,), "an integer"),
    "registers": ((dict,), "an object mapping roles to register names"),
    "base_source": ((str,), "a string"),
    "tolerated_failure_fraction": ((int, float), "a number"),
    "security_bits": ((int,), "an integer"),
    "max_avg_non_clifford": ((int, float, _NULL), "a number or null"),
    "max_qubits": ((int, _NULL), "an integer or null"),
    "max_total_ops": ((int, _NULL), "an integer or null"),
    "allow_failures": ((bool,), "true or false"),
}


_DEFAULT_REGISTERS = {"accumulator_x": "qx", "accumulator_y": "qy"}  # copied for each spec


class VerificationSpec(_Record):
    """What to verify and under which budgets.

    registers maps roles (accumulator_x, accumulator_y, optional window,
    optional addend_x/addend_y) to the circuit's register names; the spec
    keeps a read-only view of its own copy.
    base_source selects where the fixed addend comes from: the circuit's
    'base' metadata, or the curve generator.  max_avg_non_clifford bounds
    the *average executed* CCX+CCZ count per test; max_qubits and
    max_total_ops bound the static circuit width and gate count."""

    __slots__ = _fields = tuple(_SPEC_FIELDS)

    def __init__(self, curve: str, test_count: int,
                 registers: dict[str, str] = _DEFAULT_REGISTERS, base_source: str = "metadata",
                 tolerated_failure_fraction: float = 0.01, security_bits: int = 128,
                 max_avg_non_clifford: float | None = None, max_qubits: int | None = None,
                 max_total_ops: int | None = None, allow_failures: bool = False) -> None:
        self._set(curve, test_count, registers, base_source, tolerated_failure_fraction,
                  security_bits, max_avg_non_clifford, max_qubits, max_total_ops, allow_failures)
        for name, (types, what) in _SPEC_FIELDS.items():
            value = getattr(self, name)
            if not _fits(value, types):
                raise HarnessError(f"spec field {name!r} must be {what}, "
                                   f"got {_shown(type(value).__name__)}")
        object.__setattr__(self, "registers", MappingProxyType(dict(self.registers)))
        if not 0 <= self.test_count <= MAX_TEST_COUNT:
            raise HarnessError(
                f"test_count must be >= 0 and at most {MAX_TEST_COUNT}, "
                f"got {_shown(self.test_count)}"
            )
        if self.base_source not in ("metadata", "generator"):
            raise HarnessError(
                "base_source must be 'metadata' or 'generator', "
                f"got {_shown(self.base_source)!r}"
            )
        unknown = sorted(set(self.registers) - set(ROLES))
        if unknown:
            raise HarnessError(_unknown("register role(s)", unknown))
        for role in ("accumulator_x", "accumulator_y"):
            if role not in self.registers:
                raise HarnessError(f"register mapping must include {role}")
        if ("addend_x" in self.registers) != ("addend_y" in self.registers):
            raise HarnessError("addend_x and addend_y must be mapped together")
        if not 0 <= self.tolerated_failure_fraction < 1:
            raise HarnessError("tolerated_failure_fraction must be in [0, 1)")
        if self.security_bits < 1:
            raise HarnessError(f"security_bits must be >= 1, got {_shown(self.security_bits)}")

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: Mapping) -> "VerificationSpec":
        """Build a spec from decoded JSON; the constructor checks each field's type."""
        unknown = sorted(set(data) - set(_SPEC_FIELDS))
        if unknown:
            raise HarnessError(_unknown("spec field(s)", unknown))
        if "curve" not in data or "test_count" not in data:
            raise HarnessError("spec requires at least curve and test_count")
        return cls(**data)


def _fits(value, types: tuple) -> bool:
    """isinstance, except that bool is no number, floats must be finite, and
    objects must map strings to strings."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        return False
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and isinstance(v, str) for k, v in value.items())
    return True


def spec_for_circuit(circuit: Circuit, **overrides) -> VerificationSpec:
    """Best-effort spec from circuit metadata and registers.

    Defaults to the lighter 40-bit regime with a matching test count so the
    resulting spec is consistent (no sufficiency warning) and still cheap
    enough for toy curves."""
    curve_name = overrides.pop("curve", circuit.metadata.get("curve"))
    if curve_name is None:
        raise HarnessError("circuit metadata names no curve; pass one explicitly")
    registers = dict(_DEFAULT_REGISTERS)
    if any(reg.name == "k" for reg in circuit.inputs):
        registers["window"] = "k"
    overrides.setdefault("registers", registers)
    overrides.setdefault("security_bits", 40)
    # The spec checks every override's type before the count is worked out.
    spec = VerificationSpec(curve=curve_name, **{"test_count": 0, **overrides})
    if "test_count" in overrides or spec.tolerated_failure_fraction == 0:
        return spec
    return spec._replace(test_count=required_test_count(spec.tolerated_failure_fraction,
                                                         spec.security_bits))


class Transcript(_Record):
    """Commitment plus the drawn test inputs, one column per draw: test i
    drives scalars[i], windows[i] and addend_scalars[i], each None where the
    circuit has no window or addend register.  See the module docstring for
    the byte-exact derivation rules."""

    __slots__ = _fields = ("commitment", "curve_name", "scalars", "windows", "addend_scalars")

    def __init__(self, commitment: str, curve_name: str, scalars: tuple[int, ...],
                 windows: tuple[int | None, ...], addend_scalars: tuple[int | None, ...]) -> None:
        self._set(commitment, curve_name, scalars, windows, addend_scalars)

    def measurement_bits(self, index: int) -> Iterator[int]:
        """Endless bits of test index's stream: bytes in order, bits most
        significant first.  SHAKE output is only taken as a prefix, so the
        prefix doubles from 64 bytes: n bytes read cost O(n) bytes hashed."""
        xof = hashlib.shake_256(self._measurement_seed(index))
        start, end = 0, 64
        while True:
            for byte in xof.digest(end)[start:]:
                for shift in range(7, -1, -1):
                    yield (byte >> shift) & 1
            start, end = end, 2 * end

    def measurement_words(self, indices: Iterable[int], count: int) -> list[int]:
        """For each index, the first count bits of that test's measurement
        stream as one big-endian int (the stream's first bit is the most
        significant), with the seed prefix decoded once."""
        prefix, shake, word = bytes.fromhex(self.commitment), hashlib.shake_256, int.from_bytes
        size, shift = (count + 7) // 8, -count % 8
        return [word(shake(prefix + i.to_bytes(8, "big")).digest(size), "big") >> shift
                for i in indices]

    def _measurement_seed(self, index: int) -> bytes:
        return bytes.fromhex(self.commitment) + index.to_bytes(8, "big")


def derive_tests(circuit_bytes: bytes, spec: VerificationSpec) -> Transcript:
    """Derive the deterministic test set for a circuit file under a spec.

    Parses the circuit to learn the window width and whether a second input
    point is needed, then applies the byte-exact draw rules from the module
    docstring."""
    plan = _resolve(parse(circuit_bytes), spec)
    return _derive(circuit_bytes, plan, spec.test_count)


def _derive(circuit_bytes: bytes, plan: _Plan, test_count: int) -> Transcript:
    curve, window_bits = plan.curve, plan.window_bits
    scalar_bytes = (curve.order.bit_length() + 7) // 8
    window_bytes = 0 if window_bits is None else (window_bits + 7) // 8
    addend_bytes = scalar_bytes if plan.addend_x is not None else 0
    # The whole draw length is known up front: take it in one digest.
    master = hashlib.shake_256(circuit_bytes).digest(
        test_count * (scalar_bytes + window_bytes + addend_bytes)
    )
    offset = 0

    def draw(width: int, modulus: int) -> tuple[int, ...]:
        nonlocal offset
        start = offset
        offset += test_count * width
        return tuple([
            int.from_bytes(master[i : i + width], "big") % modulus
            for i in range(start, offset, width)
        ])

    nothing = (None,) * test_count
    scalars = draw(scalar_bytes, curve.order)
    windows = nothing if window_bits is None else draw(window_bytes, 1 << window_bits)
    addend_scalars = draw(scalar_bytes, curve.order) if addend_bytes else nothing
    return Transcript(commit(circuit_bytes), curve.name, scalars, windows, addend_scalars)


# ---------------------------------------------------------------------------
# verification


class _Plan(_Record):
    """Resolved circuit/spec pairing shared by every test."""

    __slots__ = _fields = ("circuit", "curve", "acc_x", "acc_y", "window_reg", "window_bits",
                           "addend_x", "addend_y", "base", "policy")

    def __init__(self, circuit: Circuit, curve: CurveParams, acc_x: str, acc_y: str,
                 window_reg: str | None, window_bits: int | None, addend_x: str | None,
                 addend_y: str | None, base: CurvePoint | None, policy: str) -> None:
        self._set(circuit, curve, acc_x, acc_y, window_reg, window_bits, addend_x, addend_y,
                  base, policy)


def _resolve(circuit: Circuit, spec: VerificationSpec) -> _Plan:
    curve = named_curve(spec.curve)
    in_names = {r.name: r for r in circuit.inputs}
    out_names = {r.name: r for r in circuit.outputs}
    roles: dict[str, str] = {}  # register name -> the role mapped to it

    def reg_for(role: str) -> str | None:
        name = spec.registers.get(role)
        if name is None:
            return None
        if name not in in_names or name not in out_names:
            raise HarnessError(
                f"register mapping mismatch: {role} -> {_shown(name)!r} is not an "
                "input+output register of the circuit"
            )
        if name in roles:
            raise HarnessError(
                f"register mapping mismatch: {role} -> {_shown(name)!r} is already "
                f"mapped to {roles[name]}"
            )
        roles[name] = role
        return name

    # VerificationSpec requires both accumulator roles.
    acc_x = reg_for("accumulator_x")
    acc_y = reg_for("accumulator_y")
    nb = curve.coordinate_bits
    for name in (acc_x, acc_y):
        if in_names[name].width != nb:
            raise HarnessError(
                f"register mapping mismatch: {_shown(name)!r} is {in_names[name].width} "
                f"bit(s) but curve {curve.name} coordinates need {nb}"
            )
    window_reg = reg_for("window")
    window_bits = in_names[window_reg].width if window_reg else None
    addend_x = reg_for("addend_x")
    addend_y = reg_for("addend_y")
    unmapped = [name for name in in_names if name not in roles]
    if unmapped:
        raise HarnessError(
            f"register mapping mismatch: input register {_shown(unmapped[0])!r} has no role"
        )

    base: CurvePoint | None = None
    if addend_x is None and spec.base_source == "generator":
        base = curve.generator
    elif addend_x is None:
        raw = circuit.metadata.get("base")
        if raw is None:
            raise HarnessError("base_source is metadata but the circuit metadata has no 'base'")
        try:
            base = parse_point(raw)
        except ValueError:
            raise HarnessError(f"unparseable base metadata {_shown(raw)!r}") from None
        if not is_on_curve(base, curve):
            raise HarnessError(f"base metadata {_shown(raw)!r} is not on curve {curve.name}")

    policy = circuit.metadata.get("exceptional", "correct")
    return _Plan(circuit, curve, acc_x, acc_y, window_reg, window_bits, addend_x, addend_y,
                 base, policy)


def _is_exceptional(plan: _Plan, accumulator: CurvePoint, addend: CurvePoint) -> bool:
    """Inputs where the generic chord rule does not apply."""
    if accumulator.is_infinity or addend.is_infinity or accumulator == addend:
        return True
    return accumulator == point_neg(addend, plan.curve)


def _split_point(point: CurvePoint, nb: int) -> tuple[int, int]:
    packed = encode_point(point, nb)
    return packed & ((1 << nb) - 1), packed >> nb


def _addend_for(plan: _Plan, window: int | None, addend_scalar: int | None) -> CurvePoint:
    if plan.addend_x is not None:
        return scalar_mul(addend_scalar, plan.curve.generator, plan.curve)
    if plan.window_reg is not None:
        return scalar_mul(window, plan.base, plan.curve)
    return plan.base


def _oracle_case(plan: _Plan, accumulator: CurvePoint, window: int | None,
                 addend: CurvePoint):
    """(inputs, expected outputs) for one test, or None for an input the
    circuit's undefined-input policy skips.  Every mapped register (each is
    an input and an output) must come back unchanged, except that the
    accumulator carries the sum."""
    if plan.policy == "undefined" and _is_exceptional(plan, accumulator, addend):
        return None
    nb = plan.curve.coordinate_bits
    accumulator_regs = (plan.acc_x, plan.acc_y)
    inputs = dict(zip(accumulator_regs, _split_point(accumulator, nb)))
    if plan.window_reg is not None:
        inputs[plan.window_reg] = window
    if plan.addend_x is not None:
        inputs.update(zip((plan.addend_x, plan.addend_y), _split_point(addend, nb)))
    expected = dict(inputs)
    expected_sum = point_add(accumulator, addend, plan.curve)
    expected.update(zip(accumulator_regs, _split_point(expected_sum, nb)))
    return inputs, expected


def _transcript_cases(plan: _Plan, transcript: Transcript):
    # Small groups make thousands of tests share a few distinct inputs, so
    # the oracle runs once per distinct (scalar, window, addend scalar).
    memo: dict = {}
    columns = zip(transcript.scalars, transcript.windows, transcript.addend_scalars)
    for index, key in enumerate(columns):
        scalar, window, addend_scalar = key
        entry: dict = {"index": index, "scalar": scalar}
        if window is not None:
            entry["window"] = window
        if addend_scalar is not None:
            entry["addend_scalar"] = addend_scalar
        if key not in memo:
            accumulator = scalar_mul(scalar, plan.curve.generator, plan.curve)
            addend = _addend_for(plan, window, addend_scalar)
            memo[key] = _oracle_case(plan, accumulator, window, addend)
        yield entry, memo[key]


def _exhaustive_cases(plan: _Plan, points: list[CurvePoint], window_values):
    index = 0
    for window in window_values:
        addend = _addend_for(plan, window, None)
        for accumulator in points:
            entry: dict = {
                "index": index,
                "accumulator": "inf"
                if accumulator.is_infinity
                else [accumulator.x, accumulator.y],
            }
            if window is not None:
                entry["window"] = window
            yield entry, _oracle_case(plan, accumulator, window, addend)
            index += 1


# Lanes per engine pass.  A pass reads each slot (distinct input) out with
# (plane >> s) & 1, whose cost grows with the slots in the pass, so one pass
# over S slots costs about S^2; fixed chunks keep the total linear in the
# number of distinct inputs while the per-pass overhead stays negligible.
# The chunk does not set peak memory (tracemalloc, Python 3.11): the passes
# of a 9024-test p11 run peak at 3.1 MiB, its report encoding and sealing at
# 6.8 MiB, and parsing the 94k-gate p1009 circuit at 4.9 MiB.
LANE_CHUNK = 1024

_SKIPPED = {"skipped": True, "output_ok": None, "phase_ok": None,
            "executed_total": 0, "executed_non_clifford": 0}


def _failing(entry: dict) -> bool:
    return not entry["skipped"] and not (entry["output_ok"] and entry["phase_ok"])


def _run_cases(circuit: Circuit, m: int, cases, transcript: Transcript | None,
               fail_fast: bool) -> list[dict]:
    """Fill in the entry of each (entry, oracle case) from one lane-engine
    pass (sim._lane_pass) per fixed-size chunk; m is the circuit's
    measurement count.

    Cases that share one oracle case (a transcript's memoized draw) share
    its inputs object and so one slot; each exhaustive case has its own.
    Outputs are judged once per slot, on its first lane, and every qubit
    outside them must end at 0.  Each entry's sign and executed counts come
    straight from the pass's per-lane columns.  With a transcript, each test
    is judged on its own sampled measurement branch; without one (exhaustive
    mode), on every branch at once, with the executed counts of the
    all-zeros branch.
    fail_fast truncates after the first failing entry."""
    entries: list[dict] = []
    outside = set(range(circuit.qubit_count)).difference(*(r.qubits for r in circuit.outputs))
    cases = iter(cases)
    while chunk := list(itertools.islice(cases, LANE_CHUNK)):
        ran = [item for item in chunk if item[1] is not None]
        words = None
        if transcript is not None:
            words = transcript.measurement_words([entry["index"] for entry, _ in ran], m)
        lane_slot, reads, columns = _lane_pass(
            circuit, [inputs for _, (inputs, _) in ran], words) if ran else ([], [], [[]] * 3)
        output_ok: list[bool] = []  # per slot, judged on its first lane
        for (entry, (_, expected)), s, phase, total, nc in zip(ran, lane_slot, *columns):
            if s == len(output_ok):
                output_ok.append(all(reads[s][1][name] == v for name, v in expected.items())
                                 and not any(reads[s][0][q] for q in outside))
            entry["skipped"] = False
            entry["output_ok"] = output_ok[s]
            if transcript is None:
                entry["phase_ok"] = reads[s][2]
                entry["branches_covered"] = f"2^{m}"
            else:
                entry["phase_ok"] = phase == 1
            entry["executed_total"] = total
            entry["executed_non_clifford"] = nc
        for entry, case in chunk:
            if case is None:
                entry.update(_SKIPPED)
            entries.append(entry)
            if fail_fast and _failing(entry):
                return entries
    return entries


class VerificationReport(_Record):
    """Everything verify() decided, and its canonical bytes, sealed once.
    Both are compared; the repr shows only the data."""

    __slots__ = _fields = ("data", "sealed")

    def __init__(self, data: dict, sealed: bytes) -> None:
        self._set(data, sealed)

    def __repr__(self) -> str:
        return f"VerificationReport(data={self.data!r})"

    @property
    def verdict(self) -> str:
        return self.data["verdict"]

    @property
    def passed(self) -> bool:
        return self.data["verdict"] == "pass"

    @property
    def digest(self) -> str:
        return self.data["report_digest"]

    def to_json_bytes(self) -> bytes:
        return self.sealed


def _canonical_json(value) -> bytes:
    """json.dumps(value, sort_keys=True, indent=2) + "\n", byte for byte, on
    dict with str keys, list, str, int, finite float, bool and None by exact
    type; anything else raises TypeError or ValueError.

    A list of two or more dicts with one key set (the report's ``tests``) or
    of scalars of one exact type (``failure_indices``) is encoded a column
    at a time (:func:`_columnar`); everything else value by value."""
    parts: list[str] = []
    _encode(value, "\n", parts.append)
    parts.append("\n")
    text = "".join(parts)
    del parts  # so that a long list's text is not held twice while it is encoded
    return text.encode("ascii")


def _encode(value, newline: str, out) -> None:
    kind = type(value)
    if kind is str:
        out(encode_basestring_ascii(value))
    elif kind is int:
        out(int.__repr__(value))
    elif kind is bool:
        out("true" if value else "false")
    elif kind is dict:
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            out(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _encode(value[key], inner, out)
            sep = ","
        out(newline + "}" if value else "{}")
    elif kind is list:
        inner = newline + "  "
        items = _columnar(value, inner) if len(value) > 1 else None
        if items is not None:  # the joined items are long: written without a copy
            out("[" + inner)
            out(("," + inner).join(items))
            out(newline + "]")
            return
        sep = "["
        for item in value:
            out(sep + inner)
            _encode(item, inner, out)
            sep = ","
        out(newline + "]" if value else "[]")
    elif kind is float:
        if not math.isfinite(value):
            raise ValueError(f"JSON has no form for the float {value!r}")
        out(float.__repr__(value))
    elif value is None:
        out("null")
    else:
        raise TypeError(f"{kind.__name__} has no canonical JSON form")


_LITERAL = {True: "true", False: "false", None: "null"}.__getitem__
_SCALAR_FORM = {int: int.__repr__, str: encode_basestring_ascii}
# Exact types whose equal values share one encoding: a column of one of them
# holding one value is encoded once.  Equal floats (0.0 == -0.0) and equal
# containers ([1] == [True]) can encode differently, so they never are.
_ONE_FORM = {int, str, bool, type(None)}


def _scalar_form(kinds: set):
    """The one function that encodes values of these exact types, if they
    are bool and None only, all int or all str; else None."""
    if kinds <= {bool, type(None)}:
        return _LITERAL
    return _SCALAR_FORM.get(next(iter(kinds))) if len(kinds) == 1 else None


def _columnar(items: list, inner: str) -> list[str] | None:
    """The encoded items of a list whose items sit at ``inner``, if they are
    dicts of one key set or scalars of one _scalar_form; else None, and None
    for anything _encode refuses, so the item-by-item path raises the error
    it always raised, at the first bad value.

    Rows fill one %-template of their sorted keys, so a row pays only for
    the columns that differ between rows.  A column of one value of one
    _ONE_FORM type is encoded once and written into the template (its %
    doubled); an int column is a %d field that % formats from the ints
    themselves; any other column is a %s field filled from its encoded
    values: one map with a _scalar_form, _encode value by value otherwise.
    Rows of the first row's size that all hold its keys (a missing one is a
    KeyError) have its key set."""
    kinds = set(map(type, items))
    if kinds != {dict}:
        form = _scalar_form(kinds)
        return None if form is None else list(map(form, items))
    keys = items[0].keys()
    if set(map(len, items)) != {len(keys)}:
        return None
    if not keys:
        return ["{}"] * len(items)
    indent = inner + "  "
    fields: list[str] = []
    columns: list[list] = []
    try:
        for name in sorted(keys):
            values = list(map(itemgetter(name), items))
            kinds = set(map(type, values))
            form = _scalar_form(kinds)
            if len(kinds) == 1 and kinds <= _ONE_FORM and values.count(values[0]) == len(values):
                field = form(values[0]).replace("%", "%%")
            elif kinds == {int}:
                field = "%d"
                columns.append(values)
            else:
                field = "%s"
                columns.append(list(map(form, values)) if form is not None else
                               list(map(_encoded, values, itertools.repeat(indent))))
            fields.append(f"{indent}{encode_basestring_ascii(name).replace('%', '%%')}: {field}")
        template = "{" + ",".join(fields) + inner + "}"
        if not columns:
            return [template % ()] * len(items)
        return list(map(template.__mod__, zip(*columns)))
    except (KeyError, TypeError, ValueError):
        return None


def _encoded(value, indent: str) -> str:
    """One value encoded at ``indent``."""
    parts: list[str] = []
    _encode(value, indent, parts.append)
    return "".join(parts)


def _round_fraction(numerator: int, denominator: int, places: int = 6) -> str:
    q, r = divmod(numerator * 10**places, denominator)
    if 2 * r >= denominator:
        q += 1
    whole, frac = divmod(q, 10**places)
    return f"{whole}.{frac:0{places}d}"


def _report(commitment: str, plan: _Plan, spec: VerificationSpec, cases,
            transcript: Transcript | None, fail_fast: bool,
            warnings: list[str]) -> VerificationReport:
    """Run the cases, judge them against the spec's bounds, and seal the
    report with its digest: the one place a report is assembled.  commitment
    is the circuit file's (:func:`commit`); transcript is None in exhaustive
    mode."""
    resources = static_resources(plan.circuit)
    entries = _run_cases(plan.circuit, resources.measurement_count, cases, transcript, fail_fast)
    executed = len(entries) - sum(map(itemgetter("skipped"), entries))
    failures = [e["index"] for e in entries
                if not (e["skipped"] or (e["output_ok"] and e["phase_ok"]))]
    # A skipped entry counts 0 executed gates.
    nc_sum = sum(map(itemgetter("executed_non_clifford"), entries))
    # The average as a reduced fraction, 0/1 when nothing ran.
    divisor = math.gcd(nc_sum, executed)
    avg_nc = (nc_sum // divisor, executed // divisor) if executed else (0, 1)

    violations: list[str] = []
    if spec.max_avg_non_clifford is not None:
        from fractions import Fraction

        if Fraction(*avg_nc) > Fraction(str(spec.max_avg_non_clifford)):
            violations.append(
                f"average executed non-Clifford {avg_nc[0] / avg_nc[1]:.3f} exceeds "
                f"{spec.max_avg_non_clifford}"
            )
    if spec.max_qubits is not None and resources.qubit_count > spec.max_qubits:
        violations.append(f"qubit count {resources.qubit_count} exceeds {spec.max_qubits}")
    if spec.max_total_ops is not None and resources.total_gate_count > spec.max_total_ops:
        violations.append(
            f"total gate count {resources.total_gate_count} exceeds {spec.max_total_ops}"
        )

    if not executed and entries:
        warnings = [*warnings, "every test hit the exceptional-input policy; nothing ran"]

    tolerated = 0
    if spec.allow_failures:
        from fractions import Fraction

        tolerated = math.floor(Fraction(str(spec.tolerated_failure_fraction)) * len(entries))
    verdict = "pass" if len(failures) <= tolerated and not violations else "fail"

    data = {
        "circuit_commitment": commitment,
        "curve": plan.curve.name,
        "mode": "exhaustive" if transcript is None else "transcript",
        "fail_fast": fail_fast,
        "protocol": _PROTOCOL_HEADER,
        "spec": spec.to_dict(),
        "test_count": len(entries),
        "executed_tests": executed,
        "skipped_exceptional": len(entries) - executed,
        "failures": len(failures),
        "failure_indices": failures,
        "tolerated_failures": tolerated,
        "tests": entries,
        "avg_executed_non_clifford": {
            "numerator": avg_nc[0],
            "denominator": avg_nc[1],
            "rounded": _round_fraction(*avg_nc),
        },
        "static_resources": resources._asdict(),
        "peak_qubits": resources.qubit_count,
        "bound_violations": violations,
        "warnings": warnings,
        "verdict": verdict,
    }
    # Encode once and splice the digest in at its sorted place.  Strings are
    # escaped, so a key after a newline and two spaces is a top-level one.
    body = _canonical_json(data)
    data["report_digest"] = digest = hashlib.sha256(body).hexdigest()
    at = body.index(b'\n  "skipped_exceptional": ')
    view = memoryview(body)
    sealed = b"".join((view[:at], b'\n  "report_digest": "%s",' % digest.encode(), view[at:]))
    return VerificationReport(data=data, sealed=sealed)


def verify(
    circuit_bytes: bytes,
    spec: VerificationSpec,
    fail_fast: bool = False,
) -> VerificationReport:
    """Run the transcript-derived test set against the curve oracle.

    Every test runs as one lane of a bit-sliced pass (sim._lane_pass) over
    fixed-size chunks, in this process.  fail_fast truncates the report
    after the first failing test and is meant for mutation screening, not
    for final reports.

    tolerated_failure_fraction = 0 means random sampling cannot reach the
    target, so the whole enumerable domain is checked instead (equivalent to
    verify_exhaustive; test_count is ignored), where fail_fast is refused."""
    if spec.tolerated_failure_fraction == 0:
        if fail_fast:
            raise HarnessError("fail_fast does not apply to exhaustive verification "
                               "(tolerated_failure_fraction 0)")
        return verify_exhaustive(circuit_bytes, spec)
    plan = _resolve(parse(circuit_bytes), spec)
    transcript = _derive(circuit_bytes, plan, spec.test_count)

    warnings: list[str] = []
    needed = required_test_count(spec.tolerated_failure_fraction, spec.security_bits)
    if spec.test_count < needed:
        warnings.append(
            f"test_count {spec.test_count} is below the {needed} needed for "
            f"2^-{spec.security_bits} at tolerated fraction "
            f"{spec.tolerated_failure_fraction}"
        )
    cases = _transcript_cases(plan, transcript)
    return _report(transcript.commitment, plan, spec, cases, transcript, fail_fast, warnings)


def verify_exhaustive(circuit_bytes: bytes, spec: VerificationSpec) -> VerificationReport:
    """Check the whole enumerable domain and the whole measurement-branch
    space: every on-curve accumulator (times every window value), with the
    closed-form all-branch phase verdict from the simulator.

    Executed-gate counts per test are taken from the all-zero-outcomes
    branch.  spec.test_count is ignored; eps-style sampling does not apply."""
    from .curve import enumerate_points

    plan = _resolve(parse(circuit_bytes), spec)
    if plan.addend_x is not None:
        raise HarnessError("exhaustive mode supports fixed-base and windowed circuits only")
    points = enumerate_points(plan.curve)
    window_values = range(1 << plan.window_bits) if plan.window_reg else (None,)
    cases = _exhaustive_cases(plan, points, window_values)
    return _report(commit(circuit_bytes), plan, spec, cases, None, False, [])
