"""Command-line front end: build circuits, verify them, run cost estimates,
and inspect circuit files.

Exit codes are uniform across subcommands: 0 success, 1 verification or
parse failure, 2 usage errors (bad flags, missing files, invalid builder
parameters, malformed JSON).  Every machine-readable output is canonical
JSON from the report encoder, harness._canonical_json (sorted keys,
two-space indent, trailing newline); CSV is used only for plottable curves.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from .circuit import ParseError, _shown, parse, serialize, static_resources
from .curve import _BUILTIN, CURVE_REGISTRY_ENV, CurveParams, CurvePoint, named_curve, parse_point
from .harness import (
    HarnessError,
    VerificationSpec,
    _canonical_json,
    _unknown,
    verify,
    verify_exhaustive,
)

if TYPE_CHECKING:
    from . import costmodel

_USAGE_ERROR = 2
_FAILURE = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as _UsageError, so that they
    print one `error:` line like every other usage error.  An argument that
    argparse echoes whole (itself, its value after "=", or the tail of a
    "-xVALUE") is cut by _shown, as are unrecognized arguments.  Text glued
    to -h before any "--" is refused on every interpreter, with the message
    argparse gives before 3.13 (3.13 runs -h instead)."""

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        for arg in args[: args.index("--")] if "--" in args else args:
            if arg.startswith("-h") and arg != "-h":
                self.error("argument -h/--help: ignored explicit argument "
                           f"{_shown(arg[2:].removeprefix('='))!r}")
        try:
            parsed, extras = self.parse_known_args(args, namespace)
        except _UsageError as exc:
            message = str(exc)
            for arg in args:
                for echo in (arg, arg.partition("=")[2], arg[2:]):
                    if len(echo) > 20:
                        message = message.replace(repr(echo), repr(_shown(echo)))
                        message = message.replace(echo, _shown(echo))
            raise _UsageError(message) from None
        if extras:
            self.error(f"unrecognized arguments: {_shown(' '.join(extras))}")
        return parsed

    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


def _read_file(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {what} {_shown(path)!r}: {exc.strerror}") from exc


def _write_file(path: str | None, data: bytes, what: str, mode: str = "wb") -> None:
    """Write data to the file at path, or as ASCII text to stdout without one."""
    if path is None:
        sys.stdout.write(data.decode("ascii"))
        return
    try:
        with open(path, mode) as out:
            out.write(data)
    except OSError as exc:
        raise _UsageError(f"cannot write {what} {_shown(path)!r}: {exc.strerror}") from exc


def _check_writable(path: str | None, what: str) -> None:
    """Fail as _write_file would, before any work or write depends on path;
    a file that only the check created is removed again."""
    if path is not None:
        existed = os.path.lexists(path)
        _write_file(path, b"", what, "ab")  # appends nothing, truncates nothing
        if not existed:
            os.unlink(path)


def _read_json(path: str, what: str) -> dict:
    raw = _read_file(path, what)
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{what} {_shown(path)!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise _UsageError(f"{what} {_shown(path)!r} nests too deeply to read") from None
    if not isinstance(data, dict):
        raise _UsageError(f"{what} {_shown(path)!r} must hold a JSON object")
    return data


def _integer(text: str) -> int:
    """An integer option in its one spelling, the one str() gives it: ASCII
    digits after an optional "-", no "+", "_", space or leading zero.  The
    option's own range check then refuses a value out of range."""
    try:
        value = int(text)
    except ValueError:  # not an integer, or over int()'s digit limit
        value = None
    if value is None or str(value) != text:
        raise argparse.ArgumentTypeError(
            f"expected a plain decimal integer, got {_shown(text)!r}"
        )
    return value


def _parse_point(curve: CurveParams, text: str) -> CurvePoint:
    if text == "G":
        return curve.generator
    try:
        return parse_point(text)
    except ValueError:
        raise _UsageError(
            f"point must be 'G', 'inf', or 'x,y' integers, got {_shown(text)!r}"
        ) from None


# ---------------------------------------------------------------------------
# build


# Each builder: its function on kickmix.builders, the options it requires (in
# that function's argument order), then those it may take by name.
_BUILDERS = {
    "temp-and": ("build_temp_and", (), ()),
    "adder": ("build_adder", ("width",), ()),
    "mod-add": ("build_mod_add_const", ("width", "constant", "modulus"), ()),
    "lookup": ("build_lookup", ("table",), ("entry_bits",)),
    "pointadd": ("build_pointadd_permutation", ("curve", "point"), ()),
    "windowed-pointadd": ("build_windowed_pointadd", ("curve", "point", "window"), ()),
}
_EVERY_OPTION = dict.fromkeys(n for _, req, opt in _BUILDERS.values() for n in req + opt)


def _flags(names: list[str]) -> str:
    return ", ".join("--" + n.replace("_", "-") for n in names)


def _listed(names, last: str = "and") -> str:
    """The names as 'a, b and c', or with another last word ('a, b or c')."""
    *head, tail = names
    return f"{', '.join(head)} {last} {tail}" if head else tail


def _cmd_build(args: argparse.Namespace) -> int:
    from . import builders  # here, not at the top: verify starts without it

    if args.builder not in _BUILDERS:
        raise _UsageError(f"unknown builder {_shown(args.builder)!r}")
    function, required, optional = _BUILDERS[args.builder]
    values = dict(vars(args))
    missing = [n for n in required if values[n] is None]
    if missing:
        raise _UsageError(f"builder {args.builder!r} requires {_flags(missing)}")
    extra = [n for n in _EVERY_OPTION if n not in required + optional and values[n] is not None]
    if extra:
        raise _UsageError(f"builder {args.builder!r} does not take {_flags(extra)}")
    if args.table is not None:
        values["table"] = _parse_table(args.table)
    if args.curve is not None:  # every builder that takes --curve requires --point
        values["curve"] = named_curve(args.curve)
        values["point"] = _parse_point(values["curve"], args.point)
    by_name = {n: values[n] for n in optional if values[n] is not None}
    report = getattr(builders, function)(*[values[n] for n in required], **by_name)

    _check_writable(args.output, "circuit file")
    _check_writable(args.output + ".json", "sidecar file")
    _write_file(args.output, serialize(report.circuit), "circuit file")
    _write_file(args.output + ".json", _canonical_json(report.sidecar_dict()), "sidecar file")
    for line, value in report.predicted._asdict().items():
        print(f"{_LABELS[line]}: {value}")
    return 0


def _parse_table(text: str) -> list[int]:
    try:
        return [_integer(part) for part in text.split(",")]
    except argparse.ArgumentTypeError:
        raise _UsageError(
            f"table must be comma-separated integers, got {_shown(text)!r}"
        ) from None


_LABELS = {
    "qubit_count": "qubits",
    "total_gate_count": "gates",
    "non_clifford_gate_count": "non-Clifford",
    "measurement_count": "measurements",
}


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {_shown(args.jobs)}")
    if args.exhaustive and args.fail_fast:
        raise _UsageError("--fail-fast does not apply to --exhaustive")
    circuit_bytes = _read_file(args.circuit, "circuit file")
    spec_data = _read_json(args.spec, "spec file")
    try:
        spec = VerificationSpec.from_dict(spec_data)
    except HarnessError as exc:
        raise _UsageError(f"bad spec: {exc}") from exc
    _check_writable(args.output, "report file")

    try:
        if args.exhaustive:
            report = verify_exhaustive(circuit_bytes, spec)
        else:
            report = verify(circuit_bytes, spec, fail_fast=args.fail_fast)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FAILURE

    _write_file(args.output, report.to_json_bytes(), "report file")
    if args.output is not None:
        print(f"verdict: {report.verdict}  (report {args.output})")
    if not report.passed:
        failures = report.data["failures"]
        violations = report.data["bound_violations"]
        detail = []
        if failures:
            shown = report.data["failure_indices"][:5]
            detail.append(f"{failures} failing test(s), first indices {shown}")
        detail.extend(violations)
        print("verification failed: " + "; ".join(detail), file=sys.stderr)
        return _FAILURE
    return 0


# ---------------------------------------------------------------------------
# estimate


# scenario section -> the JSON type it must have (None: costmodel checks it)
_SCENARIO_SECTIONS = {
    "ecdlp": dict,
    "machine": dict,
    "attack": dict,
    "wallets": list,
    "t_rate": None,
    "success_sweep": dict,
}
_JSON_TYPE_NAMES = {dict: "a JSON object", list: "a JSON array"}
MAX_SWEEP_STEPS = 10_000  # rows of --success-csv; the default is 100


def _from_section(cls, data, what: str, part: str = "section"):
    """cls(**data) for one scenario object; a missing field (all of those
    without a default are named), fields cls does not declare and values it
    refuses are usage errors."""
    if not isinstance(data, dict):
        raise _UsageError(f"{what} {part} must be a JSON object")
    required = cls._fields[: len(cls._fields) - len(cls.__init__.__defaults__ or ())]
    if not data.keys() >= set(required):
        raise _UsageError(f"{what} {part} needs {_listed(required)}")
    unknown = sorted(set(data).difference(cls._fields))
    if unknown:
        raise _UsageError(_unknown(f"{what} field(s)", unknown))
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad {what} {part}: {exc}") from exc


def _cmd_estimate(args: argparse.Namespace) -> int:
    from . import costmodel  # here, not at the top: verify starts without it

    scenario = _read_json(args.scenario, "scenario file")
    unknown = sorted(set(scenario) - _SCENARIO_SECTIONS.keys())
    if unknown:
        raise _UsageError(_unknown("scenario section(s)", unknown))
    for name, value in scenario.items():
        kind = _SCENARIO_SECTIONS[name]
        if kind is not None and not isinstance(value, kind):
            raise _UsageError(f"{name} section must be {_JSON_TYPE_NAMES[kind]}")

    results: dict = {}
    toffoli = None
    machine = None

    if "ecdlp" in scenario:
        section = dict(scenario["ecdlp"])
        optimize = section.pop("optimize_window", False)
        if type(optimize) is not bool:
            raise _UsageError("bad ecdlp section: optimize_window must be true or false, "
                              f"got {type(optimize).__name__}")
        cost = _from_section(costmodel.PointAddCost, section, "ecdlp")
        if optimize:
            best = costmodel.optimal_window(cost.pa_toffoli, cost.n)
            results["optimal_window"] = best
            cost = costmodel.PointAddCost(cost.pa_toffoli, cost.pa_qubits, cost.n, best)
        toffoli = costmodel.ecdlp_toffoli(cost)
        results["toffoli"] = toffoli
        results["qubits"] = costmodel.ecdlp_qubits(cost)
        results["windowed_additions"] = costmodel.windowed_addition_count(cost.n, cost.w)

    if "machine" in scenario:
        machine = _from_section(costmodel.MachineProfile, scenario["machine"], "machine")
        results["t_production_rate"] = costmodel.t_production_rate(machine)
        if toffoli is not None:
            full = costmodel.runtime(toffoli, machine)
            results["runtime_seconds"] = full
            results["primed_seconds"] = costmodel.primed_attack_time(full)
            results["magic_limited_key_seconds"] = costmodel.magic_limited_key_time(
                toffoli, machine
            )

    if "t_rate" in scenario:
        if machine is None:
            raise _UsageError("t_rate needs a machine section for its timing")
        results["t_factory_qubits"] = costmodel.t_factory_qubits(
            scenario["t_rate"], machine
        )

    attack = None
    if "attack" in scenario:
        section = dict(scenario["attack"])
        if "attack_time" not in section:
            if "primed_seconds" not in results:
                raise _UsageError(
                    "attack section needs attack_time (or ecdlp+machine sections "
                    "to derive the primed time)"
                )
            section["attack_time"] = results["primed_seconds"]
        attack = _from_section(costmodel.AttackScenario, section, "attack")
        results["onspend_success"] = costmodel.onspend_success(attack)
        if attack.machines > 1 and toffoli is not None:
            results["multi_machine_speedup"] = costmodel.multi_machine_speedup(
                attack.machines, results["windowed_additions"]
            )

    salvage_curve = None
    if "wallets" in scenario:
        if attack is None:
            raise _UsageError("wallets need an attack section for the per-key time")
        wallets = [
            _from_section(costmodel.WalletRecord, w, "wallet", "entry")
            for w in scenario["wallets"]
        ]
        salvage_curve = costmodel.salvage_timeline(wallets, attack.attack_time)
        results["salvage"] = {
            "wallets": len(wallets),
            "total_seconds": salvage_curve[-1][0] if salvage_curve else 0.0,
            "total_balance": salvage_curve[-1][1] if salvage_curve else 0.0,
        }

    # every check, writability included, runs before the first file is written
    if args.salvage_csv is not None and salvage_curve is None:
        raise _UsageError("--salvage-csv needs a wallets section")
    if args.success_csv is not None:
        if attack is None:
            raise _UsageError("--success-csv needs an attack section")
        points = _success_sweep(attack, scenario.get("success_sweep", {}))
    _check_writable(args.output, "results file")
    _check_writable(args.salvage_csv, "CSV file")
    _check_writable(args.success_csv, "CSV file")

    _write_file(args.output, _canonical_json(results), "results file")
    if args.salvage_csv is not None:
        _write_csv(args.salvage_csv, "time_seconds,cumulative_balance", salvage_curve)
    if args.success_csv is not None:
        _write_csv(args.success_csv, "attack_time_seconds,success_probability", points)
    return 0


def _success_sweep(attack: costmodel.AttackScenario, sweep: dict) -> list[tuple]:
    from . import costmodel

    unknown = sorted(set(sweep) - {"from", "to", "steps"})
    if unknown:
        raise _UsageError(_unknown("success_sweep field(s)", unknown))
    try:
        bounds = (sweep.get("from", attack.attack_time / 10),
                  sweep.get("to", attack.mean_block_interval * 3))
        lo, hi = (float(costmodel._exact(bound)) for bound in bounds)  # refuses a bool or str
    except (TypeError, ValueError, OverflowError):
        raise _UsageError("success_sweep from and to must be numbers") from None
    steps = sweep.get("steps", 100)
    if (
        isinstance(steps, bool)
        or not isinstance(steps, (int, float))
        or not 1 <= steps <= MAX_SWEEP_STEPS
        or steps != int(steps)
    ):
        raise _UsageError(
            f"success_sweep steps must be a whole number from 1 to {MAX_SWEEP_STEPS}, "
            f"got {_shown(repr(steps))}"
        )
    steps = int(steps)
    if not 0 < lo <= hi:
        raise _UsageError("success_sweep needs 0 < from <= to")
    points = []
    for i in range(steps + 1):
        t = lo + (hi - lo) * i / steps
        points.append((t, costmodel.onspend_success(attack._replace(attack_time=t))))
    return points


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    lines.extend(f"{a},{b}" for a, b in rows)
    _write_file(path, ("\n".join(lines) + "\n").encode("utf-8"), "CSV file")


# ---------------------------------------------------------------------------
# inspect


def _cmd_inspect(args: argparse.Namespace) -> int:
    raw = _read_file(args.circuit, "circuit file")
    try:
        circuit = parse(raw)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FAILURE
    resources = static_resources(circuit)
    histogram = dict(sorted(circuit.facts.kinds.items()))
    if args.json:
        data = {
            "resources": resources._asdict(),
            "classical_bits": circuit.classical_bit_count,
            "inputs": {r.name: [r.lo, r.hi] for r in circuit.inputs},
            "outputs": {r.name: [r.lo, r.hi] for r in circuit.outputs},
            "metadata": dict(circuit.metadata),
        }
        if args.histogram:
            data["histogram"] = histogram
        sys.stdout.write(_canonical_json(data).decode("ascii"))
        return 0
    for key, value in resources._asdict().items():
        print(f"{_LABELS[key]}: {value}")
    print(f"classical bits: {circuit.classical_bit_count}")
    for side, regs in (("inputs", circuit.inputs), ("outputs", circuit.outputs)):
        desc = " ".join(f"{r.name}[{r.lo}..{r.hi}]" for r in regs) or "(none)"
        print(f"{side}: {desc}")
    for key in sorted(circuit.metadata):
        print(f"meta {key}: {circuit.metadata[key]}")
    if args.histogram:
        for kind, count in histogram.items():
            print(f"{kind}: {count}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kickmix",
        description="Build, verify, inspect, and cost out measurement-assisted "
        "reversible circuits.",
        epilog=f"Extra named curves can be registered via the {CURVE_REGISTRY_ENV} "
        "environment variable (path to a JSON file).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build",
        help="emit a circuit file plus a JSON sidecar with predicted resources",
    )
    p_build.add_argument("builder", help=_listed(_BUILDERS, "or"))
    p_build.add_argument("-o", "--output", required=True, help="circuit file to write")
    p_build.add_argument("--width", type=_integer, help="register width in bits")
    p_build.add_argument("--constant", type=_integer, help="added constant (mod-add)")
    p_build.add_argument("--modulus", type=_integer, help="modulus (mod-add)")
    p_build.add_argument("--table", help="comma-separated lookup entries")
    p_build.add_argument("--entry-bits", type=_integer, help="output bits per lookup entry")
    p_build.add_argument(
        "--curve", help=f"named curve ({', '.join(_BUILTIN)}, or one from {CURVE_REGISTRY_ENV})"
    )
    p_build.add_argument("--point", help="base point: G, inf, or x,y")
    p_build.add_argument("--window", type=_integer, help="window width in bits")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser(
        "verify", help="run the self-seeded test protocol against the curve oracle"
    )
    p_verify.add_argument("circuit", help="circuit file to verify")
    p_verify.add_argument("--spec", required=True, help="verification spec JSON")
    p_verify.add_argument("-o", "--output", help="write the report here")
    p_verify.add_argument(
        "--jobs",
        type=_integer,
        default=1,
        help="accepted for compatibility (>= 1); tests run as one bit-sliced "
        "pass and reports are identical for any value",
    )
    p_verify.add_argument(
        "--exhaustive",
        action="store_true",
        help="check the whole enumerable domain and branch space",
    )
    p_verify.add_argument(
        "--fail-fast", action="store_true", help="stop at the first failing test"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_estimate = sub.add_parser(
        "estimate", help="evaluate the cost model on a scenario JSON"
    )
    p_estimate.add_argument("scenario", help="scenario JSON file")
    p_estimate.add_argument("-o", "--output", help="results JSON (default stdout)")
    p_estimate.add_argument("--salvage-csv", help="write the salvage curve as CSV")
    p_estimate.add_argument("--success-csv", help="write a success-vs-time sweep CSV")
    p_estimate.set_defaults(func=_cmd_estimate)

    p_inspect = sub.add_parser("inspect", help="print a circuit file's vitals")
    p_inspect.add_argument("circuit", help="circuit file to inspect")
    p_inspect.add_argument("--json", action="store_true", help="machine-readable output")
    p_inspect.add_argument(
        "--histogram", action="store_true", help="include a per-gate-kind count"
    )
    p_inspect.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:  # CircuitError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


def run() -> NoReturn:
    """The process entry (`python -m kickmix`, the `kickmix` script, this
    module's guard).  What is imported by now lives until exit, so no
    collection, the last one included, need walk it; no command leaves cyclic
    garbage that grows with its input (tests/test_process_entry.py), so none
    need run.  main() leaves the collector alone, for callers in process."""
    gc.disable()
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
