"""Command-line surface: exit codes, file outputs, and printed summaries.

Every test drives main() in-process with an argv list; files go through
tmp_path and printed text through capsys, so the suite exercises exactly
what a shell user sees without spawning subprocesses.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

from kickmix import builders, mutate, parse, serialize
from kickmix.cli import _BUILDERS, main


def _write_spec(tmp_path: Path, **fields) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(fields))
    return path


# ---------------------------------------------------------------------------
# build


def test_build_temp_and_writes_circuit_and_sidecar(tmp_path, capsys) -> None:
    out = tmp_path / "tand.kmx"
    assert main(["build", "temp-and", "-o", str(out)]) == 0
    circuit = parse(out.read_bytes())
    assert [g.kind for g in circuit.gates] == ["CCX", "MX", "CZ"]
    sidecar = json.loads((tmp_path / "tand.kmx.json").read_text())
    assert sidecar["construction"] == "temp_and"
    assert sidecar["predicted"] == {
        "qubit_count": 3,
        "total_gate_count": 3,
        "non_clifford_gate_count": 1,
        "measurement_count": 1,
    }
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["qubits: 3", "gates: 3", "non-Clifford: 1", "measurements: 1"]


def test_build_rejects_bad_parameters(tmp_path, capsys) -> None:
    out = str(tmp_path / "x.kmx")
    assert main(["build", "adder", "-o", out, "--width", "99"]) == 2
    assert "adder width must be in 1..16" in capsys.readouterr().err
    assert main(["build", "adder", "-o", out]) == 2
    assert "builder 'adder' requires --width" in capsys.readouterr().err
    for point in ("4;4", "+4,0_4", "4 , 4", "\u0664,\u0664", "04,4", "4,4,4"):
        assert main(["build", "pointadd", "-o", out, "--curve", "toy-p11-b7",
                     "--point", point]) == 2
        err = capsys.readouterr().err
        assert err == f"error: point must be 'G', 'inf', or 'x,y' integers, got {point!r}\n"
    assert main(["build", "pointadd", "-o", out, "--curve", "nope",
                 "--point", "G"]) == 2
    assert "unknown curve 'nope'" in capsys.readouterr().err
    assert main(["build", "lookup", "-o", out, "--table", "1,2,three"]) == 2
    assert "table must be comma-separated integers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # nothing half-written


# A valid value for each builder option, and each builder's options, the
# optional ones last.
_OPTION_VALUES = {"--width": "4", "--constant": "3", "--modulus": "11", "--table": "1,0",
                  "--entry-bits": "2", "--curve": "toy-p11-b7", "--point": "G", "--window": "1"}
_TAKES = {
    "temp-and": ((), ()),
    "adder": (("--width",), ()),
    "mod-add": (("--width", "--constant", "--modulus"), ()),
    "lookup": (("--table",), ("--entry-bits",)),
    "pointadd": (("--curve", "--point"), ()),
    "windowed-pointadd": (("--curve", "--point", "--window"), ()),
}


def _build_argv(builder: str, out: str, options) -> list[str]:
    return ["build", builder, "-o", out,
            *(token for option in options for token in (option, _OPTION_VALUES[option]))]


@pytest.mark.parametrize("builder", list(_TAKES))
def test_a_builder_refuses_a_missing_option_and_one_it_does_not_take(
    tmp_path, capsys, builder
) -> None:
    out = str(tmp_path / "x.kmx")
    required, optional = _TAKES[builder]
    for option in required:
        assert main(_build_argv(builder, out, [o for o in required if o != option])) == 2
        assert capsys.readouterr().err == f"error: builder {builder!r} requires {option}\n"
    for option in _OPTION_VALUES.keys() - {*required, *optional}:
        assert main(_build_argv(builder, out, [*required, option])) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: builder {builder!r} does not take {option}\n"
        assert captured.out == ""
    assert not list(tmp_path.iterdir())
    assert main(_build_argv(builder, out, [*required, *optional])) == 0
    assert main(_build_argv(builder, out, required)) == 0


def test_a_builder_names_every_option_it_does_not_take(tmp_path, capsys) -> None:
    out = str(tmp_path / "x.kmx")
    for argv, message in (
        (["build", "lookup", "--table", "1,0", "--window", "7", "-o", out],
         "builder 'lookup' does not take --window"),
        (["build", "temp-and", "--width", "9", "--curve", "secp256k1", "-o", out],
         "builder 'temp-and' does not take --width, --curve"),
        # a missing option is named before one the builder does not take
        (["build", "adder", "--window", "2", "-o", out], "builder 'adder' requires --width"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("builder", list(_BUILDERS))
def test_a_builder_row_names_a_function_that_takes_its_options(builder) -> None:
    # the required options positionally, in order, then the optional ones by name
    function, required, optional = _BUILDERS[builder]
    params = list(inspect.signature(getattr(builders, function)).parameters.values())
    assert len(params) == len(required) + len(optional)
    for param in params[: len(required)]:
        assert param.kind is param.POSITIONAL_OR_KEYWORD and param.default is param.empty
    for param, name in zip(params[len(required):], optional):
        assert param.name == name and param.default is not param.empty
        assert param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)


def test_build_help_names_every_builder(capsys, monkeypatch) -> None:
    monkeypatch.setenv("COLUMNS", "200")  # the builder list on one line
    with pytest.raises(SystemExit):
        main(["build", "-h"])
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("  builder ")]
    assert re.split(r", | or ", line.split(None, 1)[1]) == list(_TAKES) == list(_BUILDERS)


def test_the_benchmark_builds_with_only_options_its_builder_takes(monkeypatch) -> None:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        argv = workload.build_args(0, "x.kmx")
        required, optional = _TAKES[argv[1]]
        given = {token for token in argv if token.startswith("--")}
        assert set(required) <= given <= {*required, *optional}


def test_integer_options_take_one_spelling(tmp_path, capsys) -> None:
    out = str(tmp_path / "x.kmx")
    for table in ("+5,0_0,\u0667,3", " 5,0,7,3", "05,0,7,3", "5,-0,7,3", "5,,7,3", "5,0,7,3 "):
        assert main(["build", "lookup", "-o", out, "--table", table]) == 2
        assert capsys.readouterr().err == (
            f"error: table must be comma-separated integers, got {table!r}\n"
        )
    long_table = ",".join(["1"] * 500) + ",x"
    assert main(["build", "lookup", "-o", out, "--table", long_table]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 120
    builds = {
        "--width": ["adder"],
        "--constant": ["mod-add", "--width", "4", "--modulus", "13"],
        "--modulus": ["mod-add", "--width", "4", "--constant", "5"],
        "--entry-bits": ["lookup", "--table", "1,0"],
        "--window": ["windowed-pointadd", "--curve", "toy-p11", "--point", "G"],
    }
    for flag, argv in builds.items():
        for value in ("+4", "0_4", " 4", "04", "\u0664", "4.0", "-0", "1" * 5000):
            assert main(["build", *argv, "-o", out, flag, value]) == 2
            err = capsys.readouterr().err
            shown = value if len(value) <= 20 else value[:20] + "\u2026"
            assert err == (
                f"error: argument {flag}: expected a plain decimal integer, got {shown!r}\n"
            )
            assert len(err) < 120
    assert not list(tmp_path.iterdir())
    # the one spelling still builds, and a range error keeps its message
    assert main(["build", "lookup", "-o", out, "--table", "5,0,7,3"]) == 0
    assert main(["build", "adder", "-o", out, "--width", "-3"]) == 2
    assert capsys.readouterr().err.endswith("error: adder width must be in 1..16, got -3\n")


def test_lookup_entry_bits_over_the_qubit_ceiling_is_one_line(tmp_path, capsys) -> None:
    out = tmp_path / "x.kmx"
    for bits, shown in (("65536", "65537"), ("1000000", "1000001"),
                        ("1" + "0" * 30, "1" + "0" * 19 + "\u2026")):
        assert main(["build", "lookup", "-o", str(out), "--table", "1,0",
                     "--entry-bits", bits]) == 2
        assert capsys.readouterr().err == (
            f"error: {shown} qubits exceed the ceiling 65536\n"
        )
    assert not out.exists()


def test_lookup_entry_bits_below_one_is_one_line(tmp_path, capsys) -> None:
    out = tmp_path / "x.kmx"
    for bits in ("0", "-3"):
        assert main(["build", "lookup", "-o", str(out), "--table", "1,0",
                     "--entry-bits", bits]) == 2
        assert capsys.readouterr() == ("", f"error: entry_bits must be >= 1, got {bits}\n")
    assert not out.exists()


def test_build_windowed_pointadd(tmp_path, capsys) -> None:
    out = tmp_path / "w.kmx"
    code = main([
        "build", "windowed-pointadd", "-o", str(out),
        "--curve", "toy-p11", "--point", "G", "--window", "2",
    ])
    assert code == 0
    circuit = parse(out.read_bytes())
    assert circuit.metadata["curve"] == "toy-p11-b7"  # alias resolves
    assert "qubits: 18" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify


def _build_pointadd(tmp_path: Path) -> Path:
    out = tmp_path / "pa.kmx"
    assert main(["build", "pointadd", "-o", str(out),
                 "--curve", "toy-p11-b7", "--point", "G"]) == 0
    return out


def test_build_then_verify_round_trip(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=30)
    capsys.readouterr()
    assert main(["verify", str(circuit), "--spec", str(spec)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert report["test_count"] == 30


def test_verify_writes_report_file(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=10)
    report_path = tmp_path / "report.json"
    assert main(["verify", str(circuit), "--spec", str(spec),
                 "-o", str(report_path)]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["verdict"] == "pass"


def test_verify_flags_a_mutated_circuit(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    broken = tmp_path / "broken.kmx"
    broken.write_bytes(serialize(mutate(parse(circuit.read_bytes()), 7)))
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=50)
    capsys.readouterr()
    assert main(["verify", str(broken), "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert "verification failed: 37 failing test(s), first indices" in err


def test_verify_exhaustive_mode(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=0,
                       tolerated_failure_fraction=0)
    capsys.readouterr()
    assert main(["verify", str(circuit), "--spec", str(spec), "--exhaustive"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "exhaustive"


def test_verify_refuses_fail_fast_where_the_whole_domain_is_checked(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    report = tmp_path / "report.json"
    for fields, extra, message in (
        ({}, ["--exhaustive"], "--fail-fast does not apply to --exhaustive"),
        ({"tolerated_failure_fraction": 0}, [],
         "fail_fast does not apply to exhaustive verification (tolerated_failure_fraction 0)"),
    ):
        spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5, **fields)
        capsys.readouterr()
        assert main(["verify", str(circuit), "--spec", str(spec), "--fail-fast", *extra,
                     "-o", str(report)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not report.exists()


@pytest.mark.parametrize("extra", ["X 13", "CX 0 13"])
def test_verify_fails_a_qubit_left_set_outside_the_outputs(tmp_path, capsys, extra) -> None:
    circuit = _build_pointadd(tmp_path)
    dirty = tmp_path / "dirty.kmx"
    dirty.write_bytes(circuit.read_bytes() + f"{extra}\n".encode())
    sampled = _write_spec(tmp_path, curve="toy-p11-b7", test_count=2759)
    assert main(["verify", str(dirty), "--spec", str(sampled)]) == 1
    exhaustive = _write_spec(tmp_path, curve="toy-p11-b7", test_count=0,
                             tolerated_failure_fraction=0)
    assert main(["verify", str(dirty), "--spec", str(exhaustive), "--exhaustive"]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_verify_parallel_reports_are_byte_identical(tmp_path) -> None:
    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=40)
    serial, parallel = tmp_path / "r1.json", tmp_path / "r8.json"
    assert main(["verify", str(circuit), "--spec", str(spec),
                 "-o", str(serial), "--jobs", "1"]) == 0
    assert main(["verify", str(circuit), "--spec", str(spec),
                 "-o", str(parallel), "--jobs", "8"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_verify_usage_errors(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(circuit), "--spec", str(tmp_path / "no.json")]) == 2
    assert "cannot read spec file" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(circuit), "--spec", str(bad)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err

    bad.write_text("[1, 2]")
    assert main(["verify", str(circuit), "--spec", str(bad)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err

    unknown = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5, shiny=True)
    assert main(["verify", str(circuit), "--spec", str(unknown)]) == 2
    assert "bad spec: unknown spec field(s): shiny" in capsys.readouterr().err


def test_verify_refuses_a_plan_too_costly_to_size(tmp_path, capsys) -> None:
    """eps 0.0001 at 1024 bits would need exact powers of about 10^8 bits."""
    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(
        tmp_path,
        curve="toy-p11-b7",
        test_count=5,
        tolerated_failure_fraction=0.0001,
        security_bits=1024,
    )
    capsys.readouterr()
    assert main(["verify", str(circuit), "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tolerated fraction 0.0001 at 1024 security bits")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bits", [0, -3, 2**64, 10**400], ids=["0", "-3", "2^64", "10^400"])
def test_verify_refuses_security_bits_out_of_range_in_one_line(tmp_path, capsys, bits) -> None:
    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5, security_bits=bits)
    capsys.readouterr()
    assert main(["verify", str(circuit), "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200
    if bits < 1:
        assert err == f"error: bad spec: security_bits must be >= 1, got {bits}\n"
    else:
        assert err.startswith(f"error: tolerated fraction 0.01 at {str(bits)[:20]}")


def test_verify_reports_parse_failures(tmp_path, capsys) -> None:
    mangled = tmp_path / "mangled.kmx"
    mangled.write_text("qubits 2\ncbits 0\nBOGUS 0 1\n")
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5)
    assert main(["verify", str(mangled), "--spec", str(spec)]) == 1
    assert "line 3, column 1: expected a gate line, got 'BOGUS 0 1'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "inspect"])
@pytest.mark.parametrize(
    "text,where",
    [
        (b"qubits 2\ncbits 0\nX 0\n\xff\xfe\n", "line 4, column 1: invalid UTF-8"),
        (b"qubits 2\ncbits 0\nX 0\nX\xff\n", "line 4, column 2: invalid UTF-8"),
        (
            "qubits 1\ncbits 1\nIF c\u00b2 Z 0\n".encode(),
            "line 3, column 1: expected a gate line, got 'IF c\u00b2 Z 0'\n",
        ),
        (b"qubits 1_0\n", "line 1, column 1: expected 'qubits N', got 'qubits 1_0'\n"),
        (b"qubits 4\ncbits 0\nX +2\n", "line 3, column 1: expected a gate line, got 'X +2'\n"),
        (
            b"qubits 1\ncbits 0\nX " + b"7" * 5000 + b"\n",
            "line 3, column 1: expected a gate line, got 'X " + "7" * 18 + "\u2026'\n",
        ),
        pytest.param(
            b"qubits 1\ncbits 0\nin a-" + b"b" * 5000 + b" 0..0\n",
            "line 3, column 1: bad register name 'a-" + "b" * 18 + "\u2026'\n",
            id="register-name-of-5002-characters",
        ),
        pytest.param(
            b"qubits 1\ncbits 0\nmeta exceptional " + b"x" * 5000 + b"\n",
            "line 1, column 1: exceptional policy '" + "x" * 20 + "\u2026' not in",
            id="policy-of-5000-characters",
        ),
    ],
)
def test_malformed_circuit_bytes_exit_1_with_one_line(
    tmp_path, capsys, command: str, text: bytes, where: str
) -> None:
    mangled = tmp_path / "mangled.kmx"
    mangled.write_bytes(text)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5)
    extra = ["--spec", str(spec)] if command == "verify" else []
    assert main([command, str(mangled), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# estimate


_SCENARIO = {
    "ecdlp": {"pa_toffoli": 2_100_000, "pa_qubits": 1175, "n": 256, "w": 16},
    "machine": {"reaction_time": 1e-5, "round_time": 1e-6},
    "t_rate": 5e5,
    "attack": {"mean_block_interval": 600},
    "wallets": [
        {"balance": 2000, "label": "exchange"},
        {"balance": 900},
        {"balance": 120, "keys_required": 3},
    ],
}


def _write_scenario(tmp_path: Path, data: dict) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_estimate_full_scenario(tmp_path, capsys) -> None:
    scenario = _write_scenario(tmp_path, _SCENARIO)
    assert main(["estimate", str(scenario)]) == 0
    results = json.loads(capsys.readouterr().out)
    assert results["toffoli"] == 64_305_024
    assert results["qubits"] == 1191
    assert results["windowed_additions"] == 28
    assert results["runtime_seconds"] == 964.57536
    assert results["primed_seconds"] == 482.28768
    assert results["magic_limited_key_seconds"] == 321.52512
    assert results["t_production_rate"] == 200_000
    assert results["t_factory_qubits"] == 25_000
    # attack_time defaults to the primed half-run
    assert results["onspend_success"] == pytest.approx(0.44761, abs=1e-4)
    assert "multi_machine_speedup" not in results  # single machine
    assert results["salvage"] == {
        "wallets": 3,
        "total_seconds": 2411.4384,
        "total_balance": 3020.0,
    }


def test_estimate_optimizes_the_window_when_asked(tmp_path, capsys) -> None:
    scenario = dict(_SCENARIO)
    scenario["ecdlp"] = {**_SCENARIO["ecdlp"], "w": 1, "optimize_window": True}
    path = _write_scenario(tmp_path, scenario)
    assert main(["estimate", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)
    assert results["optimal_window"] == 16
    assert results["toffoli"] == 64_305_024


@pytest.mark.parametrize("value, shown", [("no", "str"), (1, "int"), (0, "int"), ([], "list"),
                                          (None, "NoneType")],
                         ids=["str", "1", "0", "list", "null"])
def test_estimate_takes_only_true_or_false_as_optimize_window(tmp_path, capsys, value,
                                                              shown) -> None:
    scenario = {"ecdlp": {**_SCENARIO["ecdlp"], "optimize_window": value}}
    out = tmp_path / "out.json"
    assert main(["estimate", str(_write_scenario(tmp_path, scenario)), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: bad ecdlp section: optimize_window must be true or false, "
                   f"got {shown}\n")
    assert not out.exists()
    scenario["ecdlp"]["optimize_window"] = False
    assert main(["estimate", str(_write_scenario(tmp_path, scenario)), "-o", str(out)]) == 0
    assert "optimal_window" not in json.loads(out.read_text())


def test_estimate_multi_machine_speedup(tmp_path, capsys) -> None:
    scenario = dict(_SCENARIO)
    scenario["attack"] = {"mean_block_interval": 600, "machines": 11}
    path = _write_scenario(tmp_path, scenario)
    assert main(["estimate", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)
    # the pinned 11-machine split of the 28-addition schedule: even ceil
    assert results["multi_machine_speedup"] == 28 / 3


def test_estimate_writes_csv_curves(tmp_path) -> None:
    scenario = dict(_SCENARIO)
    scenario["success_sweep"] = {"from": 100, "to": 1800, "steps": 4}
    path = _write_scenario(tmp_path, scenario)
    salvage_csv = tmp_path / "salvage.csv"
    success_csv = tmp_path / "success.csv"
    code = main([
        "estimate", str(path), "-o", str(tmp_path / "out.json"),
        "--salvage-csv", str(salvage_csv), "--success-csv", str(success_csv),
    ])
    assert code == 0
    salvage = salvage_csv.read_text().splitlines()
    assert salvage[0] == "time_seconds,cumulative_balance"
    assert salvage[1] == "0.0,0.0"
    assert len(salvage) == 5  # origin plus one knot per wallet
    assert salvage[-1] == "2411.4384,3020.0"
    success = success_csv.read_text().splitlines()
    assert success[0] == "attack_time_seconds,success_probability"
    assert len(success) == 6  # steps + 1 samples
    assert success[1].startswith("100.0,")
    times = [float(row.split(",")[0]) for row in success[1:]]
    assert times == [100.0, 525.0, 950.0, 1375.0, 1800.0]
    probabilities = [float(row.split(",")[1]) for row in success[1:]]
    assert probabilities == sorted(probabilities, reverse=True)


def test_estimate_empty_wallets(tmp_path, capsys) -> None:
    scenario = dict(_SCENARIO)
    scenario["wallets"] = []
    path = _write_scenario(tmp_path, scenario)
    salvage_csv = tmp_path / "salvage.csv"
    assert main(["estimate", str(path), "--salvage-csv", str(salvage_csv)]) == 0
    results = json.loads(capsys.readouterr().out)
    assert results["salvage"] == {"wallets": 0, "total_seconds": 0.0, "total_balance": 0.0}
    assert salvage_csv.read_text() == "time_seconds,cumulative_balance\n"


def test_estimate_usage_errors(tmp_path, capsys) -> None:
    path = _write_scenario(tmp_path, {"frobnicate": {}})
    assert main(["estimate", str(path)]) == 2
    assert "unknown scenario section(s): frobnicate" in capsys.readouterr().err

    path.write_text("{oops")
    assert main(["estimate", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err

    path = _write_scenario(tmp_path, {"t_rate": 5e5})
    assert main(["estimate", str(path)]) == 2
    assert "t_rate needs a machine section" in capsys.readouterr().err

    path = _write_scenario(tmp_path, {"wallets": [{"balance": 1}]})
    assert main(["estimate", str(path)]) == 2
    assert "wallets need an attack section" in capsys.readouterr().err

    path = _write_scenario(tmp_path, {"attack": {"mean_block_interval": 600}})
    assert main(["estimate", str(path)]) == 2
    assert "attack section needs attack_time" in capsys.readouterr().err

    path = _write_scenario(tmp_path, {"machine": {"reaction_time": 1e-5}})
    assert main(["estimate", str(path)]) == 2
    assert "machine section needs reaction_time and round_time" in capsys.readouterr().err

    path = _write_scenario(
        tmp_path, {"machine": {"reaction_time": 1e-5, "round_time": 1e-6,
                               "warp_speed": 9}}
    )
    assert main(["estimate", str(path)]) == 2
    assert "unknown machine field(s): warp_speed" in capsys.readouterr().err


_MACHINE = {"reaction_time": 1e-5, "round_time": 1e-6}
_ATTACK = {"attack_time": 540, "mean_block_interval": 600}


_NOT_A_NUMBER = [
    ({"machine": {**_MACHINE, "round_time": True}},
     "bad machine section: round_time must be a real number, got True"),
    ({"machine": {**_MACHINE, "t_state_cost": True}},
     "bad machine section: t_state_cost must be an integer, got True"),
    ({"machine": {**_MACHINE, "cultivation_qubits": 1.5}},
     "bad machine section: cultivation_qubits must be an integer, got 1.5"),
    ({"machine": {**_MACHINE, "toffoli_overhead_fraction": False}},
     "bad machine section: toffoli_overhead_fraction must be a real number, got False"),
    ({"machine": {**_MACHINE, "toffoli_to_t_factor": True}},
     "bad machine section: toffoli_to_t_factor must be a real number, got True"),
    ({"machine": _MACHINE, "t_rate": True}, "t_rate must be a real number, got True"),
    ({"attack": {**_ATTACK, "attack_time": True}},
     "bad attack section: attack_time must be a real number, got True"),
    ({"attack": {**_ATTACK, "mean_block_interval": True}},
     "bad attack section: mean_block_interval must be a real number, got True"),
    ({"attack": _ATTACK, "wallets": [{"balance": True}]},
     "bad wallet entry: balance must be a real number, got True"),
    ({"attack": _ATTACK, "wallets": [{"balance": 1, "label": 5}]},
     "bad wallet entry: label must be a string, got 5"),
    ({"attack": _ATTACK, "wallets": [{"balance": 1, "label": None}]},
     "bad wallet entry: label must be a string, got None"),
]


# A section without a field its record has no default for names all of those.
_MISSING_FIELD = [
    ({"ecdlp": {"pa_toffoli": 100, "n": 256}},
     "ecdlp section needs pa_toffoli, pa_qubits, n and w"),
    ({"machine": {"round_time": 1e-6}}, "machine section needs reaction_time and round_time"),
    ({"attack": {"attack_time": 540, "machines": 2}},
     "attack section needs attack_time and mean_block_interval"),
    ({"attack": _ATTACK, "wallets": [{"balance": 1}, {"label": "cold"}]},
     "wallet entry needs balance"),
]


@pytest.mark.parametrize("scenario, message", _MISSING_FIELD,
                         ids=[message.split()[0] for _, message in _MISSING_FIELD])
def test_estimate_names_the_fields_a_section_needs(tmp_path, capsys, scenario, message) -> None:
    assert main(["estimate", str(_write_scenario(tmp_path, scenario))]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("scenario, message", _NOT_A_NUMBER,
                         ids=[message.split(": ")[-1] for _, message in _NOT_A_NUMBER])
def test_estimate_refuses_a_bool_or_a_fraction_where_a_field_needs_a_number(
    tmp_path, capsys, scenario, message
) -> None:
    assert main(["estimate", str(_write_scenario(tmp_path, scenario))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# inspect


def test_inspect_prints_vitals(tmp_path, capsys) -> None:
    out = tmp_path / "tand.kmx"
    main(["build", "temp-and", "-o", str(out)])
    capsys.readouterr()
    assert main(["inspect", str(out), "--histogram"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "qubits: 3" in lines
    assert "non-Clifford: 1" in lines
    assert "classical bits: 1" in lines
    assert "inputs: a[0..0] b[1..1]" in lines
    assert "meta construction: temp_and" in lines
    assert "CCX: 1" in lines and "MX: 1" in lines and "CZ: 1" in lines


def test_inspect_json_output(tmp_path, capsys) -> None:
    out = tmp_path / "tand.kmx"
    main(["build", "temp-and", "-o", str(out)])
    capsys.readouterr()
    assert main(["inspect", str(out), "--json", "--histogram"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["resources"]["non_clifford_gate_count"] == 1
    assert data["classical_bits"] == 1
    assert data["inputs"] == {"a": [0, 0], "b": [1, 1]}
    assert data["metadata"]["exceptional"] == "correct"
    assert data["histogram"] == {"CCX": 1, "CZ": 1, "MX": 1}


def test_a_respelled_circuit_exits_1_with_one_line(tmp_path, capsys, pointadd11_respellings):
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5)
    circuit = tmp_path / "respelled.kmx"
    for raw, line in pointadd11_respellings.values():
        circuit.write_bytes(raw)
        for extra in (["verify", "--spec", str(spec)], ["verify", "--exhaustive", "--spec",
                                                         str(spec)], ["inspect"]):
            assert main([extra[0], str(circuit), *extra[1:]]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: line {line}, column 1: ") and err.count("\n") == 1


def test_inspect_rejects_malformed_circuits(tmp_path, capsys) -> None:
    mangled = tmp_path / "mangled.kmx"
    mangled.write_text("qubits 2\ncbits 0\nBOGUS 0 1\n")
    assert main(["inspect", str(mangled)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 3, column 1: expected a gate line, got 'BOGUS 0 1'\n"


def test_argparse_usage_errors_are_one_line(tmp_path, capsys) -> None:
    out = str(tmp_path / "x.kmx")
    for argv, message in (
        ([], "the following arguments are required: command"),
        (["build", "adder", "--width", "4"], "the following arguments are required: -o/--output"),
        (["build", "adder", "-o", out, "--width", "+4"],
         "argument --width: expected a plain decimal integer, got '+4'"),
        (["build", "nosuch", "-o", out], "unknown builder 'nosuch'"),
        (["build", "y" * 300, "-o", out], "unknown builder '" + "y" * 20 + "\u2026'"),
        (["inspect", "a.kmx", "--jsn"], "unrecognized arguments: --jsn"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert len(captured.err) < 200
    # each value that argparse or a builder echoes is cut by _shown
    long, nines = "y" * 300, "9" * 4000
    for argv in (
        [long],
        ["inspect", "x.kmx", "--", long],
        ["inspect", "x.kmx", *["zz"] * 150],
        ["verify", "x.kmx", "--spec", "s.json", f"--exhaustive={long}"],
        ["verify", "x.kmx", "--spec", "s.json", "--jobs", f"-{nines}"],
        ["build", "adder", "-o", out, f"--wi={long}"],
        ["build", "adder", "-o", out, "--width", nines],
        ["build", "mod-add", "-o", out, "--width", "4", "--constant", nines, "--modulus", "5"],
        ["build", "mod-add", "-o", out, "--width", "4", "--constant", "1", "--modulus", nines],
        ["build", "windowed-pointadd", "-o", out, "--curve", "toy-p11-b7", "--point", "G",
         "--window", nines],
        ["build", "lookup", "-o", out, "--table", "1,2", "--entry-bits", nines],
        ["build", "lookup", "-o", out, "--table", "1,2", "--entry-bits", f"-{nines}"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "\u2026" in captured.err and len(captured.err) < 200 and captured.out == ""
    # text glued to -h is refused on every interpreter, flags included (3.13's
    # argparse would run -h, and every version runs it for "-hox.kmx")
    for argv, glued in (
        (["build", "adder", "-o", out, f"-h{long}"], "yyyyyyyyyyyyyyyyyyyy\u2026"),
        (["build", "adder", "--width", "4", "-hox.kmx"], "ox.kmx"),
        (["verify", "x.kmx", "--spec", "s.json", "-hz"], "z"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: argument -h/--help: ignored explicit "
                                           f"argument '{glued}'\n")
    assert not list(tmp_path.iterdir())
    # a file path is cut too, whether it cannot be read or written
    assert main(["build", "temp-and", "-o", out]) == 0
    capsys.readouterr()
    for argv, message in (
        (["inspect", "a" * 300 + ".kmx"], "cannot read circuit file 'aaaaaaaaaaaaaaaaaaaa\u2026': "
         "File name too long"),
        (["build", "temp-and", "-o", "/nonexist/" + "a" * 300 + ".kmx"],
         "cannot write circuit file '/nonexist/aaaaaaaaaa\u2026': No such file or directory"),
        (["verify", out, "--spec", "s" * 300 + ".json"],
         "cannot read spec file 'ssssssssssssssssssss\u2026': File name too long"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert len(captured.err) < 200
    for argv in (["--help"], ["build", "--help"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert "usage: kickmix" in capsys.readouterr().out


def test_verify_rejects_non_positive_jobs_in_one_line(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5)
    capsys.readouterr()
    for jobs in ("0", "-2"):
        for extra in ([], ["--exhaustive"]):
            assert main(["verify", str(circuit), "--spec", str(spec), "--jobs", jobs, *extra]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --jobs must be at least 1, got {jobs}\n"
    for jobs in ("+1", "01", "1_0", "\u0661"):
        assert main(["verify", str(circuit), "--spec", str(spec), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err == f"error: argument --jobs: expected a plain decimal integer, got {jobs!r}\n"


def test_verify_rejects_mistyped_spec_fields_in_one_line(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    capsys.readouterr()
    for fields, message in (
        ({"test_count": 5.5}, "'test_count' must be an integer, got float"),
        ({"test_count": True}, "'test_count' must be an integer, got bool"),
        ({"test_count": 5, "registers": "qx"}, "'registers' must be an object"),
        ({"test_count": 5, "max_total_ops": "many"}, "'max_total_ops' must be an integer or null"),
    ):
        spec = _write_spec(tmp_path, curve="toy-p11-b7", **fields)
        assert main(["verify", str(circuit), "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad spec: spec field ") and message in err
        assert err.count("\n") == 1


def test_spec_side_errors_print_one_short_line(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    long = "a" * 5000
    specs = [
        {"curve": "toy-p11-b7", "test_count": 1, long: 1},
        {"curve": "toy-p11-b7", "test_count": 1, "registers": {long: "qx"}},
        {"curve": "toy-p11-b7", "test_count": 1,
         "registers": {"accumulator_x": long, "accumulator_y": "qy"}},
        {"curve": "toy-p11-b7", "test_count": 1, "base_source": long},
        {"curve": long, "test_count": 1},
    ]
    capsys.readouterr()
    for fields in specs:
        spec = _write_spec(tmp_path, **fields)
        assert main(["verify", str(circuit), "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and len(err) < 200, err[:300]
        assert "a" * 20 + "…" in err
    assert main(["build", "pointadd", "-o", str(tmp_path / "x.kmx"),
                 "--curve", long, "--point", "G"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 200, err[:300]
    assert "a" * 20 + "…" in err


def _one_short_line(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    assert len(err) < 200, err[:300]


def test_off_curve_points_print_one_short_line(tmp_path, capsys) -> None:
    long = "9" * 3000
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5)
    for raw, shown in (("1,1", "'1,1'"), (long + ",5", "'" + "9" * 20 + "…'")):
        circuit = tmp_path / "off.kmx"
        circuit.write_text(
            f"qubits 8\ncbits 0\nmeta base {raw}\n"
            "in qx 0..3\nin qy 4..7\nout qx 0..3\nout qy 4..7\n"
        )
        for extra in ([], ["--exhaustive"]):
            assert main(["verify", str(circuit), "--spec", str(spec), *extra]) == 2
            err = capsys.readouterr().err
            _one_short_line(err)
            assert err == f"error: base metadata {shown} is not on curve toy-p11-b7\n"
    for point, ending in (("1,1", "is not on curve toy-p11-b7\n"),
                          (long + ",5", "is not on curve toy-p11-b7\n"),
                          (long + ";5", "got '" + "9" * 20 + "…'\n")):
        assert main(["build", "pointadd", "-o", str(tmp_path / "x.kmx"),
                     "--curve", "toy-p11-b7", "--point", point]) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        assert err.endswith(ending)
    assert not (tmp_path / "x.kmx").exists()


def test_unknown_names_print_escaped_on_one_short_line(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    capsys.readouterr()
    for fields, shown in (
        ({"a\nb": 1}, "bad spec: unknown spec field(s): a\\nb\n"),
        ({"registers": {"accumulator_x": "qx", "accumulator_y": "qy", "r\x1b\r": "x"}},
         "bad spec: unknown register role(s): r\\x1b\\r\n"),
        ({"a" * 5000 + "\n": 1, "b\n": 1}, "unknown spec field(s): " + "a" * 20 + "…\n"),
    ):
        spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=1, **fields)
        assert main(["verify", str(circuit), "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        assert err.endswith(shown)

    attack = {"attack_time": 100.0, "mean_block_interval": 600}
    for scenario, shown in (
        ({"x" * 5000: {}, "y\nz": {}}, "unknown scenario section(s): " + "x" * 20 + "…\n"),
        ({"y\nz": {}}, "unknown scenario section(s): y\\nz\n"),
        ({"machine": {"reaction_time": 1e-5, "round_time": 1e-6, "w\u2028": 1}},
         "unknown machine field(s): w\\u2028\n"),
        ({"attack": attack, "success_sweep": {"steps": 2, "t\no": 1}},
         "unknown success_sweep field(s): t\\no\n"),
    ):
        path = _write_scenario(tmp_path, scenario)
        argv = ["estimate", str(path), "-o", str(tmp_path / "out.json")]
        assert main([*argv, "--success-csv", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        assert err.endswith(shown)


def test_deeply_nested_json_is_a_one_line_usage_error(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert main(["verify", str(circuit), "--spec", str(nested)]) == 2
    err = capsys.readouterr().err
    _one_short_line(err)
    assert "nests too deeply" in err
    assert main(["estimate", str(nested)]) == 2
    err = capsys.readouterr().err
    _one_short_line(err)
    assert "nests too deeply" in err


def test_verify_refuses_a_test_count_over_the_ceiling(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    capsys.readouterr()
    for count in (2**17 + 1, 10**8, 10**15):
        spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=count)
        assert main(["verify", str(circuit), "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        assert "test_count must be >= 0 and at most 131072" in err


def test_estimate_refuses_a_section_of_the_wrong_json_type(tmp_path, capsys) -> None:
    attack = {"attack_time": 100.0, "mean_block_interval": 600}
    for scenario, shown in (
        ({"machine": 5}, "machine section must be a JSON object\n"),
        ({"ecdlp": 5}, "ecdlp section must be a JSON object\n"),
        ({"attack": 5}, "attack section must be a JSON object\n"),
        ({"attack": attack, "success_sweep": 5}, "success_sweep section must be a JSON object\n"),
        ({"attack": attack, "wallets": {"balance": 1}}, "wallets section must be a JSON array\n"),
    ):
        path = _write_scenario(tmp_path, scenario)
        argv = ["estimate", str(path), "-o", str(tmp_path / "out.json")]
        assert main([*argv, "--success-csv", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        assert err.endswith(shown)


def _raw_ecdlp(field: str, raw: str) -> str:
    fields = {"pa_toffoli": "1000", "pa_qubits": "100", "n": "256", "w": "4", field: raw}
    return '{"ecdlp": {%s}}' % ", ".join(f'"{k}": {v}' for k, v in fields.items())


_RAW_ATTACK = '"attack": {"attack_time": 100.0, "mean_block_interval": 600'


@pytest.mark.parametrize(
    "text, shown",
    [
        (_raw_ecdlp("n", "256.5"), "bad ecdlp section: n must be an integer, got 256.5"),
        (_raw_ecdlp("pa_qubits", "1.5"),
         "bad ecdlp section: pa_qubits must be an integer, got 1.5"),
        (_raw_ecdlp("w", "true"), "bad ecdlp section: window must be an integer, got True"),
        (_raw_ecdlp("pa_toffoli", '"5"'),
         "bad ecdlp section: pa_toffoli must be an integer, got '5'"),
        (_raw_ecdlp("pa_toffoli", "1e400"),
         "bad ecdlp section: pa_toffoli must be an integer, got inf"),
        ("{%s, \"machines\": 1.5}}" % _RAW_ATTACK,
         "bad attack section: machines must be an integer, got 1.5"),
        ("{%s, \"signatures_required\": false}}" % _RAW_ATTACK,
         "bad attack section: signatures_required must be an integer, got False"),
        ("{%s}, \"wallets\": [{\"balance\": 1, \"keys_required\": 1.5}]}" % _RAW_ATTACK,
         "bad wallet entry: keys_required must be an integer, got 1.5"),
    ],
)
def test_estimate_refuses_a_count_that_is_not_an_integer(tmp_path, capsys, text,
                                                         shown) -> None:
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["estimate", str(path)]) == 2
    err = capsys.readouterr().err
    _one_short_line(err)
    assert err == f"error: {shown}\n"


def test_estimate_bounds_the_success_sweep_steps(tmp_path, capsys) -> None:
    attack = {"attack_time": 100.0, "mean_block_interval": 600}
    success_csv = tmp_path / "s.csv"
    for steps, shown in (
        (1e8, "100000000.0"),
        (10**8, "100000000"),
        (1e300, "1e+300"),
        (10_001, "10001"),
        (2.5, "2.5"),
        (0, "0"),
        (True, "True"),
        ("7", "'7'"),
        (None, "None"),
    ):
        path = _write_scenario(tmp_path, {"attack": attack, "success_sweep": {"steps": steps}})
        argv = ["estimate", str(path), "-o", str(tmp_path / "out.json")]
        assert main([*argv, "--success-csv", str(success_csv)]) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        assert err.endswith(
            f"success_sweep steps must be a whole number from 1 to 10000, got {shown}\n"
        )
        assert not success_csv.exists()

    for steps, rows in ((4.0, 5), (10_000, 10_001)):
        path = _write_scenario(tmp_path, {"attack": attack, "success_sweep": {"steps": steps}})
        argv = ["estimate", str(path), "-o", str(tmp_path / "out.json")]
        assert main([*argv, "--success-csv", str(success_csv)]) == 0
        assert len(success_csv.read_text().splitlines()) == rows + 1  # header + rows


def test_estimate_refuses_a_success_sweep_bound_that_is_not_a_number(
    tmp_path, capsys
) -> None:
    attack = {"attack_time": 100.0, "mean_block_interval": 600}
    path = _write_scenario(tmp_path, {"attack": attack, "success_sweep": {"from": None}})
    argv = ["estimate", str(path), "-o", str(tmp_path / "out.json")]
    assert main([*argv, "--success-csv", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    _one_short_line(err)
    assert err.endswith("success_sweep from and to must be numbers\n")


def test_estimate_usage_errors_leave_no_results_file(tmp_path, capsys) -> None:
    attack = {"attack_time": 1, "mean_block_interval": 600}
    out = tmp_path / "out.json"
    for scenario, flag, shown in (
        ({"attack": attack, "success_sweep": {"steps": 1e300}}, "--success-csv",
         "success_sweep steps must be a whole number from 1 to 10000, got 1e+300\n"),
        *(({"attack": attack, "success_sweep": sweep}, "--success-csv",
           "success_sweep needs 0 < from <= to\n")
          for sweep in ({"from": 600, "to": 60}, {"from": 0, "to": 60}, {"from": -1, "to": 60},
                        {"from": -60, "to": -1})),
        ({"attack": attack}, "--salvage-csv", "--salvage-csv needs a wallets section\n"),
        ({"machine": {"reaction_time": 1e-5, "round_time": 1e-6}}, "--success-csv",
         "--success-csv needs an attack section\n"),
    ):
        path = _write_scenario(tmp_path, scenario)
        argv = ["estimate", str(path), "-o", str(out), flag, str(tmp_path / "x.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        assert err.endswith(shown)
        assert not out.exists() and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("field", ["from", "to"])
@pytest.mark.parametrize("bound", [True, "60", "1e3"], ids=["true", "str 60", "str 1e3"])
def test_estimate_takes_only_json_numbers_as_success_sweep_bounds(
    tmp_path, capsys, field, bound
) -> None:
    attack = {"attack_time": 540, "mean_block_interval": 600}
    sweep = {"from": 60, "to": 1000, "steps": 2, field: bound}
    path = _write_scenario(tmp_path, {"attack": attack, "success_sweep": sweep})
    out, csv = tmp_path / "out.json", tmp_path / "s.csv"
    assert main(["estimate", str(path), "-o", str(out), "--success-csv", str(csv)]) == 2
    err = capsys.readouterr().err
    _one_short_line(err)
    assert err.endswith("success_sweep from and to must be numbers\n")
    assert not out.exists() and not csv.exists()


@pytest.mark.parametrize("flags", [(), ("-o",), ("--success-csv",), ("-o", "--success-csv")],
                         ids=["stdout", "-o", "--success-csv", "-o --success-csv"])
@pytest.mark.parametrize("scenario, message", [
    ({"attack": {"attack_time": "540", "mean_block_interval": 600}},
     "bad attack section: attack_time must be a real number, got '540'"),
    ({"machine": {"reaction_time": "1e-5", "round_time": 1e-6}, "attack": _ATTACK},
     "bad machine section: reaction_time must be a real number, got '1e-5'"),
], ids=["attack_time 540", "reaction_time 1e-5"])
def test_estimate_refuses_a_numeric_string_where_a_field_needs_a_number(
    tmp_path, capsys, scenario, message, flags
) -> None:
    """A JSON string is no number, though Fraction would read "540"."""
    path = _write_scenario(tmp_path, scenario)
    files = {"-o": tmp_path / "out.json", "--success-csv": tmp_path / "s.csv"}
    argv = ["estimate", str(path)]
    for flag in flags:
        argv += [flag, str(files[flag])]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not any(file.exists() for file in files.values())


def test_estimate_cuts_long_scenario_strings(tmp_path, capsys) -> None:
    long = "x" * 5000
    cut = "x" * 20 + "…"
    attack = {"attack_time": 1, "mean_block_interval": 600}
    machine = {"reaction_time": 1e-5, "round_time": 1e-6}
    ecdlp = {"pa_toffoli": 1, "pa_qubits": 1, "n": 256, "w": 16}
    for scenario, shown in (
        ({"attack": attack, "success_sweep": {"from": long}},
         "success_sweep from and to must be numbers\n"),
        ({"machine": machine, "t_rate": long},
         f"t_rate must be a real number, got '{'x' * 19}…\n"),
        ({"machine": {**machine, "reaction_time": long}},
         f"bad machine section: reaction_time must be a real number, got '{'x' * 19}…\n"),
        ({"machine": machine, "t_rate": [long]}, f'"[{repr(long)[:19]}…" is not a number\n'),
        ({"ecdlp": {**ecdlp, long: 1}}, f"unknown ecdlp field(s): {cut}\n"),
        ({"attack": {**attack, long: 1}}, f"unknown attack field(s): {cut}\n"),
        ({"attack": attack, "wallets": [{"balance": 1, long: 1}]},
         f"unknown wallet field(s): {cut}\n"),
        ({"attack": attack, "wallets": [5]}, "wallet entry must be a JSON object\n"),
        ({"ecdlp": {**ecdlp, "n": -(10**4000)}},
         "bit length must be >= 1, got -1" + "0" * 18 + "…\n"),
    ):
        path = _write_scenario(tmp_path, scenario)
        argv = ["estimate", str(path), "-o", str(tmp_path / "out.json")]
        assert main([*argv, "--success-csv", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        assert err.endswith(shown)


def test_estimate_beyond_the_float_range(tmp_path, capsys) -> None:
    path = _write_scenario(
        tmp_path, {"attack": {"attack_time": 1e308, "mean_block_interval": 1e-308}}
    )
    assert main(["estimate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"onspend_success": 0.0}
    for scenario in (
        {"wallets": [{"balance": 1e308, "keys_required": 10}],
         "attack": {"attack_time": 1e308, "mean_block_interval": 1}},
        {"machine": {"reaction_time": 1, "round_time": 1e-308,
                     "cultivation_qubits": 10**308, "t_state_cost": 3}},
    ):
        path = _write_scenario(tmp_path, scenario)
        assert main(["estimate", str(path), "-o", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        assert err.endswith("a result is beyond the float range\n")
        assert not (tmp_path / "out.json").exists()



def test_writes_into_a_missing_directory_are_one_line_usage_errors(tmp_path, capsys) -> None:
    missing = tmp_path / "nodir"
    assert main(["build", "temp-and", "-o", str(missing / "t.kmx")]) == 2
    err = capsys.readouterr().err
    _one_short_line(err.replace(str(tmp_path), ""))
    assert "cannot write circuit file" in err and err.endswith("No such file or directory\n")

    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=10)
    capsys.readouterr()
    assert main(["verify", str(circuit), "--spec", str(spec), "-o", str(missing / "r.json")]) == 2
    err = capsys.readouterr().err
    _one_short_line(err.replace(str(tmp_path), ""))
    assert "cannot write report file" in err

    scenario = dict(_SCENARIO)
    path = _write_scenario(tmp_path, scenario)
    for flag, what in (("-o", "results file"), ("--salvage-csv", "CSV file"),
                       ("--success-csv", "CSV file")):
        assert main(["estimate", str(path), flag, str(missing / "x")]) == 2
        err = capsys.readouterr().err.splitlines()[-1] + "\n"
        _one_short_line(err.replace(str(tmp_path), ""))
        assert f"cannot write {what}" in err
    assert not missing.exists()


def test_estimate_refuses_a_huge_window_at_once(tmp_path, capsys) -> None:
    path = _write_scenario(tmp_path, {"ecdlp": {"pa_toffoli": 0, "pa_qubits": 0,
                                                "n": 1_000_000_000, "w": 400_000_000}})
    assert main(["estimate", str(path), "-o", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    _one_short_line(err)
    assert err.endswith("window 400000000 is above the ceiling of 4096\n")
    assert not (tmp_path / "out.json").exists()


def test_verify_refuses_an_unwritable_report_before_verifying(
    tmp_path, capsys, monkeypatch
) -> None:
    import kickmix.cli as cli

    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=10)
    before = sorted(tmp_path.iterdir())

    def never(*args, **kwargs):
        pytest.fail("verify ran although the report cannot be written")

    monkeypatch.setattr(cli, "verify", never)
    monkeypatch.setattr(cli, "verify_exhaustive", never)
    capsys.readouterr()
    for extra in ([], ["--exhaustive"]):
        target = tmp_path / "nodir" / "r.json"
        assert main(["verify", str(circuit), "--spec", str(spec), "-o", str(target),
                     *extra]) == 2
        err = capsys.readouterr().err
        _one_short_line(err)
        shown = str(target)[:20] + "\u2026"
        assert err == f"error: cannot write report file {shown!r}: No such file or directory\n"
    (tmp_path / "adir").mkdir()
    assert main(["verify", str(circuit), "--spec", str(spec), "-o",
                 str(tmp_path / "adir")]) == 2
    assert capsys.readouterr().err.endswith(": Is a directory\n")
    assert sorted(tmp_path.iterdir()) == sorted([*before, tmp_path / "adir"])
    assert not list((tmp_path / "adir").iterdir())


def test_verify_write_check_leaves_no_file_and_truncates_none(tmp_path, capsys) -> None:
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=10)
    broken = tmp_path / "broken.kmx"
    broken.write_text("qubits 2\ncbits 0\nCX 0 7\n")
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    for out in (fresh, kept):  # parse fails after the check: exit 1
        assert main(["verify", str(broken), "--spec", str(spec), "-o", str(out)]) == 1
        assert "qubit 7 out of range" in capsys.readouterr().err
    assert not fresh.exists()
    assert kept.read_text() == "earlier report\n"
    circuit = _build_pointadd(tmp_path)
    assert main(["verify", str(circuit), "--spec", str(spec), "-o", str(kept)]) == 0
    assert json.loads(kept.read_text())["verdict"] == "pass"


def test_estimate_writes_nothing_when_a_csv_cannot_be_written(tmp_path, capsys) -> None:
    path = _write_scenario(tmp_path, _SCENARIO)
    out = tmp_path / "o.json"
    for flag in ("--success-csv", "--salvage-csv"):
        assert main(["estimate", str(path), "-o", str(out), flag,
                     str(tmp_path / "nodir" / "s.csv")]) == 2
        err = capsys.readouterr().err
        _one_short_line(err.replace(str(tmp_path), ""))
        assert "cannot write CSV file" in err
        assert not out.exists()
    csv = tmp_path / "s.csv"
    assert main(["estimate", str(path), "-o", str(tmp_path / "nodir" / "o.json"),
                 "--success-csv", str(csv)]) == 2
    assert "cannot write results file" in capsys.readouterr().err
    assert not csv.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_build_writes_nothing_when_the_sidecar_cannot_be_written(tmp_path, capsys) -> None:
    out = tmp_path / "t.kmx"
    (tmp_path / "t.kmx.json").mkdir()
    assert main(["build", "temp-and", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    _one_short_line(err.replace(str(tmp_path), ""))
    assert "cannot write sidecar file" in err and err.endswith("Is a directory\n")
    assert not out.exists()


def test_build_reads_g_its_one_spelling_and_inf(tmp_path) -> None:
    for name, point in (("g", "G"), ("xy", "4,4"), ("inf", "inf")):
        assert main(["build", "pointadd", "-o", str(tmp_path / f"{name}.kmx"),
                     "--curve", "toy-p11-b7", "--point", point]) == 0
    assert (tmp_path / "g.kmx").read_bytes() == (tmp_path / "xy.kmx").read_bytes()
    assert "meta base 4,4\n" in (tmp_path / "g.kmx").read_text()
    assert "meta base inf\n" in (tmp_path / "inf.kmx").read_text()


def test_json_outputs_are_the_canonical_encoding(tmp_path, capsys) -> None:
    from kickmix.harness import _canonical_json

    circuit = _build_pointadd(tmp_path)
    wallets = [{"balance": 2000.5, "label": "börse ☃"}, {"balance": 0.25}]
    scenario = _write_scenario(tmp_path, dict(_SCENARIO, wallets=wallets))
    results = tmp_path / "results.json"
    assert main(["estimate", str(scenario), "-o", str(results)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(circuit), "--json", "--histogram"]) == 0
    inspected = capsys.readouterr().out.encode("ascii")
    outputs = (tmp_path / "pa.kmx.json").read_bytes(), results.read_bytes(), inspected
    assert isinstance(json.loads(outputs[1])["salvage"]["total_balance"], float)
    for raw in outputs:
        value = json.loads(raw)
        assert raw == _canonical_json(value)
        assert raw == (json.dumps(value, sort_keys=True, indent=2) + "\n").encode("ascii")


_CURVE_FIELDS = {"p": 11, "a": 0, "b": 7, "gx": 4, "gy": 4, "order": 12}
_BAD_REGISTRIES = {
    "missing": None,
    "not-json": "{",
    "string-value": '{"x": {"p": "abc"}}',
    "array": "[1, 2]",
    "object-of-numbers": '{"x": 1}',
    "float-value": json.dumps({"x": dict(_CURVE_FIELDS, p=11.0)}),
    "missing-field": json.dumps({"x": {k: v for k, v in _CURVE_FIELDS.items() if k != "p"}}),
    "extra-field": json.dumps({"x": dict(_CURVE_FIELDS, h=1)}),
}


@pytest.mark.parametrize("content", _BAD_REGISTRIES.values(), ids=_BAD_REGISTRIES.keys())
def test_a_bad_curve_registry_is_one_usage_error(tmp_path, capsys, monkeypatch, content) -> None:
    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5)
    registry = tmp_path / "curves.json"
    if content is not None:
        registry.write_text(content)
    monkeypatch.setenv("KICKMIX_CURVE_REGISTRY", str(registry))
    capsys.readouterr()
    assert main(["inspect", str(circuit)]) == 0  # reads no registry
    with pytest.raises(SystemExit):
        main(["build", "--help"])
    assert "secp256k1" in capsys.readouterr().out
    for argv in (["verify", str(circuit), "--spec", str(spec)],
                 ["build", "pointadd", "-o", str(tmp_path / "x.kmx"),
                  "--curve", "toy-p11-b7", "--point", "G"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: KICKMIX_CURVE_REGISTRY file {str(registry)!r} ")
        assert err.count("\n") == 1 and err.count("error:") == 1, err
    assert not (tmp_path / "x.kmx").exists()
