"""Command-line surface: exit codes, file outputs, and printed summaries.

Every test drives main() in-process with an argv list; files go through
tmp_path and printed text through capsys, so the suite exercises exactly
what a shell user sees without spawning subprocesses.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from kickmix import mutate, parse, serialize
from kickmix.cli import main


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
    assert main(["build", "pointadd", "-o", out, "--curve", "toy-p11-b7",
                 "--point", "4;4"]) == 2
    assert "point must be 'G', 'inf', or 'x,y' integers" in capsys.readouterr().err
    assert main(["build", "pointadd", "-o", out, "--curve", "nope",
                 "--point", "G"]) == 2
    assert "unknown curve 'nope'" in capsys.readouterr().err
    assert main(["build", "lookup", "-o", out, "--table", "1,2,three"]) == 2
    assert "table must be comma-separated integers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # nothing half-written


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


def test_verify_reports_parse_failures(tmp_path, capsys) -> None:
    mangled = tmp_path / "mangled.kmx"
    mangled.write_text("qubits 2\nBOGUS 0 1\n")
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5)
    assert main(["verify", str(mangled), "--spec", str(spec)]) == 1
    assert "line 2, column 1: unknown opcode 'BOGUS'" in capsys.readouterr().err


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


def test_inspect_rejects_malformed_circuits(tmp_path, capsys) -> None:
    mangled = tmp_path / "mangled.kmx"
    mangled.write_text("qubits 2\nBOGUS 0 1\n")
    assert main(["inspect", str(mangled)]) == 1
    assert "error: line 2, column 1: unknown opcode 'BOGUS'" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_verify_rejects_non_positive_jobs_in_one_line(tmp_path, capsys) -> None:
    circuit = _build_pointadd(tmp_path)
    spec = _write_spec(tmp_path, curve="toy-p11-b7", test_count=5)
    capsys.readouterr()
    for jobs in ("0", "-2"):
        for extra in ([], ["--exhaustive"]):
            assert main(["verify", str(circuit), "--spec", str(spec), "--jobs", jobs, *extra]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --jobs must be at least 1, got {jobs}\n"


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
