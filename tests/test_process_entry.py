"""The process entry and the cyclic collector.

A `kickmix` process runs with its imports frozen and automatic collection
off (kickmix.cli.run).  That is sound only while no command leaves cyclic
garbage that grows with its input: the tests below run every command under
``gc.disable()`` on a small and on a larger input and require the same count
of unreachable objects from both.  They also pin the entry itself: the
spawned process writes the golden report, and the main it calls runs with
the collector off and the imports frozen.
"""

from __future__ import annotations

import gc
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import kickmix.cli as cli
from kickmix import (
    build_pointadd_permutation,
    mutate,
    named_curve,
    serialize,
    spec_for_circuit,
)

from test_golden_reports import GOLDEN

_ROOT = Path(__file__).resolve().parent.parent


def _garbage_left(argv: list[str]) -> tuple[int, int]:
    """The exit code of one cli.main(argv) call, and the count of
    unreachable objects it leaves behind."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.disable()
    try:
        gc.collect()
        code = cli.main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == (False, frozen)
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    """Circuit, spec and scenario files, a small and a larger one of each."""
    folder = tmp_path_factory.mktemp("inputs")
    files: dict[str, str] = {}

    def put(name: str, data: bytes | str) -> None:
        path = folder / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        files[name] = str(path)

    for tag, curve in (("small", "toy-p11-b7"), ("large", "toy-p61-b7")):
        params = named_curve(curve)
        circuit = build_pointadd_permutation(params, params.generator).circuit
        raw = serialize(circuit)
        spec = spec_for_circuit(circuit, test_count=40 if tag == "small" else 400)
        put(f"{tag}.kmx", raw)
        put(f"{tag}-mutant.kmx", serialize(mutate(circuit, 5)))
        put(f"{tag}-broken.kmx", raw + b"CX 0\n")
        put(f"{tag}.json", json.dumps(spec.to_dict()))
        put(f"{tag}-exhaustive.json", json.dumps(
            spec_for_circuit(circuit, test_count=0, tolerated_failure_fraction=0).to_dict()))
        unknown = dict.fromkeys([f"field{i}" for i in range(2 if tag == "small" else 200)], 1)
        put(f"{tag}-bad.json", json.dumps({**spec.to_dict(), **unknown}))
    put("small-deep.json", "[" * 20_000)
    put("large-deep.json", "[" * 100_000)
    scenario = {
        "ecdlp": {"pa_toffoli": 2_100_000, "pa_qubits": 1175, "n": 256, "w": 16},
        "machine": {"reaction_time": 1e-5, "round_time": 1e-6},
        "attack": {"mean_block_interval": 600},
    }
    for tag, wallets, steps in (("small", 1, 4), ("large", 500, 2000)):
        put(f"{tag}-scenario.json", json.dumps({
            **scenario,
            "wallets": [{"balance": 10 + i} for i in range(wallets)],
            "success_sweep": {"steps": steps},
        }))
    for name in ("out", "salvage.csv", "success.csv"):
        files[name] = str(folder / name)
    return files


_P11 = ("--curve", "toy-p11-b7", "--point", "G")
_P61 = ("--curve", "toy-p61-b7", "--point", "G")

# command -> (its exit code, small argv, larger argv); an argument that
# names an input file stands for its path
_COMMANDS = {
    "build temp-and": (0, *(["build", "temp-and", "-o", "out"],) * 2),
    "build adder": (
        0,
        ["build", "adder", "-o", "out", "--width", "2"],
        ["build", "adder", "-o", "out", "--width", "8"],
    ),
    "build mod-add": (
        0,
        ["build", "mod-add", "-o", "out", "--width", "3", "--constant", "2", "--modulus", "7"],
        ["build", "mod-add", "-o", "out", "--width", "8", "--constant", "100",
         "--modulus", "251"],
    ),
    "build lookup": (
        0,
        ["build", "lookup", "-o", "out", "--table", "1,2"],
        ["build", "lookup", "-o", "out", "--table", ",".join(map(str, range(64)))],
    ),
    "build pointadd": (
        0,
        ["build", "pointadd", "-o", "out", *_P11],
        ["build", "pointadd", "-o", "out", *_P61],
    ),
    "build windowed-pointadd": (
        0,
        ["build", "windowed-pointadd", "-o", "out", *_P11, "--window", "1"],
        ["build", "windowed-pointadd", "-o", "out", *_P61, "--window", "2"],
    ),
    "verify": (
        0,
        ["verify", "small.kmx", "--spec", "small.json", "-o", "out"],
        ["verify", "large.kmx", "--spec", "large.json", "-o", "out"],
    ),
    "verify --exhaustive": (
        0,
        ["verify", "small.kmx", "--spec", "small-exhaustive.json", "--exhaustive", "-o", "out"],
        ["verify", "large.kmx", "--spec", "large-exhaustive.json", "--exhaustive", "-o", "out"],
    ),
    "verify --fail-fast": (
        1,
        ["verify", "small-mutant.kmx", "--spec", "small.json", "--fail-fast", "-o", "out"],
        ["verify", "large-mutant.kmx", "--spec", "large.json", "--fail-fast", "-o", "out"],
    ),
    "verify a failing mutant": (
        1,
        ["verify", "small-mutant.kmx", "--spec", "small.json", "-o", "out"],
        ["verify", "large-mutant.kmx", "--spec", "large.json", "-o", "out"],
    ),
    "verify a parse error": (
        1,
        ["verify", "small-broken.kmx", "--spec", "small.json"],
        ["verify", "large-broken.kmx", "--spec", "large.json"],
    ),
    "verify a bad spec": (
        2,
        ["verify", "small.kmx", "--spec", "small-bad.json"],
        ["verify", "large.kmx", "--spec", "large-bad.json"],
    ),
    "verify a too deeply nested spec": (
        2,
        ["verify", "small.kmx", "--spec", "small-deep.json"],
        ["verify", "large.kmx", "--spec", "large-deep.json"],
    ),
    "inspect --json": (
        0, ["inspect", "small.kmx", "--json"], ["inspect", "large.kmx", "--json"]
    ),
    "inspect --histogram": (
        0, ["inspect", "small.kmx", "--histogram"], ["inspect", "large.kmx", "--histogram"]
    ),
    "estimate": (0, *(
        ["estimate", f"{tag}-scenario.json", "-o", "out",
         "--salvage-csv", "salvage.csv", "--success-csv", "success.csv"]
        for tag in ("small", "large")
    )),
}

# command -> what each of its runs prints on stderr
_ERRORS = {
    "verify --fail-fast": "verification failed: 1 failing test(s)",
    "verify a failing mutant": "verification failed: ",
    "verify a parse error": "error: line ",
    "verify a bad spec": "error: bad spec: unknown spec field(s)",
    "verify a too deeply nested spec": "nests too deeply to read",
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_no_command_leaves_cyclic_garbage_that_grows_with_its_input(
    command, inputs, capsys
) -> None:
    code, *argvs = _COMMANDS[command]
    small, large = ([inputs.get(arg, arg) for arg in argv] for argv in argvs)
    assert _garbage_left(small) == (code, _garbage_left(large)[1])
    error = capsys.readouterr().err
    if command in _ERRORS:  # the path it names, one line on each run
        assert error.count("\n") == error.count(_ERRORS[command]) == 2, error


def test_main_in_process_leaves_the_collector_on(inputs) -> None:
    state = gc.isenabled(), gc.get_freeze_count()
    gc.enable()
    try:
        assert cli.main(["inspect", inputs["small.kmx"]]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (True, state[1])
    finally:
        if not state[0]:
            gc.disable()


def test_a_spawned_process_writes_the_golden_report(
    pointadd11, pointadd11_bytes, tmp_path
) -> None:
    circuit, spec = tmp_path / "p11.kmx", tmp_path / "spec.json"
    circuit.write_bytes(pointadd11_bytes)
    spec.write_text(json.dumps(spec_for_circuit(pointadd11.circuit).to_dict()))
    spawned, in_process = tmp_path / "spawned.json", tmp_path / "in-process.json"
    argv = ["verify", str(circuit), "--spec", str(spec), "-o"]
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "kickmix", *argv, str(spawned)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert cli.main([*argv, str(in_process)]) == 0
    assert json.loads(spawned.read_bytes())["report_digest"] == GOLDEN["p11-transcript"]
    assert spawned.read_bytes() == in_process.read_bytes()


def test_the_entry_runs_main_with_the_collector_off_and_the_imports_frozen(
    monkeypatch,
) -> None:
    seen = []

    def main() -> int:
        seen.append((gc.isenabled(), gc.get_freeze_count()))
        return 3

    monkeypatch.setattr(cli, "main", main)
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("kickmix", run_name="__main__")
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    assert exited.value.code == 3
    assert len(seen) == 1 and seen[0][0] is False and seen[0][1] > frozen


def test_the_console_script_and_the_module_guard_are_the_same_entry() -> None:
    text = (_ROOT / "pyproject.toml").read_text()
    scripts = text.partition("[project.scripts]\n")[2].partition("\n\n")[0]
    assert scripts == 'kickmix = "kickmix.cli:run"'
    assert Path(cli.__file__).read_text().endswith('\nif __name__ == "__main__":\n    run()\n')


# The stdlib modules no kickmix command needs: dataclasses alone pulls in
# inspect, ast, dis and tokenize, about 4 ms before a record is declared.
_UNLOADED = ("dataclasses", "inspect", "pathlib")
_CHILD = """\
import json, sys
import kickmix.cli as cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(set(sys.argv[2:]).intersection(sys.modules))]))
"""


def test_a_process_runs_every_command_without_dataclasses_inspect_or_pathlib(
    inputs, pointadd11, pointadd11_bytes, tmp_path
) -> None:
    circuit, spec, report = tmp_path / "p11.kmx", tmp_path / "spec.json", tmp_path / "report.json"
    circuit.write_bytes(pointadd11_bytes)
    spec.write_text(json.dumps(spec_for_circuit(pointadd11.circuit).to_dict()))
    argvs = [
        ["verify", str(circuit), "--spec", str(spec), "-o", str(report)],
        ["build", "pointadd", "-o", str(tmp_path / "built.kmx"), *_P11],
        ["inspect", str(circuit), "--json"],
        ["estimate", inputs["small-scenario.json"], "-o", str(tmp_path / "estimate.json")],
    ]
    src = str(Path(cli.__file__).resolve().parent.parent)
    # -S: no site hook, which on some hosts imports pathlib from a .pth file
    done = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, json.dumps(argvs), *_UNLOADED],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0, 0, 0], []]
    assert json.loads(report.read_bytes())["report_digest"] == GOLDEN["p11-transcript"]


# The report digest of the p11 point adder checked on its whole domain.
_P11_EXHAUSTIVE = "b37e3ed9136f8140d39a72fabcc615014f41a2b2afa1d10d876dfc59bf67d9c8"


def test_an_exhaustive_verify_runs_without_fractions_or_decimal(
    pointadd11, pointadd11_bytes, tmp_path
) -> None:
    """Only a sampled plan and a spec's decimal face values need exact
    fractions; an exhaustive verify averages its counts on plain ints."""
    circuit, spec, report = tmp_path / "p11.kmx", tmp_path / "spec.json", tmp_path / "report.json"
    circuit.write_bytes(pointadd11_bytes)
    spec.write_text(json.dumps(spec_for_circuit(
        pointadd11.circuit, test_count=0, tolerated_failure_fraction=0).to_dict()))
    argvs = [["verify", str(circuit), "--spec", str(spec), "--exhaustive", "-o", str(report)]]
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, json.dumps(argvs), "fractions", "decimal"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0], []]
    assert json.loads(report.read_bytes())["report_digest"] == _P11_EXHAUSTIVE
