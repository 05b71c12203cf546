"""Tests of the benchmark itself, on tiny variants of every workload.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, Bench, spawn  # noqa: E402
from spans import layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    CURVES,
    WORKLOADS,
    Workload,
    full_order_scalars,
    load_golden,
    multiple,
    point_count,
)

NAMES = sorted(WORKLOADS)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload: Workload) -> Workload:
    """A small variant on the same code path.  Mutants keep their spec, so
    their golden reports still apply."""
    if workload.mutants:
        return replace(workload, mutants=2)
    if workload.exhaustive:
        return replace(workload, name=workload.name + "-tiny", curve="toy-p11-b7")
    return replace(workload, name=workload.name + "-tiny", test_count=min(workload.test_count, 24))


def _cli_verify(bench: Bench, case, out: Path, jobs: int) -> bytes:
    args = bench.w.verify_args(str(case.circuit), str(bench.spec_path), str(out), jobs)
    code = spawn(["-m", "kickmix", *args], bench.work / "verify.log", bench.work)[2]
    bench.check(case, code, out)
    return out.read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_cli_in_process_and_job_counts_give_the_same_report(name, tmp_path):
    bench = Bench(tiny(WORKLOADS[name]), 0, tmp_path)
    cases = bench.setup()
    for case in cases:
        one = _cli_verify(bench, case, tmp_path / "jobs1.json", jobs=1)
        two = _cli_verify(bench, case, tmp_path / "jobs2.json", jobs=2)
        bench.check(case, bench.verify_in_process(case), bench.report_path(case))
        assert one == two == bench.report_path(case).read_bytes()
    assert bench.problems == []
    assert bench.attempted == 3 * len(cases)


@pytest.mark.parametrize("name", NAMES)
def test_non_default_seed_builds_verifies_and_gets_the_expected_verdicts(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    default = Bench(workload, 0, tmp_path / "default")
    bench = Bench(workload, 5, tmp_path / "seed5")
    for b in (default, bench):
        b.work.mkdir()
    cases = bench.setup()
    default_cases = default.setup()
    if workload.mutants:
        assert [c.key for c in cases] != [c.key for c in default_cases]
        # Every pool mutant has a recorded failing report, at every seed.
        assert all(workload.golden_report(bench.golden, c.key) for c in cases)
    else:
        assert cases[0].circuit.read_bytes() != default_cases[0].circuit.read_bytes()
    for case in cases:
        bench.check(case, bench.verify_in_process(case), bench.report_path(case))
    assert bench.problems == []
    assert bench.attempted == len(cases)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_gives_every_layer_metric_and_the_same_reports(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    bench = Bench(workload, 0, tmp_path)
    metrics, detail = bench.traced(seconds=0)
    assert bench.problems == []
    assert bench.failed == 0
    assert [m["name"] for m in DECLARED["per_layer"] if m["name"] not in metrics] == []
    calls = workload.entries() * max(workload.mutants, 1)
    if workload.exhaustive:
        assert metrics["sim.check_phase_calls"] == calls
        assert metrics["harness.xof_bytes_hashed"] == 0
    else:
        assert metrics["sim.run_calls"] == calls
        assert 0 < metrics["harness.xof_useful_ratio"] < 1
    assert (metrics["sim.failing_tests"] > 0) == bool(workload.mutants)
    assert metrics["builders.gates_emitted"] > 0
    # Layer self times plus the harness's own account for the root spans.
    spans = detail["spans_last_pass"]
    roots = sum(e - s for _, s, e, parent, _ in spans if parent < 0)
    layers = ("cli", "circuit", "harness", "curve", "sim", "trace")
    assert sum(layer_totals(spans).get(layer, 0.0) for layer in layers) == pytest.approx(roots)


def test_measure_reports_every_end_to_end_metric(tmp_path):
    bench = Bench(tiny(WORKLOADS["p11-sampled"]), 0, tmp_path)
    metrics, detail = bench.measure(seconds=0)
    assert sorted(metrics) == sorted(m["name"] for m in DECLARED["end_to_end"])
    assert all(value > 0 for value in metrics.values())
    assert bench.attempted == len(detail["invocations"]) >= 3
    assert bench.failed == 0 and bench.problems == []


def test_checks_catch_a_tampered_report_and_a_golden_mismatch(tmp_path):
    golden = load_golden()
    workload = replace(WORKLOADS["p11-mutants"], mutants=1)
    entry = golden[workload.name]["reports"][str(workload.mutation_seeds(0, golden)[0])]
    entry["digest"] = "0" * 64
    bench = Bench(workload, 0, tmp_path, golden=golden)
    [case] = bench.setup()
    bench.check(case, bench.verify_in_process(case), bench.report_path(case))
    assert bench.failed == 1
    assert any("golden digest" in p for p in bench.problems)

    report = bench.report_path(case)
    report.write_bytes(report.read_bytes().replace(b'"verdict": "fail"', b'"verdict": "pass"'))
    bench.problems.clear()
    bench.check(case, 1, report)
    assert bench.failed == 2
    assert any("does not match the report body" in p for p in bench.problems)
    assert any("verdict pass" in p for p in bench.problems)


@pytest.mark.parametrize("curve", sorted(CURVES))
def test_base_points_have_full_order(curve):
    p, b, _, order = CURVES[curve]
    assert point_count(curve) == {11: 12, 61: 61, 1009: 1029}[p]
    assert multiple(curve, order) is None
    assert all(multiple(curve, m) is not None for m in range(1, order))
    for k in full_order_scalars(curve):
        x, y = multiple(curve, k)
        assert (y * y - x**3 - b) % p == 0


def test_benchmark_json_names_the_workloads_defined_here():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p11-sampled", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
