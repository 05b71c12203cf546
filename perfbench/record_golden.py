"""Record golden.json: the report digests the benchmark's inputs must keep.

    python3 perfbench/record_golden.py

Run it only on a commit whose report bytes are the reference, and only when
a change to the report format is deliberate; any other change of a digest
is a bug in the change, not in the golden file.

For each clean workload it records the report of the default seed's
circuit.  For the mutant workload it verifies mutation seeds 0, 1, 2, ...
of the p11 circuit and keeps the first POOL_SIZE that the verifier
rejects; run.py picks its mutants from that pool, so every seed of the
mutant workload has known failing reports.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from run import OUT, Bench
from workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS

POOL_SIZE = 96
CANDIDATES = 128


def _report(bench: Bench, case) -> dict:
    bench.verify_in_process(case)
    data = json.loads(bench.report_path(case).read_bytes())
    return {"digest": data["report_digest"], "failures": data["failures"], "verdict": data["verdict"]}


def record(workload, work: Path) -> dict:
    if not workload.mutants:
        bench = Bench(workload, DEFAULT_SEED, work, golden={})
        [case] = bench.setup()
        report = _report(bench, case)
        reports = {str(case.key): {"digest": report["digest"], "failures": report["failures"]}}
        return {"spec": workload.spec(), "reports": reports}

    candidates = {str(ms): {} for ms in range(CANDIDATES)}
    golden = {workload.name: {"spec": workload.spec(), "reports": candidates}}
    bench = Bench(replace(workload, mutants=CANDIDATES), 0, work, golden=golden)
    reports, survivors = {}, []
    for case in bench.setup():
        report = _report(bench, case)
        if report["verdict"] == "pass":
            survivors.append(case.key)
        elif len(reports) < POOL_SIZE:
            reports[str(case.key)] = {"digest": report["digest"], "failures": report["failures"]}
    print(f"{workload.name}: mutation seeds passing verification: {survivors}", file=sys.stderr)
    if len(reports) < POOL_SIZE:
        raise SystemExit(f"only {len(reports)} rejected mutants among {CANDIDATES} seeds")
    return {"spec": workload.spec(), "reports": reports}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    golden = {}
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=OUT) as work:
            golden[name] = record(workload, Path(work))
        print(f"{name}: recorded {len(golden[name]['reports'])} report(s)", file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
