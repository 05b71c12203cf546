"""Benchmark for ``kickmix verify``: one workload, one seed, one run.

    python3 perfbench/run.py --workload p11-sampled --seed 0 --seconds 28 --trace 0

``--trace 0`` drives the CLI as a closed loop: one caller, one
``python -m kickmix verify ... --jobs 1`` process at a time, nothing else
running, for about ``--seconds`` seconds after the set-up.  It reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs the same build
and verify calls in this process through ``kickmix.cli.main``, running each
call untraced and traced in turn, and reports the per-layer metrics.

Every report is checked: exit code, verdict, the number of entries, the
report digest recomputed over the report body, canonical bytes, the same
bytes on every call with the same input, and the digest and failure count
recorded from the seed code in golden.json where one exists for the input.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
the run measured, its context and (traced) its spans go to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from spans import (  # noqa: E402
    Tracer,
    instrument,
    layer_totals,
    percentile,
    root_time,
    self_times,
    tail_quantile,
)
from workloads import DEFAULT_SEED, WORKLOADS, Workload, load_golden  # noqa: E402

SETUP_MIN_REPS = 3
SETUP_SECONDS = 2.0
BUILD_PASSES = 3
STARTUP_REPS = 5
MIN_INVOCATIONS = 3
# What probe() takes at the reference host speed; scaled times are
# "seconds at the speed where the probe takes this long".
PROBE_REFERENCE_S = 0.05


class BenchError(RuntimeError):
    """The run could not produce inputs to measure."""


def import_kickmix():
    """Import the package from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kickmix
    import kickmix.cli

    if Path(kickmix.__file__).resolve().parent != SRC / "kickmix":
        raise BenchError(f"imported kickmix from {kickmix.__file__}, not from {SRC}")
    return kickmix


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU, so that the probe
    measures the speed of the core the verify processes run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe(rounds: int = 300_000) -> float:
    """Seconds a fixed pure-Python bit-flipping loop takes right now.

    Host speed on a shared machine drifts by +-20% over minutes, and that
    drift moves every wall time alike.  Taken before and after each timed
    call on the same CPU, the probe gives the host speed of that moment."""
    bits = [0] * 64
    start = time.perf_counter()
    for i in range(rounds):
        a, b, c = i & 63, (i * 7) & 63, (i * 13) & 63
        if bits[a] and bits[b]:
            bits[c] ^= 1
        else:
            bits[a] ^= 1
    return time.perf_counter() - start


def scaled(walls: list[float], probes: list[float]) -> list[float]:
    """Wall times at the reference host speed: wall i is scaled by the
    mean of the probes taken just before and just after it."""
    return [
        wall * 2 * PROBE_REFERENCE_S / (before + after)
        for wall, before, after in zip(walls, probes, probes[1:])
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KICKMIX_CURVE_REGISTRY", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], log: Path, cwd: Path) -> tuple[float, int, int]:
    """Run the interpreter with args; wall seconds from spawn to exit,
    peak RSS in KiB and exit code."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=subprocess.STDOUT,
            env=child_env(), cwd=cwd,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def canonical(data) -> bytes:
    return (json.dumps(data, sort_keys=True, indent=2) + "\n").encode("utf-8")


@dataclass(frozen=True)
class Case:
    """One circuit to verify and what its report must say."""

    label: str
    circuit: Path
    key: int  # base scalar k, or mutation seed
    expect_pass: bool


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path, golden: dict | None = None):
        self.kickmix = import_kickmix()
        self.w = workload
        self.seed = seed
        self.work = work
        self.golden = load_golden() if golden is None else golden
        self.spec_path = work / "spec.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[str, str] = {}

    # -- set-up ------------------------------------------------------------

    def cli_main(self, args: list[str]) -> int:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return self.kickmix.cli.main(args)

    def setup(self, tracer: Tracer | None = None) -> list[Case]:
        """Write the workload's circuits and spec: ``kickmix build`` through
        the CLI (in this process when traced), then mutants if any."""
        base = self.work / "base.kmx"
        args = self.w.build_args(self.seed, str(base))
        if tracer is None:
            code = spawn(["-m", "kickmix", *args], self.work / "build.log", self.work)[2]
        else:
            code = tracer.root("cli.main", self.cli_main, args)
        if code != 0:
            raise BenchError(f"kickmix {' '.join(args)} exited {code}")
        self.spec_path.write_bytes(canonical(self.w.spec()))
        if not self.w.mutants:
            return [Case("base", base, self.w.base_scalar(self.seed), True)]

        km = self.kickmix
        parse, mutate, serialize = km.parse, km.mutate, km.serialize
        if tracer is not None:
            parse = tracer.wrap("circuit.parse", parse)
            mutate = tracer.wrap("builders.mutate", mutate)
            serialize = tracer.wrap("circuit.serialize", serialize)
        cases = [
            Case(f"m{ms}", self.work / f"m{ms}.kmx", ms, False)
            for ms in self.w.mutation_seeds(self.seed, self.golden)
        ]

        def write_mutants() -> None:
            circuit = parse(base.read_bytes())
            for case in cases:
                case.circuit.write_bytes(serialize(mutate(circuit, case.key)))

        if tracer is None:
            write_mutants()
        else:
            tracer.root("perfbench.mutants", write_mutants)
        return cases

    # -- checks ------------------------------------------------------------

    def check(self, case: Case, code: int, report: Path) -> int:
        """Count one verify call; return its report entries (0 if unusable)."""
        self.attempted += 1
        problems = []
        want_code, want_verdict = (0, "pass") if case.expect_pass else (1, "fail")
        if code != want_code:
            problems.append(f"exit code {code}, expected {want_code}")
        entries = 0
        try:
            raw = report.read_bytes()
            data = json.loads(raw)
            body = dict(data)
            digest = body.pop("report_digest")
            entries = len(data["tests"])
            if canonical(data) != raw:
                problems.append("report bytes are not canonical JSON")
            if hashlib.sha256(canonical(body)).hexdigest() != digest:
                problems.append("report_digest does not match the report body")
            if data["verdict"] != want_verdict:
                problems.append(f"verdict {data['verdict']}, expected {want_verdict}")
            if entries != self.w.entries() or data["test_count"] != entries:
                problems.append(f"{entries} report entries, expected {self.w.entries()}")
            if self._digests.setdefault(case.label, digest) != digest:
                problems.append("report differs from an earlier call on the same input")
            golden = self.w.golden_report(self.golden, case.key)
            if golden is not None:
                if digest != golden["digest"]:
                    problems.append("report_digest differs from the golden digest")
                if data["failures"] != golden["failures"]:
                    problems.append(
                        f"{data['failures']} failing tests, golden {golden['failures']}"
                    )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        if problems:
            self.failed += 1
            self.problems.extend(f"{case.label}: {p}" for p in problems)
        return entries

    def report_path(self, case: Case) -> Path:
        return self.work / f"{case.label}.report.json"

    # -- end to end ----------------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, dict]:
        setup_s, probes = [], [probe()]
        while len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_SECONDS:
            start = time.perf_counter()
            cases = self.setup()
            setup_s.append(time.perf_counter() - start)
            probes.append(probe())
        setup_scaled = scaled(setup_s, probes)

        samples, probes = [], [probe()]
        start = time.perf_counter()
        while True:
            case = cases[len(samples) % len(cases)]
            report = self.report_path(case)
            report.unlink(missing_ok=True)
            args = self.w.verify_args(str(case.circuit), str(self.spec_path), str(report))
            wall, rss_kib, code = spawn(["-m", "kickmix", *args], self.work / "verify.log", self.work)
            probes.append(probe())
            entries = self.check(case, code, report)
            samples.append({"case": case.label, "wall_s": wall, "rss_kib": rss_kib,
                            "entries": entries, "exit": code})
            walls = [s["wall_s"] for s in samples]
            if (len(samples) >= max(MIN_INVOCATIONS, len(cases))
                    and time.perf_counter() - start + median(walls) > seconds):
                break

        verify_scaled = scaled(walls, probes)
        metrics = {
            "verify_s": median(verify_scaled),
            "tests_per_s": median([s["entries"] / t for s, t in zip(samples, verify_scaled)]),
            "setup_s": median(setup_scaled),
            "peak_rss_mb": median([s["rss_kib"] for s in samples]) / 1024,
        }
        detail = {
            "setup_wall_s": setup_s,
            "setup_scaled_s": setup_scaled,
            "invocations": samples,
            "verify_scaled_s": verify_scaled,
            "probes_s": probes,
            "verify_wall_median_s": median(walls),
            "failed_frac": self.failed / self.attempted,
        }
        return metrics, detail

    # -- per layer -----------------------------------------------------------

    def verify_in_process(self, case: Case) -> int:
        report = self.report_path(case)
        report.unlink(missing_ok=True)
        return self.cli_main(self.w.verify_args(str(case.circuit), str(self.spec_path), str(report)))

    def verify_pass(self, cases: list[Case], tracer: Tracer, first: int) -> list[tuple]:
        """Verify every case once untraced and once traced, alternating which
        goes first so that drift in host speed does not land on one side.
        The traced calls leave their spans in tracer.  Returns the seconds
        each case spent inside kickmix.cli.main, as (untraced, traced)."""
        pairs = []
        for i, case in enumerate(cases):
            seconds = {}
            for traced_side in (False, True) if (first + i) % 2 == 0 else (True, False):
                if traced_side:
                    root = len(tracer.spans)
                    with instrument(tracer):
                        code = tracer.root("cli.main", self.verify_in_process, case)
                    seconds[True] = tracer.spans[root][2] - tracer.spans[root][1]
                else:
                    start = time.perf_counter()
                    code = self.verify_in_process(case)
                    seconds[False] = time.perf_counter() - start
                self.check(case, code, self.report_path(case))
            pairs.append((seconds[False], seconds[True]))
        return pairs

    def traced(self, seconds: float) -> tuple[dict, dict]:
        tracer = Tracer()
        builds = []
        with instrument(tracer):
            for _ in range(BUILD_PASSES):
                tracer.reset_pass()
                cases = self.setup(tracer)
                totals = layer_totals(tracer.spans)
                builds.append({
                    "builders.build_s": totals.get("builders", 0.0),
                    "circuit.serialize_s": totals.get("circuit.serialize", 0.0),
                    "builders.gates_emitted": tracer.counts.get("gates_emitted", 0),
                })

        startup = [
            spawn(["-c", "import kickmix.cli"], self.work / "startup.log", self.work)[0]
            for _ in range(STARTUP_REPS)
        ]

        pairs, passes, run_us, probes = [], [], [], []
        start = time.perf_counter()
        while True:
            probes.append(probe())
            tracer.reset_pass()
            pairs += self.verify_pass(cases, tracer, len(passes))
            passes.append(self.pass_metrics(tracer))
            run_us += [(e - s) * 1e6 for name, s, e, _, _ in tracer.spans if name == "sim.run"]
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break

        metrics = {"cli.startup_s": median(startup), "host.probe_s": median(probes)}
        for rows in (builds, passes):
            for key in rows[0]:
                values = [row[key] for row in rows]
                if isinstance(values[0], int):
                    if len(set(values)) != 1:
                        self.problems.append(f"count {key} differs between passes: {values}")
                    metrics[key] = values[0]
                else:
                    metrics[key] = median(values)
        tail_q = tail_quantile(len(run_us))
        metrics["sim.run_us_p50"] = percentile(run_us, 0.5) if run_us else 0.0
        metrics["sim.run_us_tail"] = percentile(run_us, tail_q) if run_us else 0.0
        metrics["trace.overhead_frac"] = median([traced / plain for plain, traced in pairs]) - 1
        detail = {
            "untraced_traced_s": pairs,
            "traced_passes": passes,
            "cli_startup_s": startup,
            "builds": builds,
            "sim_run_tail_quantile": tail_q,
            "spans_last_pass": tracer.spans,
            "failed_frac": self.failed / self.attempted,
        }
        return metrics, detail

    def pass_metrics(self, tracer: Tracer) -> dict:
        spans, counts = tracer.spans, tracer.counts
        totals = layer_totals(spans)
        verify_s = root_time(spans)
        accounted = sum(self_times(spans))
        if abs(accounted - verify_s) > 1e-9 * len(spans) + 1e-6 * verify_s:
            self.problems.append(f"self times sum to {accounted} s, root spans to {verify_s} s")
        scalars = tracer.scalar_args
        run_s = totals.get("sim.run", 0.0)
        hashed = counts.get("xof_hashed", 0)
        return {
            "cli.self_s": totals.get("cli", 0.0),
            "circuit.parse_s": totals.get("circuit.parse", 0.0),
            "circuit.parse_bytes": counts.get("parse_bytes", 0),
            "circuit.static_s": totals.get("circuit.static_resources", 0.0),
            "harness.derive_s": totals.get("harness.derive", 0.0),
            "harness.bitstream_s": totals.get("harness.bitstream", 0.0),
            "harness.xof_bytes_used": counts.get("xof_used", 0),
            "harness.xof_bytes_hashed": hashed,
            "harness.xof_useful_ratio": counts.get("xof_used", 0) / hashed if hashed else 1.0,
            "harness.aggregate_s": totals.get("harness.verify", 0.0),
            "harness.serialize_s": totals.get("harness.serialize", 0.0),
            "harness.report_bytes": counts.get("report_bytes", 0),
            "curve.oracle_s": totals.get("curve", 0.0),
            "curve.oracle_calls": counts.get("oracle_calls", 0),
            "curve.distinct_scalar_ratio": len(set(scalars)) / len(scalars) if scalars else 1.0,
            "sim.run_s": run_s,
            "sim.run_calls": counts.get("run_calls", 0),
            "sim.gates_executed": counts.get("gates_executed", 0),
            "sim.gates_per_s": counts.get("gates_executed", 0) / run_s if run_s else 0.0,
            "sim.check_phase_s": totals.get("sim.check_phase", 0.0),
            "sim.check_phase_calls": counts.get("check_phase_calls", 0),
            "sim.failing_tests": counts.get("failing_tests", 0),
            "trace.self_s": totals.get("trace", 0.0),
            "trace.verify_s": verify_s,
        }


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def context(bench: Bench, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": args.seed == DEFAULT_SEED,
        "base_scalar": bench.w.base_scalar(args.seed),
        "mutation_seeds": bench.w.mutation_seeds(args.seed, bench.golden) if bench.w.mutants else [],
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": platform.platform(),
        "cpu": platform.machine(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "src_lines": src_lines(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kickmix" / "cli.py").is_file():
        print(f"error: no kickmix sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        measured, detail = (bench.traced if args.trace else bench.measure)(args.seconds)
        ctx = context(bench, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": ctx, "metrics": metrics, "problems": bench.problems,
                                  "detail": detail}) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':30s} {bench.failed}/{bench.attempted} verify calls")
    if not args.trace:
        print(f"  {'verify wall median':30s} {detail['verify_wall_median_s']:.6g} s unscaled, "
              f"{len(detail['invocations'])} calls, probe median {median(detail['probes_s']):.6g} s")
    for problem in bench.problems:
        print(f"  problem: {problem}")
    print("context " + json.dumps(ctx, sort_keys=True))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
