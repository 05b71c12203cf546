"""Span recording around kickmix's module boundaries, from outside ``src/``.

The recorder wraps the public functions that ``kickmix.harness`` and
``kickmix.cli`` call into the other modules, by replacing the names those
modules imported, for as long as an :func:`instrument` block is open.
Nothing in the package changes and the report bytes must not either; the
benchmark checks that a traced call writes the same report as an
untraced one.

A span is ``[name, start, end, parent, call]``: ``name`` is
``<layer>.<function>`` with the layer named after the package module,
``parent`` is the index of the enclosing span (-1 for a root), and every
span under one root carries that root's ``call`` id.  Spans stay in
memory until the benchmark writes them out at exit.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call = 0
        self._stack: list[int] = []
        # Per-pass counters, filled by the hooks below.
        self.counts: dict[str, int] = {}
        self.scalar_args: list[tuple] = []
        self.measurements = 0

    def wrap(self, name, fn, hook=None):
        """fn inside a span; hook(args, result) runs after the span closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.call]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def root(self, name, fn, *args):
        """Run fn(*args) as a new root span with a fresh call id."""
        self.call += 1
        return self.wrap(name, fn)(*args)

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def reset_pass(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.scalar_args.clear()


class _CountingXof:
    """A shake_256 object that counts output bytes asked for and bytes new
    to the caller (the high-water mark of each stream)."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer
        self._high = 0

    def digest(self, length: int) -> bytes:
        self._tracer.add("xof_hashed", length)
        if length > self._high:
            self._tracer.add("xof_used", length - self._high)
            self._high = length
        return self._real.digest(length)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _HashlibShim:
    """Stands in for the ``hashlib`` module inside ``kickmix.harness``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def shake_256(self, *args, **kwargs):
        return _CountingXof(hashlib.shake_256(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(hashlib, name)


@contextmanager
def _patched(replacements):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, new in replacements:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


@contextmanager
def instrument(tracer: Tracer):
    """Record spans for every boundary the CLI's build and verify cross."""
    import kickmix.builders as builders
    import kickmix.cli as cli
    import kickmix.curve as curve
    import kickmix.harness as harness

    w = tracer.wrap

    def count_measurements(circuit) -> None:
        tracer.measurements = sum(1 for gate in circuit.gates if gate.kind == "MX")

    def on_parse(args, circuit) -> None:
        tracer.add("parse_bytes", len(args[0]))
        w("trace.bookkeeping", count_measurements)(circuit)

    def on_run(args, result) -> None:
        tracer.add("run_calls", 1)
        tracer.add("gates_executed", result.executed_total)

    def on_scalar_mul(args, result) -> None:
        tracer.add("oracle_calls", 1)
        tracer.scalar_args.append((args[0], args[1]))

    def on_verify(args, report) -> None:
        tracer.add("failing_tests", report.data["failures"])

    original_bits = harness.Transcript.measurement_bits

    def measurement_bits(transcript, index):
        # Draw the bits the test will use inside this span; the rest of the
        # same stream follows, so the simulator sees identical bits.
        stream = original_bits(transcript, index)
        drawn = list(itertools.islice(stream, tracer.measurements))
        return itertools.chain(drawn, stream)

    replacements = [
        (cli, "verify", w("harness.verify", cli.verify, on_verify)),
        (cli, "verify_exhaustive", w("harness.verify", cli.verify_exhaustive, on_verify)),
        (cli, "serialize", w("circuit.serialize", cli.serialize)),
        (harness, "hashlib", _HashlibShim(tracer)),
        (harness, "parse", w("circuit.parse", harness.parse, on_parse)),
        (harness, "static_resources", w("circuit.static_resources", harness.static_resources)),
        (harness, "_derive", w("harness.derive", harness._derive)),
        (harness.Transcript, "measurement_bits", w("harness.bitstream", measurement_bits)),
        (harness.VerificationReport, "to_json_bytes",
         w("harness.serialize", harness.VerificationReport.to_json_bytes,
           lambda args, data: tracer.add("report_bytes", len(data)))),
        (harness, "scalar_mul", w("curve.scalar_mul", harness.scalar_mul, on_scalar_mul)),
        (harness, "point_add", w("curve.point_add", harness.point_add,
                                 lambda args, result: tracer.add("oracle_calls", 1))),
        # verify_exhaustive imports enumerate_points from kickmix.curve when called.
        (curve, "enumerate_points", w("curve.enumerate_points", curve.enumerate_points)),
        (harness, "run", w("sim.run", harness.run, on_run)),
        (harness, "check_phase_all_branches",
         w("sim.check_phase", harness.check_phase_all_branches,
           lambda args, result: tracer.add("check_phase_calls", 1))),
        (builders, "build_pointadd_permutation",
         w("builders.build", builders.build_pointadd_permutation,
           lambda args, report: tracer.add("gates_emitted", len(report.circuit.gates)))),
        (builders, "build_windowed_pointadd",
         w("builders.build", builders.build_windowed_pointadd,
           lambda args, report: tracer.add("gates_emitted", len(report.circuit.gates)))),
    ]
    with _patched(replacements):
        yield


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Self time summed per span name, plus per layer under the layer name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        layer = name.split(".", 1)[0]
        totals[name] = totals.get(name, 0.0) + own
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def root_time(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def percentile(values: list[float], q: float) -> float:
    """Value at quantile q (0 < q < 1), interpolated between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(count: int) -> float:
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    for q in (0.999, 0.99, 0.95, 0.9, 0.75):
        if count * (1 - q) >= 10:
            return q
    return 0.5
