"""The names the benchmark in perfbench/ patches must stay where it looks.

perfbench/spans.py times each layer by replacing module globals and class
attributes of the package for the length of an ``instrument`` block.  A
renamed or deleted hook would only show up in the benchmark's own suite,
so this checks, with the package's tests, that every hook exists, is
patched inside the block, is called by a verify run through its module
global, and is restored afterwards.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import kickmix.builders as builders
import kickmix.cli as cli
import kickmix.curve as curve
import kickmix.harness as harness
from kickmix import build_pointadd_permutation, named_curve, serialize, spec_for_circuit

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

HOOKS = [
    *((harness, name) for name in (
        "parse", "static_resources", "_derive", "scalar_mul", "point_add", "run",
        "check_phase_all_branches", "hashlib",
    )),
    (harness.Transcript, "measurement_bits"),
    (harness.VerificationReport, "to_json_bytes"),
    (cli, "verify"),
    (cli, "verify_exhaustive"),
    (cli, "serialize"),
    (curve, "enumerate_points"),
    (builders, "build_pointadd_permutation"),
    (builders, "build_windowed_pointadd"),
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_is_patched_and_restored() -> None:
    spans = _load_spans()
    before = [getattr(owner, name) for owner, name in HOOKS]
    toy = named_curve("toy-p11-b7")
    circuit = build_pointadd_permutation(toy, toy.generator).circuit
    raw, spec = serialize(circuit), spec_for_circuit(circuit, test_count=20)
    untraced = harness.verify(raw, spec).to_json_bytes()

    tracer = spans.Tracer()
    with spans.instrument(tracer):
        patched = [getattr(owner, name) for owner, name in HOOKS]
        traced = harness.verify(raw, spec).to_json_bytes()
    assert [new is not old for new, old in zip(patched, before)] == [True] * len(HOOKS)
    assert [getattr(owner, name) for owner, name in HOOKS] == before

    assert traced == untraced
    names = {span[0] for span in tracer.spans}
    assert {
        "circuit.parse",
        "circuit.static_resources",
        "harness.derive",
        "harness.serialize",
        "curve.scalar_mul",
        "curve.point_add",
    } <= names
    assert tracer.counts["xof_hashed"] > 0
