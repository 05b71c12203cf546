"""The package's export table: every public name resolves to one home."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import kickmix


def test_every_public_name_resolves_to_the_object_its_home_module_defines() -> None:
    homes = [(module, name) for module, names in kickmix._EXPORTS.items() for name in names]
    assert len(homes) == len({name for _, name in homes})  # no name has two homes
    assert sorted(kickmix.__all__) == sorted([name for _, name in homes] + ["__version__"])
    for module, name in homes:
        home = importlib.import_module(f"kickmix.{module}")
        assert name in home.__all__, (module, name)
        assert getattr(kickmix, name) is getattr(home, name), (module, name)
    for name in kickmix.__all__:
        assert getattr(kickmix, name) is not None


# Run in a fresh interpreter, in which no kickmix submodule is loaded yet.
_CHILD = """
import json, sys, kickmix
names = dir(kickmix)
loaded = sorted(name for name in sys.modules if name.startswith("kickmix."))
sim = kickmix.sim
print(json.dumps([names, loaded, sim.__name__, "kickmix.sim" in sys.modules,
                  kickmix.sim is sim, hasattr(kickmix, "nosuch")]))
"""


def test_a_submodule_is_reached_without_an_import_and_dir_names_every_export() -> None:
    src = str(Path(kickmix.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", _CHILD],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names, loaded, name, imported, kept, unknown = json.loads(done.stdout)
    assert loaded == []  # dir() imports nothing
    assert (name, imported, kept, unknown) == ("kickmix.sim", True, True, False)
    assert {*kickmix.__all__, *kickmix._EXPORTS} <= set(names) and names == sorted(names)


def test_the_point_encoding_lives_in_curve_only() -> None:
    import kickmix.builders as builders
    import kickmix.curve as curve

    assert kickmix._HOME["encode_point"] == kickmix._HOME["decode_point"] == "curve"
    assert {"encode_point", "decode_point"} <= set(curve.__all__)
    assert not {"encode_point", "decode_point"} & set(builders.__all__)
    assert not hasattr(builders, "decode_point")
    for gone in ("FieldElement", "mod_inverse"):
        assert gone not in kickmix.__all__ and not hasattr(curve, gone)


def test_the_point_text_lives_in_curve_only_and_the_branch_verdict_is_a_lane() -> None:
    import kickmix.cli as cli
    import kickmix.harness as harness
    import kickmix.sim as sim

    assert kickmix._HOME["format_point"] == kickmix._HOME["parse_point"] == "curve"
    assert not hasattr(cli, "format_point") and not hasattr(harness, "format_point")
    assert "BranchInvariant" not in kickmix.__all__ and not hasattr(sim, "BranchInvariant")
    adder = kickmix.build_adder(2).circuit
    verdict = kickmix.check_phase_all_branches(adder, {"a": 3, "b": 1})
    assert type(verdict) is kickmix.LaneResult
    assert verdict.phase_always_plus_one is True and verdict.outputs["b"] == 0
    assert "phase" not in verdict._fields
    # the verdict is read from the lane pass, with no per-lane view beside it
    assert "run_lanes" not in kickmix.__all__ and not hasattr(sim, "run_lanes")
    assert not hasattr(harness.Transcript, "measurement_word")


def test_names_that_nothing_calls_are_gone() -> None:
    import kickmix.circuit as circuit
    import kickmix.curve as curve
    import kickmix.harness as harness

    for module, name in ((harness, "achieved_security_bits"), (curve, "registry_names")):
        assert name not in kickmix.__all__ and name not in module.__all__
        assert not hasattr(module, name)
    assert not hasattr(circuit.StaticResources, "as_dict")


def test_the_readme_python_quickstart_runs() -> None:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```", 1)[0], "README.md", "exec"), {})
