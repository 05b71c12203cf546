"""The package's export table: every public name resolves to one home."""

from __future__ import annotations

import importlib
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


def test_the_readme_python_quickstart_runs() -> None:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```", 1)[0], "README.md", "exec"), {})
