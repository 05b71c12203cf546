"""The package's export table: every public name resolves to one home."""

from __future__ import annotations

import importlib

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
