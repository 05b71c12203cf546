"""Curve arithmetic checked against enumeration and hand-computed values.

The group-law tests treat the chord-and-tangent formulas as the thing under
test: expected values come from either hand-worked arithmetic on the
11-point toy curve or from brute-force enumeration of the whole group, never
from the functions being tested.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from kickmix import (
    INFINITY,
    CurveParams,
    CurvePoint,
    decode_point,
    encode_point,
    enumerate_points,
    format_point,
    is_on_curve,
    named_curve,
    parse_point,
    point_add,
    point_neg,
    scalar_mul,
)
import kickmix.curve as curve_module
from kickmix.curve import CURVE_REGISTRY_ENV, is_probable_prime

# Multiples of G = (4, 4) on y^2 = x^3 + 7 over F_11, worked by hand:
#   2G: lam = 3*16 / 8 = 48/8 = 4*8^-1 = 4*7 = 28 = 6; x = 36-8 = 28 = 6,
#       y = 6*(4-6)-4 = -16 = 6          -> (6, 6)
#   3G = 2G + G: lam = (4-6)/(4-6) = 1; x = 1-6-4 = -9 = 2, y = 1*(6-2)-6 = 9
#   4G = 3G + G: lam = (4-9)/(4-2) = -5/2 = 6*6 = 3; x = 9-2-4 = 3,
#       y = 3*(2-3)-9 = -12 = 10         -> (3, 10)
#   6G = 3G + 3G: lam = 3*4/18 = 12*7^-1 = 1*8 = 8; x = 64-4 = 60 = 5,
#       y = 8*(2-5)-9 = -33 = 0          -> (5, 0), the 2-torsion point
_P11_MULTIPLES = {
    1: (4, 4),
    2: (6, 6),
    3: (2, 9),
    4: (3, 10),
    6: (5, 0),
}


def test_hand_computed_multiples_on_the_11_point_curve(toy11) -> None:
    for k, (x, y) in _P11_MULTIPLES.items():
        assert scalar_mul(k, toy11.generator, toy11) == CurvePoint(x, y)
    assert scalar_mul(12, toy11.generator, toy11) is INFINITY
    assert scalar_mul(0, toy11.generator, toy11) is INFINITY


def test_two_torsion_point_doubles_to_infinity(toy11) -> None:
    half = CurvePoint(5, 0)
    assert point_add(half, half, toy11).is_infinity
    assert point_neg(half, toy11) == half


def test_negative_scalar_multiplies_the_inverse_point(toy11) -> None:
    for k in range(-12, 13):
        expected = scalar_mul(abs(k), point_neg(toy11.generator, toy11), toy11)
        if k >= 0:
            expected = scalar_mul(k, toy11.generator, toy11)
        assert scalar_mul(k, toy11.generator, toy11) == expected


def test_group_closure_commutativity_identity_inverse(toy11) -> None:
    points = enumerate_points(toy11)
    assert len(points) == 12
    for p1 in points:
        assert point_add(p1, INFINITY, toy11) == p1
        assert point_add(INFINITY, p1, toy11) == p1
        assert point_add(p1, point_neg(p1, toy11), toy11).is_infinity
        for p2 in points:
            total = point_add(p1, p2, toy11)
            assert is_on_curve(total, toy11)
            assert total == point_add(p2, p1, toy11)


def test_group_associativity_over_all_triples(toy11) -> None:
    points = enumerate_points(toy11)
    for p1 in points:
        for p2 in points:
            left_partial = point_add(p1, p2, toy11)
            for p3 in points:
                left = point_add(left_partial, p3, toy11)
                right = point_add(p1, point_add(p2, p3, toy11), toy11)
                assert left == right


def test_chord_addition_result_is_collinear_with_inputs(toy11) -> None:
    # For distinct, non-inverse p1 and p2, the points p1, p2 and -(p1 + p2)
    # lie on one line; the 3x3 determinant |x y 1| vanishes mod p.
    points = [pt for pt in enumerate_points(toy11) if not pt.is_infinity]
    checked = 0
    for p1 in points:
        for p2 in points:
            if p1 == p2 or point_add(p1, p2, toy11).is_infinity:
                continue
            p3 = point_neg(point_add(p1, p2, toy11), toy11)
            det = (
                p1.x * (p2.y - p3.y)
                - p1.y * (p2.x - p3.x)
                + (p2.x * p3.y - p3.x * p2.y)
            )
            assert det % toy11.p == 0
            checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "name,point_count,max_order",
    [("toy-p11-b7", 12, 12), ("toy-p61-b7", 61, 61), ("toy-p1009-b7", 1029, 147)],
)
def test_registry_generator_is_smallest_point_of_maximal_order(
    name: str, point_count: int, max_order: int
) -> None:
    # Re-derive each toy generator from scratch: enumerate the whole curve,
    # walk every point's order by repeated addition, and confirm the registry
    # picked the (x, y)-smallest point among those of maximal order.
    curve = named_curve(name)
    points = enumerate_points(curve)
    assert len(points) == point_count

    orders: dict[CurvePoint, int] = {}
    for pt in points:
        walker, order = pt, 1
        while not walker.is_infinity:
            walker = point_add(walker, pt, curve)
            order += 1
        orders[pt] = order
    best = max(orders.values())
    assert best == max_order
    smallest = min(
        (pt for pt in points if not pt.is_infinity and orders[pt] == best),
        key=lambda pt: (pt.x, pt.y),
    )
    assert smallest == curve.generator
    assert curve.order == best


def test_point_orders_divide_the_group_order(toy1009) -> None:
    points = enumerate_points(toy1009)
    group_order = len(points)
    for pt in points[:40]:
        walker, order = pt, 1
        while not walker.is_infinity:
            walker = point_add(walker, pt, toy1009)
            order += 1
        assert group_order % order == 0
        assert scalar_mul(order, pt, toy1009).is_infinity


def test_enumeration_respects_hasse_bound_and_ordering(toy61) -> None:
    points = enumerate_points(toy61)
    assert points[0] is INFINITY
    finite = points[1:]
    assert finite == sorted(finite, key=lambda pt: (pt.x, pt.y))
    assert abs(len(points) - (toy61.p + 1)) <= 2 * int(toy61.p**0.5) + 1
    assert all(is_on_curve(pt, toy61) for pt in points)


def test_secp256k1_structure(secp) -> None:
    assert secp.coordinate_bits == 256
    assert is_probable_prime(secp.p)
    assert is_probable_prime(secp.order)
    assert is_on_curve(secp.generator, secp)
    # (n - 1) * G must be the inverse of G when G has order n.
    assert scalar_mul(secp.order - 1, secp.generator, secp) == point_neg(
        secp.generator, secp
    )
    with pytest.raises(ValueError, match="prime too large to enumerate"):
        enumerate_points(secp)


def test_enumerate_points_checks_the_hasse_bound() -> None:
    # CurveParams refuses a modulus that is no prime; enumerate_points reads
    # only p, a and b, and y^2 = x^3 + 1 mod 8 has 21 points with infinity.
    bogus = SimpleNamespace(p=8, a=0, b=1)
    with pytest.raises(AssertionError, match="^point count 21 violates the Hasse bound for p=8$"):
        enumerate_points(bogus)


# Published multiples of the secp256k1 generator.
_SECP256K1_MULTIPLES = {
    2: (
        0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
        0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A,
    ),
    3: (
        0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
        0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672,
    ),
}


def test_secp256k1_known_multiples(secp) -> None:
    g = secp.generator
    doubled, tripled = (CurvePoint(*_SECP256K1_MULTIPLES[k]) for k in (2, 3))
    assert point_add(g, g, secp) == doubled  # tangent
    assert point_add(doubled, g, secp) == tripled  # chord
    assert point_add(g, doubled, secp) == tripled
    assert scalar_mul(2, g, secp) == doubled
    assert scalar_mul(3, g, secp) == tripled
    assert scalar_mul(-3, g, secp) == point_neg(tripled, secp)
    assert point_add(tripled, point_neg(tripled, secp), secp) is INFINITY


def test_point_encoding_packs_x_low_then_y(secp) -> None:
    g = secp.generator
    packed = encode_point(g, 256)
    assert packed == g.x + g.y * 2**256
    assert decode_point(packed, 256) == g
    assert encode_point(INFINITY, 256) == 2**512 - 1
    assert decode_point(2**512 - 1, 256) is INFINITY


def test_point_text_round_trips(secp) -> None:
    points = [INFINITY, secp.generator, CurvePoint(*_SECP256K1_MULTIPLES[2])]
    for name in ("toy-p11-b7", "toy-p61-b7"):
        points += enumerate_points(named_curve(name))
    for point in points:
        assert parse_point(format_point(point)) == point
    assert format_point(INFINITY) == "inf"
    assert format_point(CurvePoint(4, 4)) == "4,4"


def test_point_text_has_one_spelling() -> None:
    # no spelling but the one format_point writes, though int() reads most of them
    for text in ("+4,0_4", "4 , 4", "\u0664,\u0664", "04,4", "4,4,4", "4,4\n", "4;4",
                 "-4,4", "4", "", "INF", "(4, 4)"):
        with pytest.raises(ValueError):
            parse_point(text)

def test_named_curve_aliases_and_unknown_name() -> None:
    assert named_curve("toy-p11") == named_curve("toy-p11-b7")
    assert named_curve("toy-p61") == named_curve("toy-p61-b7")
    assert named_curve("toy-p1009") == named_curve("toy-p1009-b7")
    with pytest.raises(ValueError, match="unknown curve 'no-such-curve'"):
        named_curve("no-such-curve")


def test_registry_names_cover_builtins() -> None:
    with pytest.raises(ValueError) as excinfo:
        named_curve("no-such-curve")
    known = str(excinfo.value).split("; known: ")[1].split(", ")
    for expected in ("toy-p11-b7", "toy-p61-b7", "toy-p1009-b7", "secp256k1"):
        assert named_curve(expected).name == expected
        assert expected in known


def test_environment_registry_merges_extra_curves(tmp_path, monkeypatch) -> None:
    extra = {
        "custom-11": {
            "p": 11,
            "a": 0,
            "b": 7,
            "gx": 4,
            "gy": 4,
            "order": 12,
        }
    }
    path = tmp_path / "curves.json"
    path.write_text(json.dumps(extra))
    monkeypatch.setenv(CURVE_REGISTRY_ENV, str(path))
    curve = named_curve("custom-11")
    assert curve.p == 11
    assert curve.generator == CurvePoint(4, 4)


def test_named_curve_validates_once_per_name_and_fields(tmp_path, monkeypatch) -> None:
    checked = []
    init = CurveParams.__init__

    def counting_init(self, **fields):  # _checked_curve passes every field by name
        checked.append((fields["name"], fields["p"]))
        init(self, **fields)

    monkeypatch.setattr(CurveParams, "__init__", counting_init)
    curve_module._checked_curve.cache_clear()
    assert named_curve("toy-p61") is named_curve("toy-p61-b7")
    assert checked == [("toy-p61-b7", 61)]
    # the registry file is read on every call: a changed file takes effect,
    # and a bad one is refused every time
    path = tmp_path / "curves.json"
    monkeypatch.setenv(CURVE_REGISTRY_ENV, str(path))
    toy11 = {"p": 11, "a": 0, "b": 7, "gx": 4, "gy": 4, "order": 12}
    path.write_text(json.dumps({"mine": toy11}))
    assert named_curve("mine").p == named_curve("mine").p == 11
    path.write_text(json.dumps({"mine": {**toy11, "gx": 2, "gy": 2}}))  # (2, 2) has order 4
    with pytest.raises(ValueError, match="generator has order 4, not 12"):
        named_curve("mine")
    path.write_text(json.dumps({"mine": {**toy11, "gx": 2, "gy": 2, "order": 4}}))
    assert named_curve("mine").generator == CurvePoint(2, 2)
    path.write_text("{")
    for _ in range(2):
        with pytest.raises(ValueError, match="must hold a JSON object"):
            named_curve("toy-p61-b7")
    path.write_text(json.dumps({"mine": {**toy11, "p": 12}}))
    for _ in range(2):
        with pytest.raises(ValueError, match="not prime"):
            named_curve("mine")
    assert checked == [("toy-p61-b7", 61), ("mine", 11), ("mine", 11), ("mine", 11),
                       ("mine", 12), ("mine", 12)]


def test_is_probable_prime_matches_trial_division_below_2000() -> None:
    def trial(n: int) -> bool:
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(2000):
        assert is_probable_prime(n) == trial(n), n
    # 561 is the smallest Carmichael number; Fermat tests alone miss it.
    assert not is_probable_prime(561)


def test_point_add_rejects_off_curve_arguments(toy11) -> None:
    with pytest.raises(ValueError, match="is not on curve"):
        point_add(CurvePoint(0, 1), toy11.generator, toy11)
    huge = CurvePoint(10**3000, 5)
    with pytest.raises(ValueError) as excinfo:
        point_add(toy11.generator, huge, toy11)
    assert str(excinfo.value) == "CurvePoint(100000000… is not on curve toy-p11-b7"


def test_doubling_uses_the_linear_coefficient() -> None:
    # P = (3, 6) on y^2 = x^3 + 2x + 3 over F_97, doubled by hand:
    #   lam = (3*9 + 2) / 12 = 29 * 89 = 59 (12 * 89 = 1068 = 11*97 + 1);
    #   x = 59^2 - 6 = 80, y = 59*(3 - 80) - 6 = 10   -> 2P = (80, 10)
    # 2P + P = 3P = -2P makes P an element of order 5.
    curve = CurveParams(name="a2", p=97, a=2, b=3, gx=3, gy=6, order=5)
    doubled = CurvePoint(80, 10)
    assert point_add(curve.generator, curve.generator, curve) == doubled
    assert point_add(doubled, curve.generator, curve) == point_neg(doubled, curve)


def test_curve_point_infinity_needs_both_coordinates_none() -> None:
    with pytest.raises(ValueError, match="both coordinates"):
        CurvePoint(4, None)
    assert CurvePoint(None, None).is_infinity


def test_curve_params_validation() -> None:
    with pytest.raises(ValueError, match="is not prime"):
        CurveParams(name="bad", p=12, a=0, b=7, gx=4, gy=4, order=12)
    with pytest.raises(ValueError, match="singular curve"):
        CurveParams(name="bad", p=11, a=0, b=0, gx=0, gy=0, order=1)
    with pytest.raises(ValueError, match="is not on the curve"):
        CurveParams(name="bad", p=11, a=0, b=7, gx=4, gy=5, order=12)
    with pytest.raises(ValueError, match="does not annihilate"):
        CurveParams(name="bad", p=11, a=0, b=7, gx=4, gy=4, order=11)
    with pytest.raises(ValueError, match="order must be positive"):
        CurveParams(name="bad", p=11, a=0, b=7, gx=4, gy=4, order=0)


def test_curve_params_rejects_multiples_of_the_true_order() -> None:
    # (0, 3) on y^2 = x^3 + 2 over F_7 has exact order 3; declaring a proper
    # multiple also annihilates it but must still be rejected.
    with pytest.raises(ValueError, match="has order 3, not 9"):
        CurveParams(name="bad", p=7, a=0, b=2, gx=0, gy=3, order=9)
    ok = CurveParams(name="ok", p=7, a=0, b=2, gx=0, gy=3, order=3)
    assert ok.coordinate_bits == 3
