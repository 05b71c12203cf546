"""Elliptic curve arithmetic over prime fields, affine coordinates.

This module is the classical oracle the rest of the package checks circuits
against.  It implements short Weierstrass curves y^2 = x^3 + a*x + b over F_p
with the chord-and-tangent group law on plain ints, double-and-add scalar
multiplication, exhaustive point enumeration for small fields, the
"xy-allones-identity" packing of a point into a register (encode_point and
decode_point), and the one text spelling of a point, "inf" or "x,y"
(format_point and parse_point).  Everything here is pure and immutable;
there is no circuit or simulator dependency.

A small registry of named curves ships with the package: three toy curves
with b = 7 (primes 11, 61 and 1009) whose generators were fixed once by
enumerating all points and picking the smallest point of maximal order, plus
the full-size secp256k1 parameters.  Extra curves can be merged in through a
JSON file named by the KICKMIX_CURVE_REGISTRY environment variable.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

from .circuit import _shown

__all__ = [
    "CurvePoint",
    "CurveParams",
    "INFINITY",
    "is_probable_prime",
    "is_on_curve",
    "point_neg",
    "point_add",
    "scalar_mul",
    "encode_point",
    "decode_point",
    "format_point",
    "parse_point",
    "enumerate_points",
    "named_curve",
    "registry_names",
    "CURVE_REGISTRY_ENV",
]

CURVE_REGISTRY_ENV = "KICKMIX_CURVE_REGISTRY"


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set.

    Deterministic for n < 3.3e24; for larger n (e.g. secp256k1's field prime)
    the same witnesses give an astronomically small error probability.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CurvePoint:
    """A point on a curve: affine coordinates, or the point at infinity.

    The identity is represented by x = y = None; use the module-level
    INFINITY constant rather than constructing it by hand.
    """

    x: int | None
    y: int | None

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ValueError("either both coordinates are None (infinity) or neither")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x}, {self.y})"


INFINITY = CurvePoint(None, None)


@dataclass(frozen=True)
class CurveParams:
    """Parameters of y^2 = x^3 + a*x + b over F_p with a distinguished generator.

    `order` is the order of the generator (the size of the subgroup it
    generates), not necessarily the number of points on the curve.
    Construction validates primality of p, non-singularity, that G lies on
    the curve, and that order * G is the identity.
    """

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    order: int

    def __post_init__(self) -> None:
        if not is_probable_prime(self.p):
            raise ValueError(f"curve modulus {self.p} is not prime")
        if (4 * pow(self.a, 3, self.p) + 27 * pow(self.b, 2, self.p)) % self.p == 0:
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0 mod p")
        if self.order < 1:
            raise ValueError(f"generator order must be positive, got {self.order}")
        if not is_on_curve(self.generator, self):
            raise ValueError(f"generator ({self.gx}, {self.gy}) is not on the curve")
        if not scalar_mul(self.order, self.generator, self).is_infinity:
            raise ValueError(f"order {self.order} does not annihilate the generator")
        # `order` must be the exact order, not just a multiple of it.  Small
        # orders are walked outright; a prime order is already exact because
        # the generator is not the identity.  (A huge composite order cannot
        # be checked for minimality without factoring it; none of the
        # built-in curves are in that regime.)
        if self.order <= (1 << 20):
            point = self.generator
            true_order = 1
            while not point.is_infinity:
                point = point_add(point, self.generator, self)
                true_order += 1
            if true_order != self.order:
                raise ValueError(
                    f"generator has order {true_order}, not {self.order}"
                )

    @property
    def generator(self) -> CurvePoint:
        return CurvePoint(self.gx, self.gy)

    @property
    def coordinate_bits(self) -> int:
        """Bits needed to hold one coordinate: ceil(log2 p)."""
        return self.p.bit_length()


def is_on_curve(point: CurvePoint, curve: CurveParams) -> bool:
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    if not (0 <= x < curve.p and 0 <= y < curve.p):
        return False
    return (y * y - (x * x * x + curve.a * x + curve.b)) % curve.p == 0


def point_neg(point: CurvePoint, curve: CurveParams) -> CurvePoint:
    if point.is_infinity:
        return INFINITY
    return CurvePoint(point.x, (-point.y) % curve.p)


def point_add(p1: CurvePoint, p2: CurvePoint, curve: CurveParams) -> CurvePoint:
    """Chord-and-tangent addition with explicit identity/inverse/doubling cases."""
    for pt in (p1, p2):
        if not is_on_curve(pt, curve):
            raise ValueError(f"{_shown(pt)} is not on curve {curve.name}")
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    p, x1, y1, x2, y2 = curve.p, p1.x, p1.y, p2.x, p2.y
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return INFINITY  # p2 is the inverse of p1 (covers the 2-torsion y = 0 case)
        lam = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, p)  # on the curve, so p1 == p2
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p)
    x3 = (lam * lam - x1 - x2) % p
    return CurvePoint(x3, (lam * (x1 - x3) - y1) % p)


def scalar_mul(k: int, point: CurvePoint, curve: CurveParams) -> CurvePoint:
    """k * point by double-and-add.  Negative k multiplies by the inverse point."""
    if k < 0:
        return scalar_mul(-k, point_neg(point, curve), curve)
    result = INFINITY
    addend = point
    while k:
        if k & 1:
            result = point_add(result, addend, curve)
        addend = point_add(addend, addend, curve)
        k >>= 1
    return result


def encode_point(point: CurvePoint, coordinate_bits: int) -> int:
    """Pack a point into 2*coordinate_bits little-endian bits, x low: the
    layout circuit metadata names "encoding xy-allones-identity".

    The identity is the all-ones pair, which is never a field element as
    long as p < 2^coordinate_bits - 1."""
    ones = (1 << coordinate_bits) - 1
    if point.is_infinity:
        return ones | (ones << coordinate_bits)
    return point.x | (point.y << coordinate_bits)


def decode_point(value: int, coordinate_bits: int) -> CurvePoint:
    """The inverse of encode_point."""
    ones = (1 << coordinate_bits) - 1
    x = value & ones
    y = (value >> coordinate_bits) & ones
    if x == ones and y == ones:
        return INFINITY
    return CurvePoint(x, y)


def format_point(point: CurvePoint) -> str:
    """The text of a point: "inf", or "x,y" in decimal."""
    return "inf" if point.is_infinity else f"{point.x},{point.y}"


def parse_point(text: str) -> CurvePoint:
    """The point whose format_point is exactly text; any other spelling
    (a sign, a leading zero, a space, a non-ASCII digit) is a ValueError."""
    if text == "inf":
        return INFINITY
    x, _, y = text.partition(",")
    if x.isdecimal() and y.isdecimal():
        point = CurvePoint(int(x), int(y))
        if format_point(point) == text:
            return point
    raise ValueError(f"not a point: {_shown(text)!r}")


def enumerate_points(curve: CurveParams, limit: int = 1 << 16) -> list[CurvePoint]:
    """All points on the curve, infinity first, then sorted by (x, y).

    Refuses fields with p > limit (default 2^16): enumeration is meant for
    toy curves, not cryptographic ones.  The count is checked against the
    Hasse bound |N - (p + 1)| <= 2*sqrt(p) before returning.
    """
    if curve.p > limit:
        raise ValueError(
            f"prime too large to enumerate: p={curve.p} exceeds limit {limit}"
        )
    roots: dict[int, list[int]] = {}
    for y in range(curve.p):
        roots.setdefault(y * y % curve.p, []).append(y)
    points = [INFINITY]
    for x in range(curve.p):
        rhs = (x * x * x + curve.a * x + curve.b) % curve.p
        for y in roots.get(rhs, ()):
            points.append(CurvePoint(x, y))
    n = len(points)
    if abs(n - (curve.p + 1)) > math.isqrt(4 * curve.p):
        raise AssertionError(
            f"point count {n} violates the Hasse bound for p={curve.p}"
        )
    return points


# Toy generators were fixed once from enumerate_points: the smallest (x, y)
# of maximal order.  tests/test_curve.py re-derives them from scratch.
_BUILTIN = {
    "toy-p11-b7": dict(p=11, a=0, b=7, gx=4, gy=4, order=12),
    "toy-p61-b7": dict(p=61, a=0, b=7, gx=2, gy=25, order=61),
    "toy-p1009-b7": dict(p=1009, a=0, b=7, gx=1, gy=131, order=147),
    "secp256k1": dict(
        p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
        a=0,
        b=7,
        gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
        order=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    ),
}

# toy-pN names toy-pN-b7
_ALIASES = {name.removesuffix("-b7"): name for name in _BUILTIN if name.startswith("toy-")}

_CURVE_FIELDS = ["a", "b", "gx", "gy", "order", "p"]


def _external_registry() -> dict[str, dict]:
    """The curves of the KICKMIX_CURVE_REGISTRY file, if it is set; a file that does
    not map names to objects of exactly the integers _CURVE_FIELDS is a ValueError."""
    path = os.environ.get(CURVE_REGISTRY_ENV)
    if not path:
        return {}
    where = f"{CURVE_REGISTRY_ENV} file {path!r}"
    try:
        with open(path, "rb") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{where} cannot be read: {exc.strerror}") from None
    except (ValueError, RecursionError):  # not JSON
        raw = None
    if type(raw) is not dict or not all(
        type(fields) is dict and sorted(fields) == _CURVE_FIELDS
        and all(type(value) is int for value in fields.values())
        for fields in raw.values()
    ):
        raise ValueError(
            f"{where} must hold a JSON object mapping each curve name to an object "
            f"of the integers {', '.join(_CURVE_FIELDS)}"
        )
    return raw


def registry_names() -> list[str]:
    """Names of all known curves (built-in plus any external registry)."""
    return sorted({**_BUILTIN, **_external_registry()})


def named_curve(name: str) -> CurveParams:
    """Look up a curve by registry name (a few aliases are accepted)."""
    canonical = _ALIASES.get(name, name)
    table = {**_BUILTIN, **_external_registry()}
    if canonical not in table:
        raise ValueError(
            f"unknown curve {_shown(name)!r}; known: {', '.join(sorted(table))}"
        )
    return _checked_curve(canonical, *(table[canonical][f] for f in _CURVE_FIELDS))


@functools.lru_cache(maxsize=64)
def _checked_curve(
    name: str, a: int, b: int, gx: int, gy: int, order: int, p: int
) -> CurveParams:
    """CurveParams validated once per name and field values (a ValueError is
    not cached, so a bad registry entry is refused on every lookup)."""
    return CurveParams(name=name, p=p, a=a, b=b, gx=gx, gy=gy, order=order)
