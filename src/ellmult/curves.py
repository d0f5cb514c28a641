"""Exact arithmetic on short Weierstrass curves y^2 = x^3 + A*x + B over Q.

Coordinates are Fractions in lowest terms; nothing in this module rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import InternalInvariantError, OffCurve, SingularCurve
from .factorization import factor_int

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class Curve:
    """Immutable curve data; discriminant and j are computed once at construction."""

    A: int
    B: int
    discriminant: int
    j: Fraction

    def __repr__(self) -> str:
        return f"Curve(A={self.A}, B={self.B})"


@dataclass(frozen=True)
class RatPoint:
    """Affine rational point or the point at infinity (x is None)."""

    x: Optional[Fraction]
    y: Optional[Fraction]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "RatPoint(infinity)"
        return f"RatPoint({self.x}, {self.y})"


INFINITY = RatPoint(None, None)


def rational_point(x: Rational, y: Rational) -> RatPoint:
    """Build an affine point with Fraction coordinates."""
    return RatPoint(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class CurveHeight:
    """Height of a curve: max of the j-height and the log of the scaled coefficients."""

    value: float
    j_term: float
    coefficient_term: float

    def __float__(self) -> float:
        return self.value


def make_curve(A: int, B: int) -> Curve:
    """Validate integrality and smoothness, return the curve with cached invariants."""
    if not isinstance(A, int) or not isinstance(B, int):
        raise TypeError("coefficients must be integers")
    d0 = 4 * A**3 + 27 * B**2
    if d0 == 0:
        raise SingularCurve(f"4*{A}^3 + 27*{B}^2 = 0")
    disc = -16 * d0
    j = Fraction(1728 * 4 * A**3, d0)
    return Curve(A, B, disc, j)


def _log_height(q: Fraction) -> float:
    """log max(|numerator|, |denominator|) of a lowest-terms rational."""
    m = max(abs(q.numerator), q.denominator)
    return 0.0 if m == 1 else math.log(m)


def curve_height(c: Curve) -> CurveHeight:
    """h(E) = max(h(j), log max(4|A|, 4|B|)); always at least 2*log(2)."""
    j_term = _log_height(c.j)
    coeff_term = math.log(max(4 * abs(c.A), 4 * abs(c.B)))
    value = max(j_term, coeff_term)
    if value < 2 * math.log(2) - 1e-12:
        raise InternalInvariantError(f"h(E) = {value} is below 2 log 2")
    return CurveHeight(value, j_term, coeff_term)


def on_curve(c: Curve, P: RatPoint) -> bool:
    """True iff P is the point at infinity or satisfies y^2 = x^3 + A*x + B."""
    if P.is_infinity:
        return True
    return P.y * P.y == P.x**3 + c.A * P.x + c.B


def _require_on_curve(c: Curve, P: RatPoint) -> None:
    if not on_curve(c, P):
        raise OffCurve(f"{P} does not lie on {c}")


def negate(P: RatPoint) -> RatPoint:
    if P.is_infinity:
        return INFINITY
    return RatPoint(P.x, -P.y)


def add(c: Curve, P: RatPoint, Q: RatPoint) -> RatPoint:
    """Chord-tangent sum of two points on c."""
    _require_on_curve(c, P)
    _require_on_curve(c, Q)
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        # tangent line; y != 0 here since y = -y was excluded
        lam = (3 * P.x * P.x + c.A) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return RatPoint(x3, y3)


def multiply(c: Curve, n: int, P: RatPoint) -> RatPoint:
    """n*P by double-and-add; n may be negative or zero."""
    _require_on_curve(c, P)
    if n == 0 or P.is_infinity:
        return INFINITY
    if n < 0:
        n, P = -n, negate(P)
    result = INFINITY
    base = P
    while n:
        if n & 1:
            result = add(c, result, base)
        n >>= 1
        if n:
            base = add(c, base, base)
    return result


def quasi_minimalize(c: Curve) -> Tuple[Curve, int]:
    """Strip every prime p with p^4 | A and p^6 | B (a zero coefficient puts no constraint).

    Returns the reduced curve and the total scaling factor u, so that the input
    is the image of the output under (A, B) -> (u^4*A, u^6*B).
    """
    A, B, u = c.A, c.B, 1
    while True:
        if A == 0 and B == 0:
            raise SingularCurve("zero curve")
        if A == 0:
            candidates = [p for p, e in factor_int(B).items() if e >= 6]
        elif B == 0:
            candidates = [p for p, e in factor_int(A).items() if e >= 4]
        else:
            g = math.gcd(abs(A), abs(B))
            candidates = [p for p in factor_int(g)] if g > 1 else []
        progressed = False
        for p in candidates:
            while (A == 0 or A % p**4 == 0) and (B == 0 or B % p**6 == 0):
                A //= p**4
                B //= p**6
                u *= p
                progressed = True
        if not progressed:
            break
    if u == 1:
        return c, 1
    return make_curve(A, B), u


def scale_point(P: RatPoint, u: int) -> RatPoint:
    """Map a point of (u^4*A, u^6*B) to the reduced curve: (x, y) -> (x/u^2, y/u^3)."""
    if P.is_infinity:
        return INFINITY
    return RatPoint(P.x / u**2, P.y / u**3)
