"""Exact arithmetic on short Weierstrass curves y^2 = x^3 + A*x + B over Q.

Points are given with Fraction coordinates in lowest terms; the group law
works on integer triples.  Nothing in this module rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import InternalInvariantError, OffCurve, SingularCurve
from .factorization import factor_int, valuation

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


def naive_height(x: Rational) -> float:
    """log max(|numerator|, denominator) of a rational in lowest terms."""
    q = Fraction(x)
    return math.log(max(abs(q.numerator), q.denominator))


def curve_height(c: Curve) -> CurveHeight:
    """h(E) = max(h(j), log max(4|A|, 4|B|)); always at least 2*log(2)."""
    j_term = naive_height(c.j)
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


# --- integer group law ------------------------------------------------------
#
# The group law runs on triples (X, Y, D) with x = X/D^2, y = Y/D^3, D >= 1 and
# gcd(X, D) = 1; None is the point at infinity.  On an integral model every
# affine rational point has exactly one such triple, so triples compare as
# points do, and D is the square root of the denominator of x.

Triple = Optional[Tuple[int, int, int]]


def to_triple(c: Curve, P: RatPoint) -> Triple:
    """Check that P lies on c and return its triple; the one on-curve check a point gets."""
    if not on_curve(c, P):
        raise OffCurve(f"({P.x}, {P.y}) is not on y^2 = x^3 + {c.A} x + {c.B}")
    if P.is_infinity:
        return None
    q = P.x.denominator
    d = math.isqrt(q)
    if d * d != q or P.y.denominator != d * q:
        raise InternalInvariantError(f"the denominators of {P} are not a square and its cube")
    return P.x.numerator, P.y.numerator, d


def from_triple(T: Triple) -> RatPoint:
    """The point with Fraction coordinates that a triple stands for."""
    if T is None:
        return INFINITY
    X, Y, D = T
    return RatPoint(Fraction(X, D * D), Fraction(Y, D**3))


def add_triples(c: Curve, T1: Triple, T2: Triple, t: Optional[int] = None) -> Triple:
    """T1 + T2 on c without an on-curve check: both must come from to_triple or from here.

    The chord or tangent gives x as num / W^2 with slope L / (K W), and
    gcd(num, W^2) = u^2 reduces x.  A trial factor t >= 1 of u shrinks that
    gcd: when t | W and t^2 | num, gcd(num, W^2) = t^2 gcd(num / t^2, (W / t)^2),
    so the gcd runs on the quotients, which are usually coprime.  Otherwise
    it runs on num and W^2.  y follows from the summand with the smaller
    denominator.
    """
    if T1 is None:
        return T2
    if T2 is None:
        return T1
    if T1[2] < T2[2]:
        T1, T2 = T2, T1  # the division that recovers y is by D2^3, so T2 is the smaller
    X1, Y1, D1 = T1
    X2, Y2, D2 = T2
    E1, E2 = D1 * D1, D2 * D2
    H = X2 * E1 - X1 * E2  # (x2 - x1) (D1 D2)^2
    R = Y2 * E1 * D1 - Y1 * E2 * D2  # (y2 - y1) (D1 D2)^3
    if H:
        # x3 = ((x1 + x2)(x1 x2 + A) + 2B - 2 y1 y2) / (x1 - x2)^2
        E, K, L, W = E1 * E2, D1 * D2, R, H
        num = (X1 * E2 + X2 * E1) * (X1 * X2 + c.A * E) + 2 * c.B * E * E - 2 * Y1 * Y2 * K
    elif R or not Y1:  # T2 = -T1, which covers doubling a point of order 2
        return None
    else:
        # x3 = slope^2 - 2 x1 with slope (3 x1^2 + A) / (2 y1)
        K, L, W = 1, 3 * X1 * X1 + c.A * E1 * E1, 2 * Y1 * D1
        num = L * L - 8 * X1 * Y1 * Y1
    X, D, u = num, abs(W), 1
    if t is not None:
        Dt, r = divmod(D, t)
        if not r:
            Xt, r = divmod(X, t * t)
            if not r:
                X, D, u = Xt, Dt, t
    # on an integral model the reduced denominator of x is a square, so gcd(X, D^2) = v^2;
    # after a trial factor it is mostly 1, which the smaller gcd(X, D) shows
    if u == 1 or math.gcd(X, D) != 1:
        g = math.gcd(X, D * D)
        v = math.isqrt(g)
        if v * v != g:
            raise InternalInvariantError(f"reduced denominator {D * D // g} of x(P + Q) is not a perfect square")
        X, D, u = X // g, D // v, u * v
    if W < 0:
        L = -L
    # y3 = slope (x2 - x3) - y2, exact over u K D2^3
    Y, r = divmod(L * (X2 * D * D - X * E2) * D2 - Y2 * u * K * D**3, u * K * D2**3)
    if r:
        raise InternalInvariantError("denominator of y(P + Q) is not the cube of the square root of that of x")
    return X, Y, D


class Multiples:
    """The triples of P, 2P, 3P, ... on c, each computed once, on first use.

    The constructor is the one on-curve check.  walk[n] is the triple of nP
    for n >= 1; reading it extends the walk by one addition per missing step.
    The step to (n + 1)P passes D_{n-1} as the trial factor.  It divided u
    at every step on the golden points; what is left of u comes from the bad
    primes (Ayad 1992).
    """

    def __init__(self, c: Curve, P: RatPoint) -> None:
        self.curve = c
        self.point = P
        self._triples = [to_triple(c, P)]

    def __getitem__(self, n: int) -> Triple:
        if n < 1:
            raise IndexError(f"the walk starts at 1P, not at {n}P")
        triples, c = self._triples, self.curve
        while len(triples) < n:
            prev = triples[-2] if len(triples) > 1 else None
            triples.append(add_triples(c, triples[-1], triples[0], None if prev is None else prev[2]))
        return triples[n - 1]


def add(c: Curve, P: RatPoint, Q: RatPoint) -> RatPoint:
    """Chord-tangent sum of two points on c."""
    return from_triple(add_triples(c, to_triple(c, P), to_triple(c, Q)))


def multiply(c: Curve, n: int, P: RatPoint) -> RatPoint:
    """n*P by double-and-add; n may be negative or zero."""
    base = to_triple(c, P)
    if n < 0:
        n = -n
        base = None if base is None else (base[0], -base[1], base[2])
    result: Triple = None
    while n:
        if n & 1:
            result = add_triples(c, result, base)
        n >>= 1
        if n:
            base = add_triples(c, base, base)
    return from_triple(result)


def quasi_minimalize(c: Curve) -> Tuple[Curve, int]:
    """Strip every prime p with p^4 | A and p^6 | B (a zero coefficient puts no constraint).

    Returns the reduced curve and the total scaling factor u, so that the input
    is the image of the output under (A, B) -> (u^4*A, u^6*B).  Every such p
    divides gcd(A, B), which is factored once: u = prod p^min(v_p(A) // 4,
    v_p(B) // 6) over the nonzero coefficients.
    """
    u = 1
    for p in factor_int(math.gcd(c.A, c.B)):
        u *= p ** min(valuation(a, p) // e for a, e in ((c.A, 4), (c.B, 6)) if a)
    if u == 1:
        return c, 1
    return make_curve(c.A // u**4, c.B // u**6), u


def scale_point(P: RatPoint, u: int) -> RatPoint:
    """Map a point of (u^4*A, u^6*B) to the reduced curve: (x, y) -> (x/u^2, y/u^3)."""
    if P.is_infinity:
        return INFINITY
    return RatPoint(P.x / u**2, P.y / u**3)
