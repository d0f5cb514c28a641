"""Exact arithmetic on short Weierstrass curves y^2 = x^3 + A*x + B over Q.

Points are given with Fraction coordinates in lowest terms; the group law
works on integer triples.  Nothing in this module rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from . import _bigint
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
# points do, and D is the square root of the denominator of x.  The walk keeps
# only pairs (X, D), which fix x and so the point up to sign.

Triple = Optional[Tuple[int, int, int]]
Pair = Optional[Tuple[int, int]]


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


def _square_gcd(X: int, D: int, what: str) -> int:
    """v with gcd(X, D^2) = v^2; on an integral model the reduced denominator of x = X/D^2 is a square.

    gcd(X, D^2) divides g^2, g = gcd(X, D), and g^2 divides D^2, so it is
    gcd(X mod g^2, g^2): one gcd on the full-size X, none on D^2.
    """
    square = math.gcd(X, D) ** 2
    g = math.gcd(X % square, square)
    v = math.isqrt(g)
    if v * v != g:
        raise InternalInvariantError(f"reduced denominator {D * D // g} of {what} is not a perfect square")
    return v


def add_triples(c: Curve, T1: Triple, T2: Triple) -> Triple:
    """T1 + T2 on c without an on-curve check: both must come from to_triple or from here.

    The chord or tangent gives x as num / W^2 with slope L / (K W), and
    gcd(num, W^2) = v^2 reduces x.  y follows from the summand with the
    smaller denominator, by one exact division.
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
    v = _square_gcd(num, W, "x(P + Q)")
    X, D = num // (v * v), abs(W) // v
    if W < 0:
        L = -L
    # y3 = slope (x2 - x3) - y2, exact over v K D2^3
    Y, r = divmod(L * (X2 * D * D - X * E2) * D2 - Y2 * v * K * D**3, v * K * D2**3)
    if r:
        raise InternalInvariantError("denominator of y(P + Q) is not the cube of the square root of that of x")
    return X, Y, D


def singular_gcd(c: Curve, T: Pair) -> int:
    """gcd(3X^2 + A D^4, 2(X^3 + A X D^4 + B D^6), discriminant) for T = (X, D), and 1 at infinity.

    Its primes are S_P, the primes p where the point P with pair T reduces
    to a singular point of the model mod p; it is the one test of that
    criterion.  Proof.  With x = X/D^2 and y = Y/D^3, at p not dividing D
    both partial derivatives of y^2 - x^3 - A x - B vanish at P mod p
    exactly when p divides 3X^2 + A D^4 and 2Y, and 2Y has the primes of
    2Y^2 = 2(X^3 + A X D^4 + B D^6), so the pair needs no Y.  A singular
    point mod p makes p divide the discriminant, so the gcd with it drops
    no prime.  At p dividing D, P reduces to the point at infinity, which
    is nonsingular, and no such p divides the gcd: as gcd(X, D) = 1 it
    would divide 3X^2 only as p = 3, and 2X^3 only as p = 2.
    """
    if T is None:
        return 1
    X, D = T
    D4 = D**4
    return math.gcd(3 * X * X + c.A * D4, 2 * (X**3 + c.A * X * D4 + c.B * D4 * D * D), c.discriminant)


class Multiples:
    """The pairs of P, 2P, 3P, ... on c, each computed once, on first use.

    The constructor is the one on-curve check.  walk[n] is the pair (X, D) of
    nP for n >= 1, with x(nP) = X/D^2, or None at infinity; reading it extends
    the walk by one step per missing multiple.  2P comes from add_triples.
    Every later step uses x alone.  With (a, d) the pair of P, e = d^2 and
    E = D_n^2, let H = a E - X_n e, which is (x(P) - x(nP)) e E; H = 0 means
    nP = -P, so (n+1)P is at infinity.  Applied to nP + P and nP - P, the
    addition law (Silverman, AEC III.2.3; Brier and Joye, PKC 2002) gives

        x((n+1)P) x((n-1)P) = [(x1 x2 - A)^2 - 4B (x1 + x2)] / (x1 - x2)^2
                            = R / H^2,
        R = (a X_n - A e E)^2 - 4B e E (X_n e + a E).

    The step divides D_{n-1} out of H, giving Q, and X_{n-1} out of R,
    giving X = x((n+1)P) Q^2, so x((n+1)P) = X / Q^2; both divisions go
    through _bigint.divmod, subquadratic at large n.  On B = 0, R is one
    square.  Where X_{n-1} = 0, the pair (0, D_{n-1}) is in lowest terms
    only with D_{n-1} = 1, so Q = H, and the sum law
    x((n+1)P) + x((n-1)P) = S / H^2 gives X = S with no division, where
    S = 2[(X_n e + a E)(a X_n + A e E) + 2B e^2 E^2].  Both divisions are
    exact, by the theorem below, so a remainder raises
    InternalInvariantError.  From the first None, at the order m of P,
    walk[n] is walk[n mod m].

    Theorem.  For n >= 2 with (n-1)P, nP and (n+1)P not at infinity,
    D_{n-1} D_{n+1} divides H, on any model with integer A, B and from any
    rational P.  Proof, at one prime p (Silverman, AEC IV.1 and VII.2).  Let
    E_k be the point at infinity and the points with v_p(x) <= -2k, and
    z = -x/y.  For any Weierstrass equation with p-integral coefficients,
    so at p = 2 and 3 and on models that are not minimal too, E_k is a
    subgroup and v_p(z) = k on E_k outside E_(k+1): the proof of AEC
    VII.2.2 does not use minimality.  Let k = v_p(D_{n-1}),
    k' = v_p(D_{n+1}) and z_m = z(mP), and let F be the formal group law.
    As F(X, -X) = 0, F(X, -Y) is X - Y times a unit of Z_p[[X, Y]], and
    F(X, Y) is X + Y times one.  One of n and n + 1 is even, so 2P is not
    at infinity.
      p | d.  P is in E_1, so (n-1)P, nP and (n+1)P are all in E_1 or all
      outside it, and outside it k = k' = 0.  Inside it, x = z^-2 +
      sum_i c_i z^(2i) with p-integral c_i, even in z as z(-Q) = -z(Q) on
      y^2 = x^3 + A x + B.  So H is z_n^2 - z_1^2 times a unit, and as
      z_{n-1} = F(z_n, -z_1) and z_{n+1} = F(z_n, z_1), v_p(H) = k + k'.
      p does not divide d but divides D_n.  nP is in E_1 and P is not, so
      neither (n-1)P nor (n+1)P is, and k = k' = 0.
      p divides neither d nor D_n.  Then v_p(H) = v_p(x(nP) - x(P)).  For Q
      in E_1 with z = z(Q), f(z) = x(P + Q) - x(P) is a power series in z
      with p-integral coefficients and f(0) = 0: with Q = (z/w, -1/w), the
      addition law's numerator and denominator times w^2 are
      x(P) z^2 + O(z^3) and z^2 (1 + O(z^2)).  As nP = P + (n-1)P,
      v_p(H) >= k, and as nP = -(P - (n+1)P), v_p(H) >= k'.  If k and k'
      are both positive, 2P = (n+1)P - (n-1)P is in E_1, and f vanishes at
      w = z(-2P) != 0 too, as P - 2P = -P.  So f = z (z - w) h with h
      p-integral, and z_{n-1} - w is z_{n+1} times a unit, as
      z_{n+1} = F(z_{n-1}, -w); so v_p(H) >= k + k'.
    So Q = H / D_{n-1} is an integer and D_{n+1} divides it.  With
    t = Q / D_{n+1}, R = x((n+1)P) x((n-1)P) H^2 = X_{n+1} X_{n-1} t^2, so
    where X_{n-1} != 0 the second division is exact and X = X_{n+1} t^2;
    where X_{n-1} = 0, S = x((n+1)P) H^2 = X_{n+1} t^2 as well.

    X / Q^2 is in lowest terms unless Q shares a prime with
    G = singular_gcd(c, walk[1]), whose primes are S_P, so the step takes
    the gcd only then.  Proof.  Let Psi_m and Phi_m be the
    division-polynomial values at P cleared of d, so that
    x(mP) = Phi_m / Psi_m^2.  By Ayad (Manuscripta Math. 76, 1992), a
    prime outside S_P divides no gcd(Phi_m, Psi_m^2), so there
    v_p(Psi_m) = v_p(D_m) for every m.  From x(P) - x(nP) =
    psi_{n-1} psi_{n+1} / psi_n^2, H = Psi_{n-1} Psi_{n+1} D_n^2 / Psi_n^2,
    so outside S_P, v_p(Q) = v_p(H) - v_p(D_{n-1}) = v_p(D_{n+1}), and the
    reducing factor |t| has every prime in S_P.  So gcd(Q, G) = 1 forces
    |t| = 1.  G divides the discriminant, so the gate is one gcd with a
    small number.  ward_terms cannot catch a pair left unreduced by a
    factor t, because g_n would absorb t^2; the tests compare the walk with
    multiply in lowest terms instead.
    """

    def __init__(self, c: Curve, P: RatPoint) -> None:
        self.curve = c
        self.point = P
        self._triple = to_triple(c, P)
        # (X, Y, D)[::2] is the pair (X, D)
        self._pairs: List[Pair] = [None if self._triple is None else self._triple[::2]]
        self._singular = singular_gcd(c, self._pairs[0])

    def __getitem__(self, n: int) -> Pair:
        if n < 1:
            raise IndexError(f"the walk starts at 1P, not at {n}P")
        pairs = self._pairs
        while len(pairs) < n and pairs[-1] is not None:
            pairs.append(self._step())
        if pairs[-1] is None:  # the walk stopped at infinity, at the order of P
            n %= len(pairs)
            return pairs[n - 1] if n else None
        return pairs[n - 1]

    def _step(self) -> Pair:
        """The pair of (n+1)P, where the walk holds P, ..., nP, none of them at infinity."""
        pairs, c = self._pairs, self.curve
        if len(pairs) == 1:
            T = add_triples(c, self._triple, self._triple)
            return None if T is None else T[::2]
        (a, d), (Xp, Dp), (Xn, Dn) = pairs[0], pairs[-2], pairs[-1]
        e, E = d * d, Dn * Dn
        Xe, aE = Xn * e, a * E
        H = aE - Xe  # (x(P) - x(nP)) (d D_n)^2
        if not H:
            return None
        eE = e * E
        Q, r = _bigint.divmod(H, Dp)
        if Xp:
            t = a * Xn - c.A * eE
            X, s = _bigint.divmod(t * t - 4 * c.B * eE * (Xe + aE), Xp)  # R / X_{n-1}
        else:  # X_{n-1} = 0 makes D_{n-1} = 1, and x((n+1)P) = S / H^2
            X, s = 2 * ((Xe + aE) * (a * Xn + c.A * eE) + 2 * c.B * eE * eE), 0
        if r or s:
            raise InternalInvariantError(f"D_(n-1) D_(n+1) does not divide H at x({len(pairs) + 1}P)")
        D = abs(Q)
        if math.gcd(Q, self._singular) == 1:
            return X, D  # the reducing factor divides Q and has its primes in S_P
        v = _square_gcd(X, D, f"x({len(pairs) + 1}P)")
        if v != 1:
            X, D = X // (v * v), D // v
        return X, D


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
