"""Division-polynomial values at integral points and the induced divisibility sequences.

On y^2 = x^3 + A*x + B with F = x^3 + A*x + B, the n-th division polynomial
is psi_n = f_n(x) for odd n and psi_n = 2y f_n(x) for even n.  Substituting
(2y)^2 = 4F into the usual psi_n recurrence gives one for the x-parts that
never divides (Ward 1948; Silverman, AEC, Exercise 3.7):

    f_0 = 0, f_1 = f_2 = 1,
    f_3 = 3x^4 + 6A x^2 + 12B x - A^2,
    f_4 = 2 (x^6 + 5A x^4 + 20B x^3 - 5A^2 x^2 - 4AB x - 8B^2 - A^3),
    f_{2m+1} = 16F^2 f_{m+2} f_m^3 - f_{m-1} f_{m+1}^3       (m even),
    f_{2m+1} = f_{m+2} f_m^3 - 16F^2 f_{m-1} f_{m+1}^3       (m odd),
    f_{2m}   = f_m (f_{m+2} f_{m-1}^2 - f_{m-2} f_{m+1}^2).

The recurrence needs only ring arithmetic in x, so it runs on integers,
Fractions and mpmath numbers alike.  At an integral point P = (a, b), where
16F^2 = 16b^4, it gives h_n = psi_n(P), that is f_n(a) for odd n and
2b f_n(a) for even n, and the companion k_n = a h_n^2 - h_{n+1} h_{n-1} with
x(nP) = k_n / h_n^2.

The group law gives x(nP) = X_n / D_n^2 independently, in lowest terms, and
ward_terms(...).D is that route's sequence.  curves.Multiples walks it on x
alone: past 2P, the addition law for x on nP + P and nP - P (Silverman, AEC
III.2.3; Brier and Joye 2002) gives x((n+1)P) x((n-1)P) = R / H^2, with
H = (x(P) - x(nP)) (d D_n)^2 for P = (a/d^2, .).  The product step divides
D_{n-1} out of H, giving Q, and X_{n-1} out of R, giving x((n+1)P) = X / Q^2,
and takes a gcd only where Q shares a prime with curves.singular_gcd of
P, whose primes are those where P reduces to a singular point: by Ayad
(1992) the fraction is in lowest terms at every other prime.  Where
X_{n-1} = 0 or a division is inexact, the general step reduces the sum
form x((n+1)P) = S / H^2 - x((n-1)P) by one full gcd.  No step recovers
y.  H = 0 puts (n+1)P at infinity, and from there the walk repeats with the
order of P.
ward_terms walks the group law once and compares the two routes at every n:
it divides g_n = h_n^2 / D_n^2 and requires the division to be exact and
k_n = g_n X_n.  As gcd(X_n, D_n) = 1, that proves g_n = gcd(k_n, h_n^2)
without computing the gcd, and that both routes give the same x(nP).  A
disagreement raises InternalInvariantError.

Every h_n and k_n is an exact integer, at torsion base points too, and
h_n = 0 exactly when nP is the point at infinity; ward_terms requires the
group law to reach infinity at the same n.  Only D_n and g_n are None there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .curves import Curve, Multiples, RatPoint
from .errors import InternalInvariantError, NonIntegralBasePoint

OptInt = Optional[int]


@dataclass
class WardSequence:
    """Aggregated sequence data for one (curve, base point) pair."""

    h: List[int]
    k: List[int]
    D: List[OptInt]
    g: List[OptInt]

    def json_rows(self) -> List[dict]:
        return [
            {"n": n, "h": self.h[n], "k": self.k[n], "D": self.D[n], "g": self.g[n]}
            for n in range(len(self.h))
        ]


def _x_parts(A: int, B: int, x, top: int) -> list:
    """f_0..f_top at x, an integer, a Fraction or an mpmath number."""
    xx = x * x
    F = x * (xx + A) + B
    f3 = 3 * xx * xx + 6 * A * xx + 12 * B * x - A * A
    f4 = 2 * (xx**3 + 5 * A * xx * xx + 20 * B * xx * x - 5 * A * A * xx - 4 * A * B * x - 8 * B * B - A**3)
    f = [0, 1, 1, f3, f4]
    s = 16 * F * F
    for n in range(5, top + 1):
        m = n // 2
        if n % 2:
            p, q = f[m + 2] * f[m] ** 3, f[m - 1] * f[m + 1] ** 3
            f.append(s * p - q if m % 2 == 0 else p - s * q)
        else:
            f.append(f[m] * (f[m + 2] * f[m - 1] ** 2 - f[m - 2] * f[m + 1] ** 2))
    return f[: top + 1]


def _require_integral(P: RatPoint) -> Tuple[int, int]:
    if P.is_infinity:
        raise NonIntegralBasePoint("base point must be affine")
    if P.x.denominator != 1 or P.y.denominator != 1:
        raise NonIntegralBasePoint(f"base point {P} has non-integer coordinates")
    return P.x.numerator, P.y.numerator


def _h_k(c: Curve, P: RatPoint, n_max: int) -> Tuple[List[int], List[int], List[int]]:
    """h_0..h_n_max, their squares, and k_0..k_n_max (k_0 = 1) at an integral base point."""
    a, b = _require_integral(P)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    f = _x_parts(c.A, c.B, a, n_max + 1)  # k_n needs h_{n+1}
    h = [v if n % 2 else 2 * b * v for n, v in enumerate(f)]
    h2 = [v * v for v in h[: n_max + 1]]
    k = [1] + [a * h2[n] - h[n + 1] * h[n - 1] for n in range(1, n_max + 1)]
    return h[: n_max + 1], h2, k


def ward_terms(walk: Multiples, n_max: int) -> WardSequence:
    """Full sequence bundle to index n_max: h, k by recurrence, D off the walk, g from both.

    The walk's point is the base point.  Raises InternalInvariantError where
    the two routes disagree on nP.
    """
    h, h2, k = _h_k(walk.curve, walk.point, n_max)
    D: List[OptInt] = [None]
    g: List[OptInt] = [None]
    for n in range(1, n_max + 1):
        T = walk[n]
        if T is None:
            if h[n]:
                raise InternalInvariantError(f"the group law puts {n}P at infinity, but h_{n} is not 0")
            D.append(None)
            g.append(None)
            continue
        X, Dn = T
        # h_n^2 = g_n D_n^2 and k_n = g_n X_n with gcd(X_n, D_n) = 1 make g_n = gcd(k_n, h_n^2)
        gn, r = divmod(h2[n], Dn * Dn)
        if not gn or r or k[n] != gn * X:
            raise InternalInvariantError(f"the group law and the recurrence disagree on x({n}P)")
        D.append(Dn)
        g.append(gn)
    return WardSequence(h, k, D, g)


def psi_value_binary(n: int, x: int, N: int) -> int:
    """Division-polynomial value for y^2 = x^3 - N^2 x, as a two-variable integer form.

    Defined for every integer pair, including N = 0: only the recurrence is
    used, never curve validation.  Even n returns the x-part (the 2y factor
    is not a function of x alone).
    """
    return _x_parts(-N * N, 0, x, n)[n]


def x_multiple_exact(c: Curve, P: RatPoint, n: int) -> Optional[Fraction]:
    """x(nP) as k_n / h_n^2, or None when nP is at infinity; recurrence route only."""
    h, h2, k = _h_k(c, P, n)
    return Fraction(k[n], h2[n]) if h[n] else None
