"""Division-polynomial values at integral points and the induced divisibility sequences.

For an integral point P = (a, b) on y^2 = x^3 + A*x + B the sequence

    h_0 = 0, h_1 = 1, h_2 = 2b,
    h_3 = 3a^4 + 6A a^2 + 12B a - A^2,
    h_4 = 4b (a^6 + 5A a^4 + 20B a^3 - 5A^2 a^2 - 4AB a - 8B^2 - A^3),

extended by

    h_{2m+1} = h_{m+2} h_m^3 - h_{m-1} h_{m+1}^3,
    h_2 h_{2m} = h_m (h_{m+2} h_{m-1}^2 - h_{m-2} h_{m+1}^2),

consists of the division-polynomial values at P.  Its companion
k_n = a h_n^2 - h_{n+1} h_{n-1} gives x(nP) = k_n / h_n^2, and the exact
denominator D_n of x(nP) is recomputed independently through the group law so
the two routes check each other.

A zero h_n means nP is the point at infinity; terms that depend on a zero
divisor are marked None rather than raised, so torsion base points degrade
gracefully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .curves import Curve, RatPoint, add_triples, to_triple
from .errors import InternalInvariantError, NonIntegralBasePoint, ZeroTerm

OptInt = Optional[int]


@dataclass(frozen=True)
class DivisionPolynomial:
    """x-polynomial attached to index n; coefficients are exact, lowest degree first."""

    n: int
    coefficients: Tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass
class WardSequence:
    """Aggregated sequence data for one (curve, base point) pair."""

    curve: Curve
    base: RatPoint
    h: List[OptInt]
    k: List[OptInt]
    D: List[OptInt]
    g: List[OptInt]

    def json_rows(self) -> List[dict]:
        return [
            {"n": n, "h": self.h[n], "k": self.k[n], "D": self.D[n], "g": self.g[n]}
            for n in range(len(self.h))
        ]


def _require_integral(P: RatPoint) -> Tuple[int, int]:
    if P.is_infinity:
        raise NonIntegralBasePoint("base point must be affine")
    if P.x.denominator != 1 or P.y.denominator != 1:
        raise NonIntegralBasePoint(f"base point {P} has non-integer coordinates")
    return P.x.numerator, P.y.numerator


def _h_k(c: Curve, P: RatPoint, n_max: int) -> Tuple[List[OptInt], List[OptInt]]:
    """h_0..h_n_max and k_0..k_n_max (k_0 = 1) at an integral base point.

    None marks an h past a zero even divisor, and a k next to such an h.
    """
    a, b = _require_integral(P)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    A, B = c.A, c.B
    top = n_max + 1  # k_n needs h_{n+1}
    h: List[OptInt] = [None] * (max(top, 4) + 1)
    h[0] = 0
    h[1] = 1
    h[2] = 2 * b
    h[3] = 3 * a**4 + 6 * A * a**2 + 12 * B * a - A**2
    h[4] = 4 * b * (a**6 + 5 * A * a**4 + 20 * B * a**3 - 5 * A**2 * a**2 - 4 * A * B * a - 8 * B**2 - A**3)
    for n in range(5, top + 1):
        m = n // 2
        if n % 2:
            parts = (h[m + 2], h[m], h[m - 1], h[m + 1])
            if any(v is None for v in parts):
                h[n] = None
            else:
                h[n] = h[m + 2] * h[m] ** 3 - h[m - 1] * h[m + 1] ** 3
        else:
            parts = (h[m], h[m + 2], h[m - 1], h[m - 2], h[m + 1])
            if any(v is None for v in parts) or h[2] == 0:
                h[n] = None
            else:
                num = h[m] * (h[m + 2] * h[m - 1] ** 2 - h[m - 2] * h[m + 1] ** 2)
                q, r = divmod(num, h[2])
                if r:
                    raise InternalInvariantError(f"even-index term at n={n} not divisible by h_2")
                h[n] = q
    k: List[OptInt] = [1]
    for n in range(1, n_max + 1):
        if h[n] is None or h[n + 1] is None or h[n - 1] is None:
            k.append(None)
        else:
            k.append(a * h[n] ** 2 - h[n + 1] * h[n - 1])
    return h[: n_max + 1], k


def ward_terms(c: Curve, P: RatPoint, n_max: int) -> WardSequence:
    """Full sequence bundle to index n_max: h, k by recurrence, D by group law, g by gcd."""
    h, k = _h_k(c, P, n_max)
    D = denominator_sequence(c, P, n_max)
    g: List[OptInt] = [None] * (n_max + 1)
    for n in range(n_max + 1):
        if h[n] not in (None, 0) and k[n] is not None:
            g[n] = math.gcd(k[n], h[n] ** 2)
    return WardSequence(c, P, h, k, D, g)


def phi_terms(c: Curve, P: RatPoint, n_max: int) -> List[OptInt]:
    """Numerator companions k_0..k_n_max with k_0 = 1."""
    return _h_k(c, P, n_max)[1]


def denominator_sequence(c: Curve, P: RatPoint, n_max: int) -> List[OptInt]:
    """Exact square roots of the denominators of x(nP), via the group law only.

    Index n holds D_n >= 1, or None when nP is the point at infinity.
    """
    _require_integral(P)
    base = to_triple(c, P)
    out: List[OptInt] = [None] * (n_max + 1)
    acc = base
    for n in range(1, n_max + 1):
        if n > 1:
            acc = add_triples(c, acc, base)
        out[n] = None if acc is None else acc[2]
    return out


def cancellation(c: Curve, P: RatPoint, n: int) -> int:
    """g_n = gcd(k_n, h_n^2); raises ZeroTerm when h_n vanishes (nP at infinity)."""
    h, k = _h_k(c, P, n)
    if h[n] is None or h[n] == 0 or k[n] is None:
        raise ZeroTerm(f"h_{n} vanishes or is undefined for {P}")
    return math.gcd(k[n], h[n] ** 2)


# --- symbolic x-polynomials ---------------------------------------------


def _poly_mul(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci:
            for j, cj in enumerate(q):
                out[i + j] += ci * cj
    return tuple(out)


def _poly_sub(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    n = max(len(p), len(q))
    out = [0] * n
    for i, ci in enumerate(p):
        out[i] += ci
    for i, ci in enumerate(q):
        out[i] -= ci
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_pow(p: Tuple[int, ...], e: int) -> Tuple[int, ...]:
    out = (1,)
    for _ in range(e):
        out = _poly_mul(out, p)
    return out


def _poly_scale(p: Tuple[int, ...], s: int) -> Tuple[int, ...]:
    return tuple(s * ci for ci in p)


@lru_cache(maxsize=None)
def _psi_x_poly(A: int, B: int, n: int) -> Tuple[int, ...]:
    """x-part f_n of the n-th division polynomial: psi_n = f_n for odd n, 2y*f_n for even n.

    The recurrences run entirely in Z[x] after substituting (2y)^2 = 4(x^3+Ax+B).
    """
    if n == 0:
        return (0,)
    if n == 1 or n == 2:
        return (1,)
    if n == 3:
        return (-A**2, 12 * B, 6 * A, 0, 3)
    if n == 4:
        return _poly_scale((-A**3 - 8 * B**2, -4 * A * B, -5 * A**2, 20 * B, 5 * A, 0, 1), 2)
    F = (B, A, 0, 1)
    F2_16 = _poly_scale(_poly_mul(F, F), 16)
    m = n // 2
    f = lambda i: _psi_x_poly(A, B, i)
    if n % 2:
        first = _poly_mul(f(m + 2), _poly_pow(f(m), 3))
        second = _poly_mul(f(m - 1), _poly_pow(f(m + 1), 3))
        if m % 2 == 0:
            return _poly_sub(_poly_mul(F2_16, first), second)
        return _poly_sub(first, _poly_mul(F2_16, second))
    inner = _poly_sub(
        _poly_mul(f(m + 2), _poly_pow(f(m - 1), 2)),
        _poly_mul(f(m - 2), _poly_pow(f(m + 1), 2)),
    )
    return _poly_mul(f(m), inner)


def psi_polynomial(c: Curve, n: int) -> DivisionPolynomial:
    """Polynomial in x whose roots are the x-coordinates of nontrivial n-torsion.

    Odd n: the division polynomial itself, degree (n^2 - 1)/2.  Even n: the
    factor 2y is dropped and the 2-torsion cubic x^3 + Ax + B is multiplied
    back in, so the root set is again the full torsion x-locus.
    """
    if n < 1:
        raise ValueError("n must be positive")
    f = _psi_x_poly(c.A, c.B, n)
    if n % 2 == 0:
        f = _poly_mul(f, (c.B, c.A, 0, 1))
    return DivisionPolynomial(n, f)


def psi_value_binary(n: int, x: int, N: int) -> int:
    """Division-polynomial value for y^2 = x^3 - N^2 x, as a two-variable integer form.

    Defined for every integer pair, including N = 0: only the polynomial
    recurrence is used, never curve validation.  Even n returns the x-part
    (the 2y factor is not a function of x alone).
    """
    acc = 0
    for coeff in reversed(_psi_x_poly(-N * N, 0, n)):
        acc = acc * x + coeff
    return acc


def x_multiple_exact(c: Curve, P: RatPoint, n: int) -> Optional[Fraction]:
    """x(nP) as k_n / h_n^2, or None when nP is at infinity; recurrence route only."""
    h, k = _h_k(c, P, n)
    if h[n] is None:
        raise ZeroTerm(f"h_{n} undefined for {P}")
    if h[n] == 0:
        return None
    if k[n] is None:
        raise ZeroTerm(f"neighbours of h_{n} undefined for {P}")
    return Fraction(k[n], h[n] ** 2)
