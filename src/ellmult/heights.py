"""Naive and canonical heights on short Weierstrass curves.

The canonical height is the doubling limit (1/2) lim h(x_{2^k P}) / 4^k.
Running it literally squares the coordinate size every step, so the engine
renormalizes, and each step does integer work only.  Integers (u, v) at
scale 2^W, W = precision_bits + 32, carry the size of numerator and
denominator, with precision_bits = HEIGHT_BITS = 128 for canonical_height:
the duplication forms are exact integer products of u^2, v^2 and uv, and
one integer division per coordinate renormalizes them by m = max(|U|, V).
Then h(x_{2^k P}) = 4 h(x_{2^(k-1) P}) + ln(m / 2^(4W)) - ln(g), where g
is the common factor the exact doubling divides out.

The engine runs in two phases.  In the exact phase, integer residues modulo
a shrinking power of the discriminant recover each g exactly.  The resultant
of the duplication forms equals the squared discriminant, so g divides
disc^2 and is read off the residues modulo disc^2.  The phase ends at the
first step with g = 1, because every later g is 1 too.  With x = a/b in
lowest terms and f(x) = x^3 + A x + B, the forms are F = b^4 (f'^2 - 8 x f)
and G = 4 b^4 f.  For odd p, p divides both exactly when p does not divide b
and f(x) = f'(x) = 0 mod p, that is when the point reduces to the singular
point of the model mod p: p divides curves.singular_gcd of its pair.  The
points with nonsingular reduction form a subgroup (Silverman, AEC VII.2.1),
so once g = 1 no later double reduces to the singular point at an odd p.
At p = 2, 4 | G always, and an odd F makes the next a odd and 4 | b, so the
next F = a^4 mod 2 is odd again.  A point whose g never reaches 1 stays in
the exact phase to the end.

In the log phase no residue is kept, and no floating-point work is done in
the loop.  The sum telescopes into one product, scale^(4^depth) times
prod_k (m_k / (2^(4W) g_k))^(4^(depth-k)) with scale = max(|a|, b) for
x_P = a/b, kept as an integer mantissa and an exact binary exponent.  One
logarithm of that product ends the run, so k doublings cost O(k)
big-integer work and a single mpf logarithm.

canonical_height starts the engine at x_{2P}, the reduced abscissa of the
walk's 2P (which the torsion scan of an integral P has already computed),
and runs depth - 1 steps: scale and (u, v) start from x_{2P}, and the steps
reach x_{2^depth P} as depth steps from x_P would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from ._precision import context
from .curves import Curve, Multiples, RatPoint, curve_height, naive_height
from .errors import PrecisionExhausted
from .reports import BoundReport

TORSION_SCAN_LIMIT = 12
DEPTH_CAP = 24
# A tol that reaches the engine is above 2 h(E) / 4^DEPTH_CAP >= 2^-47, as h(E) >= 2 log 2, so 128 bits cover it.
HEIGHT_BITS = 128
LANG_SMALL_HEIGHT_CUTOFF = 2 * (28 * math.log(2) + 24 * math.log(3))

HEIGHT_WINDOW_CITATION = "|hhat(P) - h(x_P)/2| < 2 h(E)"


@dataclass(frozen=True)
class HeightEstimate:
    """Converged limit value, stopping tolerance, doubling count, and the torsion scan's order or None."""

    value: float
    tolerance: float
    iterations: int
    torsion_order: Optional[int]

    def __float__(self) -> float:
        return self.value


def torsion_order(walk: Multiples) -> Optional[int]:
    """Smallest n <= TORSION_SCAN_LIMIT with n*P at infinity, or None, read off the walk of P.

    Rational torsion has order at most 12, so the scan is a complete torsion
    test.  On an integral model torsion points are integral
    (Nagell-Lutz), so the first multiple with a non-integral x proves that P
    has infinite order and ends the scan.
    """
    for n in range(1, TORSION_SCAN_LIMIT + 1):
        Q = walk[n]
        if Q is None:
            return n
        if Q[1] > 1:
            return None
    return None


def _mantissa(x: int, bits: int) -> Tuple[int, int]:
    """(M, t) with M = floor(x / 2^t) of exactly bits + 1 bits, for x >= 1; t may be negative."""
    t = x.bit_length() - bits - 1
    return (x >> t, t) if t >= 0 else (x << -t, t)


def _renormalized_doubling(c: Curve, x: Fraction, depth: int, precision_bits: int) -> object:
    """Return s_depth = h(x_{2^depth P}) as an mpf at precision_bits, for the abscissa x = x_P.

    Exact phase: the residues of the exact numerator and denominator are kept
    modulo K, a power of disc^2 large enough to survive depth steps of
    dividing out common factors (fa < K g, so fa / g is already reduced
    modulo the new K), up to the first step with g = 1.  Log phase: the
    product of the module docstring is kept as M 2^E, with M an integer of
    W' + 1 bits, W' = W + 2 depth, and E exact; each step raises M to the
    fourth power, multiplies it by m / g and rounds once.  The rounding at
    step k costs 2^-W' relative, which the later fourth powers raise to
    4^(depth-k) 2^-W', so together they move s by a few units of 2^-W.  The
    logarithm is taken of M 2^-W', which lies in [1, 2), not of M, whose ln
    would nearly cancel against W' ln 2.  The product stands for
    max(|a|, b) >= 1 of x(2^depth P) = a/b, so both terms of
    s = ln(M 2^-W') + (E + W') ln 2 are nonnegative, and the sum loses no
    bits to cancellation at W bits.
    """
    W = precision_bits + 32
    Wm = W + 2 * depth
    A, B = c.A, c.B
    d2 = c.discriminant * c.discriminant
    K = d2 ** (depth + 2)
    a, b = x.numerator, x.denominator
    residues = (a % K, b % K)
    scale = max(abs(a), b)
    u, v = (a << W) // scale, (b << W) // scale
    M, E = _mantissa(scale, Wm)
    for _ in range(depth):
        g = 1
        if residues is not None:
            ar, br = residues
            a2, b2, ab = ar * ar % K, br * br % K, ar * br % K
            fa = ((a2 - A * b2) ** 2 - 8 * B * ab * b2) % K
            gb = 4 * (ab * (a2 + A * b2) + B * b2 * b2) % K
            g = math.gcd(math.gcd(fa, d2), gb)
            K //= g
            residues = (fa // g, gb // g) if g > 1 else None
        u2, v2, uv = u * u, v * v, u * v
        U = (u2 - A * v2) ** 2 - 8 * B * uv * v2
        V = 4 * (uv * (u2 + A * v2) + B * v2 * v2)
        m = max(abs(U), V)
        if not m > 0:
            raise PrecisionExhausted("duplication forms vanished numerically; raise the working precision")
        u, v = (U << W) // m, (V << W) // m
        shift = g.bit_length()
        M, t = _mantissa((M**4 * m << shift) // g, Wm)
        E = 4 * E + t - shift - 4 * W
    ctx = context(W)
    s = ctx.ln(ctx.ldexp(M, -Wm)) + (E + Wm) * ctx.ln2
    return context(precision_bits).mpf(s)


def canonical_height(walk: Multiples, tol: float = 1e-10) -> HeightEstimate:
    """Doubling-limit canonical height, iterated to a window-certified depth.

    |hhat(Q) - h(x_Q)/2| <= 2 h(E) bounds the truncation error at depth k by
    2 h(E) / 4^k, so the depth needed for tol is known up front; an observed
    small successive difference alone is never trusted (large points can show
    one far from the limit).  Torsion (detected by a complete small-multiple
    scan) returns exactly 0.  The doubling runs at HEIGHT_BITS and raises
    PrecisionExhausted when the required depth exceeds DEPTH_CAP.  The point
    and curve are the walk's.

    The engine starts from the walk's exact, reduced x_{2P} and runs
    depth - 1 doublings, so the float returned is a function of the curve
    and x_{2P} alone.  For T in E[2], 2(P + T) = 2P, so P and every P + T
    (and their negatives) get the same float: one height per 2-torsion
    class, exactly.  iterations still reports depth.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    order = torsion_order(walk)
    if order is not None:
        return HeightEstimate(0.0, tol, 0, order)
    c = walk.curve
    hE = float(curve_height(c))
    ratio = 2 * hE / tol
    if math.isinf(ratio):
        # tol so small that the ratio overflows: the depth from logs lies far beyond the cap
        depth = math.ceil((math.log(2 * hE) - math.log(tol)) / math.log(4))
    else:
        depth = max(1, math.ceil(math.log(ratio, 4)))
    if depth > DEPTH_CAP:
        raise PrecisionExhausted(f"tolerance {tol} needs doubling depth {depth}, beyond the cap {DEPTH_CAP}")
    X, D = walk[2]
    s = _renormalized_doubling(c, Fraction(X, D * D), depth - 1, HEIGHT_BITS)
    return HeightEstimate(float(s / (2 * 4**depth)), tol, depth, None)


def height_window_check(c: Curve, P: RatPoint, estimate: HeightEstimate) -> BoundReport:
    """Check |hhat(P) - h(x_P)/2| < 2 h(E) on canonical_height's estimate; torsion is not applicable."""
    hE = float(curve_height(c))
    if estimate.torsion_order is not None:
        return BoundReport(
            name="height-window",
            inputs={"curve_height": hE},
            threshold=None,
            holds=None,
            citation=HEIGHT_WINDOW_CITATION,
        )
    hhat = estimate.value
    half_naive = naive_height(P.x) / 2
    difference = abs(hhat - half_naive)
    return BoundReport(
        name="height-window",
        inputs={
            "hhat": hhat,
            "half_naive_height": half_naive,
            "difference": difference,
            "curve_height": hE,
        },
        threshold=2 * hE,
        holds=difference < 2 * hE,
        citation=HEIGHT_WINDOW_CITATION,
    )


def lang_floor(c: Curve, M: int) -> Optional[float]:
    """Lower bound h(E)/(10^5 M^6) for the canonical height of non-torsion points.

    Valid only once h(E) clears 56 log 2 + 48 log 3; smaller heights fall in a
    finite exceptional regime and get None.
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    hE = float(curve_height(c))
    if hE < LANG_SMALL_HEIGHT_CUTOFF:
        return None
    return hE / (10**5 * M**6)
