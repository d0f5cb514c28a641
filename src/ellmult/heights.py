"""Naive and canonical heights on short Weierstrass curves.

The canonical height is the doubling limit (1/2) lim h(x_{2^k P}) / 4^k.
Running it literally squares the coordinate size every step, so the engine
renormalizes: floating copies of numerator and denominator carry the size,
and integer residues modulo a shrinking power of the discriminant recover
each step's cancellation exactly.  The resultant of the duplication forms
equals the squared discriminant, so every cancellation divides disc^2 and
k doublings cost O(k) big-integer work instead of exponentially many digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Tuple

from ._precision import context
from .curves import Curve, RatPoint, curve_height, multiple_triples, naive_height
from .errors import PrecisionExhausted
from .reports import BoundReport

TORSION_SCAN_LIMIT = 12
DEPTH_CAP = 24
TRACE_BITS = 192
LANG_SMALL_HEIGHT_CUTOFF = 2 * (28 * math.log(2) + 24 * math.log(3))

HEIGHT_WINDOW_CITATION = "|hhat(P) - h(x_P)/2| < 2 h(E)"
LANG_FLOOR_CITATION = "hhat(P) >= h(E) / (10^5 M^6) once h(E) >= 56 log 2 + 48 log 3"


@dataclass(frozen=True)
class HeightEstimate:
    """Converged limit value, stopping tolerance, doubling count, and the torsion scan's order or None."""

    value: float
    tolerance: float
    iterations: int
    torsion_order: Optional[int]

    def __float__(self) -> float:
        return self.value


def torsion_order(c: Curve, P: RatPoint, limit: int = TORSION_SCAN_LIMIT) -> Optional[int]:
    """Smallest n <= limit with n*P at infinity, or None.

    Rational torsion has order at most 12, so the default limit is a complete
    torsion test.  On an integral model torsion points are integral
    (Nagell-Lutz), so the first multiple with a non-integral x proves that P
    has infinite order and ends the scan.
    """
    for n, Q in enumerate(islice(multiple_triples(c, P), limit), 1):
        if Q is None:
            return n
        if Q[2] > 1:
            return None
    return None


def _renormalized_doubling(c: Curve, P: RatPoint, depth: int, precision_bits: int) -> Iterator[Tuple[int, object]]:
    """Yield (k, s_k) with s_k = h(x_{2^k P}) to working precision.

    Residues of the exact numerator and denominator are kept modulo K, a power
    of disc^2 large enough to survive depth steps of cancellation; gcds of the
    duplication forms divide disc^2, so each is read off the residues exactly.
    """
    ctx = context(precision_bits)
    A, B = c.A, c.B
    d2 = c.discriminant * c.discriminant
    K = d2 ** (depth + 2)
    a, b = P.x.numerator, P.x.denominator
    ar, br = a % K, b % K
    scale = max(abs(a), b)
    u = ctx.mpf(a) / scale
    v = ctx.mpf(b) / scale
    s = ctx.ln(scale)
    yield 0, s
    for k in range(1, depth + 1):
        fa = (ar**4 - 2 * A * ar**2 * br**2 - 8 * B * ar * br**3 + A * A * br**4) % K
        gb = (4 * (ar**3 * br + A * ar * br**3 + B * br**4)) % K
        g = math.gcd(math.gcd(fa, gb), d2)
        K //= g
        ar = (fa // g) % K
        br = (gb // g) % K
        U = u**4 - 2 * A * u**2 * v**2 - 8 * B * u * v**3 + A * A * v**4
        V = 4 * (u**3 * v + A * u * v**3 + B * v**4)
        m = max(abs(U), V)
        if not m > 0:
            raise PrecisionExhausted("duplication forms vanished numerically; raise the working precision")
        s = 4 * s + ctx.ln(m) - ctx.ln(g)
        u = U / m
        v = V / m
        yield k, s


def working_bits(tol: float) -> int:
    """Precision in bits at which canonical_height computes a height to tol."""
    return max(128, int(-math.log2(tol)) + 64)


def canonical_height(
    c: Curve,
    P: RatPoint,
    tol: float = 1e-10,
    depth_cap: int = DEPTH_CAP,
    precision_bits: Optional[int] = None,
) -> HeightEstimate:
    """Doubling-limit canonical height, iterated to a window-certified depth.

    |hhat(Q) - h(x_Q)/2| <= 2 h(E) bounds the truncation error at depth k by
    2 h(E) / 4^k, so the depth needed for tol is known up front; an observed
    small successive difference alone is never trusted (large points can show
    one far from the limit).  Torsion (detected by a complete small-multiple
    scan) returns exactly 0.  Raises PrecisionExhausted when the required
    depth exceeds the doubling-depth cap.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    order = torsion_order(c, P)
    if order is not None:
        return HeightEstimate(0.0, tol, 0, order)
    hE = float(curve_height(c))
    depth = max(1, math.ceil(math.log(2 * hE / tol, 4)))
    if depth > depth_cap:
        raise PrecisionExhausted(
            f"tolerance {tol} needs doubling depth {depth}, beyond the cap {depth_cap}"
        )
    bits = precision_bits if precision_bits is not None else working_bits(tol)
    est = None
    for k, s in _renormalized_doubling(c, P, depth, bits):
        est = s / (2 * 4**k)
    return HeightEstimate(float(est), tol, depth, None)


def duplication_trace(c: Curve, P: RatPoint, depth: int) -> List[float]:
    """Naive heights h(x_{2^k P}) for k = 0..depth from the renormalized engine.

    Exists so the cancellation bookkeeping can be cross-checked against exact
    group-law doubling at small depth.
    """
    return [float(s) for _, s in _renormalized_doubling(c, P, depth, TRACE_BITS)]


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
            applicable=False,
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
