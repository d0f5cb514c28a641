"""Specialization to the square-free family y^2 = x^3 - N^2 x.

Everything O(N)-flavored lives here: the 2-adic obstruction to integral
doubling, valuation profiles of the division-value sequence, multiplier caps
with their explicit N-dependence, the threshold search that closes the range
of admissible N, and the bounded integral-point search that rebuilds the
point table for square-free N up to 75.

The search enumerates abscissas x = +-s a^2 over the square-free divisors s
of N, the only shapes an integral point can take.  It sieves the a with
quadratic-residue masks modulo small numbers, which reject only a whose
abscissa provably carries no point, and checks each survivor exactly.
The threshold search starts each cap branch at its boundary solved in floats
and gallops, then bisects, to the exact boundary; since both branches are
monotone in N, that returns what a linear scan returns from any start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

from . import analytic, bounds
from ._precision import context
from .curves import Curve, Multiples, RatPoint, make_curve, rational_point
from .divpoly import psi_value_binary
from .errors import NotBoundedComponent, ParityMismatch, TorsionInput
from .factorization import factor_int, valuation
from .heights import canonical_height, naive_height
from .reports import BoundReport, value_report

N_CAP_SMALL = 3.6e27
N_CAP_COEFF = 9.196e23
HEIGHT_RATIO_LIMIT = 121

DOUBLE_CITATION = "x(2P) = (x^2 + N^2)^2 / (4 (x^3 - N^2 x)) has ord_2 < 0 for integral non-torsion P"
BINARY_FORM_CITATION = "psi_n(t x, t N) = t^((n^2 - 1)/2) psi_n(x, N); psi_n(1, 0) = n; psi_n(0, 1) = +-1"
NONIDENTITY_CITATION = "n^2 < 8 (log(N)/2 + log(N^2 + 1)/4 + log(2)/12) / (log N + log(2)/2) <= 8 forces n = 1"
GROWTH_RATIO_CITATION = (
    "g(log N) <= 3 for N >= 56, g(x) = (x + log 2 + 1/(2e))(x + log 2 + 1/3)^3 (x + 2 log 2 / 9)(x + log 2) / x^6"
)
HDIFF_WINDOW_CITATION = (
    "-(1/2) log N - (1/4) log 2 <= hhat(P) - h(x_P)/2 <= (1/4) log(N^2 + 1) + (1/12) log 2"
)
FLOOR_WINDOW_CITATION = "hhat(P) >= (1/16) log(2 N^2) for non-torsion P"
N_CAP_CITATION = "n <= max{3.6e27, 9.196e23 (log N)^{5/2}} when nP is integral and N >= 56"
GAP_FLOOR_CITATION = "log n2 >= (n1^2/8) log N - log(N)/2 + log(omega1/2)"
THRESHOLD_CITATION = "largest N with gap_floor(11, N) below each multiplier-cap branch"
UPPER_WINDOW_CITATION = (
    "hhat(P) <= h(x_P)/2 + (1/3) log 2 for integral P on the unbounded real component (x >= N)"
)


def _square_free_primes(N: int) -> Tuple[int, ...]:
    """The primes of N from one factorization; ValueError unless N is a square-free positive integer."""
    factors = factor_int(N) if N >= 1 else {}
    if N < 1 or any(e > 1 for e in factors.values()):
        raise ValueError(f"N must be a square-free positive integer, got {N}")
    return tuple(factors)


def congruent_curve(N: int) -> Curve:
    """Validate N and build y^2 = x^3 - N^2 x; discriminant is 64 N^6 and j = 1728."""
    _square_free_primes(N)
    return make_curve(-N * N, 0)


class Ord2Prediction(NamedTuple):
    """Predicted 2-adic valuation; exact=False means a lower bound only."""

    value: int
    exact: bool


@dataclass(frozen=True)
class TableRow:
    """One N with its non-torsion integral points (y > 0, x ascending)."""

    N: int
    points: Tuple[RatPoint, ...]
    heights: Tuple[float, ...]
    ratio_ok: bool


@dataclass(frozen=True)
class IntegralPointTable:
    """Bounded-search table; exhaustiveness above x_max is not claimed."""

    rows: Tuple[TableRow, ...]
    N_max: int
    x_max: int

    def to_json(self) -> dict:
        return {
            "N_max": self.N_max,
            "x_max": self.x_max,
            "certified": False,
            "rows": [
                {
                    "N": row.N,
                    "points": [
                        {"x": int(P.x), "y": int(P.y), "hhat": float(h)}
                        for P, h in zip(row.points, row.heights)
                    ],
                    "ratio_ok": row.ratio_ok,
                }
                for row in self.rows
            ],
        }


def table_csv(table: IntegralPointTable) -> str:
    """CSV rendering with columns N,x,y,hhat; heights at 12 significant digits."""
    lines = ["N,x,y,hhat"]
    for row in table.rows:
        for P, h in zip(row.points, row.heights):
            lines.append(f"{row.N},{int(P.x)},{int(P.y)},{float(h):.12g}")
    return "\n".join(lines) + "\n"


def double_x(x: int, N: int) -> Fraction:
    """Exact abscissa of 2P for the integral point with abscissa x."""
    if x in (0, N, -N):
        raise TorsionInput(f"x = {x} is 2-torsion on y^2 = x^3 - {N}^2 x")
    return Fraction((x * x + N * N) ** 2, 4 * (x**3 - N * N * x))


def verify_double_not_integral(N: int, P: RatPoint) -> BoundReport:
    """Check ord_2(x(2P)) < 0, recording the parity case and its floor.

    Both-odd coordinates force ord_2 <= -2, both-even force ord_2 <= -1, and
    mixed parity forces ord_2 <= -2; any of them keeps 2P away from the
    integers.  A non-integral abscissa raises ValueError.
    """
    if P.x.denominator != 1:
        raise ValueError(f"abscissa {P.x} is not an integer")
    x = int(P.x)
    value = double_x(x, N)
    ord2 = valuation(value.numerator, 2) - valuation(value.denominator, 2)
    if x % 2 == 0 and N % 2 == 0:
        floor = -1
    else:
        floor = -2
    return BoundReport(
        name="double-not-integral",
        inputs={
            "N": N,
            "x": x,
            "ord2": ord2,
            "x_parity": x % 2,
            "N_parity": N % 2,
            "case_floor": floor,
        },
        threshold=float(floor),
        holds=ord2 <= floor,
        citation=DOUBLE_CITATION,
    )


def point_from_abscissa(N: int, x: Union[int, Fraction, str]) -> RatPoint:
    """The point (x, y) with y >= 0 on y^2 = x^3 - N^2 x, for a rational abscissa x.

    Raises ValueError when N is not a square-free positive integer, or when
    x^3 - N^2 x is negative (no real point) or not the square of a rational
    (no rational point).
    """
    _square_free_primes(N)
    q = Fraction(x)
    v = q**3 - N * N * q
    if v < 0:
        raise ValueError(f"abscissa {x} carries no real point for N = {N}")
    num, den = math.isqrt(v.numerator), math.isqrt(v.denominator)
    if num * num != v.numerator or den * den != v.denominator:
        raise ValueError(f"abscissa {x} carries no rational point for N = {N}")
    return rational_point(q, Fraction(num, den))


def ord2_profile(a: int, N: int, n: int) -> Ord2Prediction:
    """Predicted ord_2 of the n-th division value at an integral point (a, b).

    Odd n is fully covered: 0 for mixed parity, (n^2-1)/4 for a, N odd,
    3(n^2-1)/4 for a = 2 mod 4 with N even, (n^2-1)/2 for a = 0 mod 4 with N
    even.  Even n is guaranteed only in the both-odd case, as the lower bound
    n^2/4 + ord_2(b); the remaining even-n parity classes raise, since no
    displayed bound covers them (spot checks show the both-even analogue with
    the curve ordinate in place of b is false).
    """
    if n < 1:
        raise ValueError("n must be positive")
    b = int(point_from_abscissa(N, a).y)
    if b == 0:
        raise TorsionInput(f"abscissa {a} is 2-torsion on y^2 = x^3 - {N}^2 x")
    if n == 1:
        return Ord2Prediction(0, True)
    if n % 2 == 1:
        if a % 2 != N % 2:
            return Ord2Prediction(0, True)
        if a % 2 == 1:
            return Ord2Prediction((n * n - 1) // 4, True)
        if a % 4 == 2:
            return Ord2Prediction(3 * (n * n - 1) // 4, True)
        return Ord2Prediction((n * n - 1) // 2, True)
    if a % 2 == 1 and N % 2 == 1:
        return Ord2Prediction(n * n // 4 + valuation(b, 2), False)
    raise ParityMismatch(
        f"even n = {n} with parities (a, N) = ({a % 2}, {N % 2}) is outside the guaranteed cases"
    )


def binary_form_checks(N: int, n: int) -> BoundReport:
    """Sampled homogeneity and endpoint values of the two-variable division form."""
    if n % 2 == 0 or not 3 <= n <= 13:
        raise ValueError("n must be odd with 3 <= n <= 13")
    weight = (n * n - 1) // 2
    pairs = ((2, 1), (3, 2), (-1, 3), (5, 4), (-3, 7), (1, N))
    scales = (2, 3, -2, 5)
    homogeneous = all(
        psi_value_binary(n, t * x, t * m) == t**weight * psi_value_binary(n, x, m)
        for x, m in pairs
        for t in scales
    )
    at_10 = psi_value_binary(n, 1, 0)
    at_01 = psi_value_binary(n, 0, 1)
    holds = homogeneous and at_10 == n and abs(at_01) == 1
    return BoundReport(
        name="binary-form",
        inputs={
            "N": N,
            "n": n,
            "weight": weight,
            "samples": len(pairs) * len(scales),
            "value_10": at_10,
            "value_01": at_01,
        },
        threshold=None,
        holds=holds,
        citation=BINARY_FORM_CITATION,
    )


def hn_cap(N: int, n: int) -> int:
    """Size cap (2N)^((n^2-1)/2) on the n-th division value when nP is integral."""
    if n % 2 == 0:
        raise ValueError("cap stated for odd n")
    return (2 * N) ** ((n * n - 1) // 2)


def multiplier_height_cap(n: int, N: int) -> float:
    """Cap log n + log(N)/2 + log(2)/3 on hhat(P) when nP is integral."""
    if n < 2:
        raise ValueError("need n >= 2")
    return math.log(n) + math.log(N) / 2 + math.log(2) / 3


def _growth_factors(ctx) -> Tuple[object, ...]:
    log2 = ctx.ln(2)
    third = ctx.mpf(1) / 3
    return (
        log2 + 1 / (2 * ctx.e),
        log2 + third,
        log2 + third,
        log2 + third,
        2 * log2 / 9,
        log2,
    )


def growth_poly() -> Tuple[object, ...]:
    """Degree-6 comparison polynomial of the large-n branch, lowest degree first.

    P(x) = (2592 e C / log 56) (x + log 2 + 1/(2e)) (x + log 2 + 1/3)^3
    (x + 2 log 2 / 9) (x + log 2) with C the linear-form floor constant.
    """
    ctx = context(bounds.EVAL_BITS)
    prefactor = 2592 * ctx.e * bounds.DAVID_C / ctx.ln(56)
    poly = [ctx.mpf(1)]
    for root in _growth_factors(ctx):
        widened = [ctx.mpf(0)] * (len(poly) + 1)
        for i, coeff in enumerate(poly):
            widened[i] += root * coeff
            widened[i + 1] += coeff
        poly = widened
    return tuple(prefactor * coeff for coeff in poly)


def growth_ratio(x):
    """g(x): the growth polynomial without its prefactor, divided by x^6."""
    ctx = context(bounds.EVAL_BITS)
    xv = ctx.mpf(x)
    product = ctx.mpf(1)
    for root in _growth_factors(ctx):
        product *= xv + root
    return product / xv**6


def growth_ratio_check(N: int) -> BoundReport:
    """Check g(log N) <= 3, the step that turns the degree-6 cap into a (log N)^{5/2} cap."""
    if N < 56:
        raise ValueError("stated for N >= 56")
    value = growth_ratio(context(bounds.EVAL_BITS).ln(N))
    return BoundReport(
        name="growth-ratio",
        inputs={"N": N, "g": float(value)},
        threshold=3.0,
        holds=bool(value <= 3),
        citation=GROWTH_RATIO_CITATION,
    )


def n_cap(N: int) -> BoundReport:
    """Cap max{3.6e27, 9.196e23 (log N)^{5/2}} on multipliers with nP integral, N >= 56; inputs carry g(log N) <= 3."""
    if N < 56:
        raise ValueError("smaller N is handled by the table search")
    ratio = growth_ratio_check(N)
    inputs = {"N": N, "g": ratio.inputs["g"], "g_holds": ratio.holds}
    return value_report("n-cap-congruent", inputs, max(N_CAP_SMALL, N_CAP_COEFF * math.log(N) ** 2.5), N_CAP_CITATION)


@lru_cache(maxsize=None)
def _log_half_omega_one():
    """log(omega1/2) for y^2 = x^3 - x at 128 bits, the constant term of every gap floor."""
    ctx = context(bounds.EVAL_BITS)
    return ctx.ln(analytic.period_data(make_curve(-1, 0), bounds.EVAL_BITS).omega / 2)


def _gap_floor_value(n1: int, N: int) -> float:
    ctx = context(bounds.EVAL_BITS)
    logn = ctx.ln(N)
    return float(ctx.mpf(n1) ** 2 / 8 * logn - logn / 2 + _log_half_omega_one())


def gap_floor(n1: int, N: int) -> BoundReport:
    """Floor (n1^2/8) log N - log(N)/2 + log(omega1/2) on log n2 for a second multiple."""
    if n1 < 2:
        raise ValueError("need n1 >= 2")
    if N < 1:
        raise ValueError("need N >= 1")
    return value_report("gap-floor", {"n1": n1, "N": N}, _gap_floor_value(n1, N), GAP_FLOOR_CITATION)


def _last_true(predicate, lo: int, hi: int, start: int) -> Optional[int]:
    """Largest N in [lo, hi) with predicate(N), for a predicate that holds on a prefix of [lo, hi).

    Gallops from start, clamped into [lo, hi), by steps 1, 2, 4, ... toward
    the boundary, then bisects the bracket it found.  Throughout, yes is
    lo - 1 or an N where the predicate holds, and no is hi or an N where it
    fails.  On a prefix predicate every N <= yes holds and every N >= no
    fails, so the answer lies in [yes, no) whatever the start, and the result
    is the linear scan's.  A start k away from the answer costs about
    2 log2 k evaluations; a start next to it costs two.
    """
    if lo >= hi:
        return None
    start = min(max(start, lo), hi - 1)
    step = 1
    if predicate(start):
        yes, no = start, hi
        while yes + step < hi:
            if not predicate(yes + step):
                no = yes + step
                break
            yes += step
            step *= 2
    else:
        yes, no = lo - 1, start
        while no - step >= lo:
            if predicate(no - step):
                yes = no - step
                break
            no -= step
            step *= 2
    while no - yes > 1:
        mid = (yes + no) // 2
        if predicate(mid):
            yes = mid
        else:
            no = mid
    return yes if yes >= lo else None


def resolve_N_threshold() -> BoundReport:
    """Largest N in [2, 5000) compatible with each branch of the multiplier cap at n1 = 11.

    Branch one compares the gap floor against log(3.6e27), branch two against
    log(9.196e23 (log N)^{5/2}).  Each branch holds on a prefix of N, so
    _last_true finds the last N where it holds, or None where it fails
    already at N = 2.  The report's inputs are branch1 and branch2, and its
    threshold is branch one's N.  The floor is a log N + b, with
    a = 121/8 - 1/2 and b = log(omega1/2), which increases, so branch one's
    margin decreases.  Branch two's margin
    log(9.196e23) + (5/2) log log N - floor has derivative
    (2.5 / log N - 14.625) / N < 0 for N >= 2, since 2.5 / log 2 < 3.61.
    Consecutive floors differ by 14.625 log(1 + 1/N), far above the rounding
    of the returned float for any N below 10^12, so the computed predicates
    are monotone too and _last_true returns what a linear scan returns.

    Each search starts at the floor of its branch's solution in floats:
    branch one's at y = (log(3.6e27) - b) / a with y = log N, branch two's
    a y + b = log(9.196e23) + 2.5 log y by Newton steps from branch one's y,
    which lies above its root (the equation is convex and increasing in y
    there, so the steps fall monotonically onto it).  A start next to the
    boundary costs two floor evaluations per branch; a wrong start costs more
    evaluations, never a different answer.
    """
    ctx = context(bounds.EVAL_BITS)
    cap_small = ctx.ln(ctx.mpf(N_CAP_SMALL))
    a, b = 11**2 / 8 - 0.5, float(_log_half_omega_one())
    y1 = (math.log(N_CAP_SMALL) - b) / a
    y2 = y1
    for _ in range(4):
        y2 -= (a * y2 + b - math.log(N_CAP_COEFF) - 2.5 * math.log(y2)) / (a - 2.5 / y2)
    branch1 = _last_true(lambda N: _gap_floor_value(11, N) <= cap_small, 2, 5000, int(math.exp(y1)))
    branch2 = _last_true(
        lambda N: _gap_floor_value(11, N) <= ctx.ln(ctx.mpf(N_CAP_COEFF) * ctx.ln(N) ** ctx.mpf("2.5")),
        2,
        5000,
        int(math.exp(y2)),
    )
    return value_report("threshold-N", {"branch1": branch1, "branch2": branch2}, branch1, THRESHOLD_CITATION)


def nonidentity_multiplier(N: int, P: RatPoint, n: int) -> BoundReport:
    """Integral multiples on the bounded real component force multiplier 1.

    The citation is about that component, -N <= x <= 0; a point off it raises
    NotBoundedComponent.
    """
    if P.is_infinity or not -N <= P.x <= 0:
        raise NotBoundedComponent(f"x = {P.x} lies off the bounded component -{N} <= x <= 0")
    if n < 1:
        raise ValueError("need n >= 1")
    bound = (
        8
        * (math.log(N) / 2 + math.log(N * N + 1) / 4 + math.log(2) / 12)
        / (math.log(N) + math.log(2) / 2)
    )
    return BoundReport(
        name="nonidentity-multiplier",
        inputs={"N": N, "x": float(P.x), "n": n, "n_squared": n * n, "chain_bound": bound},
        threshold=bound,
        holds=n == 1,
        citation=NONIDENTITY_CITATION,
    )


def height_windows(N: int, P: RatPoint, hhat: float) -> Tuple[BoundReport, BoundReport, BoundReport]:
    """Three explicit windows pinning hhat against the naive height on y^2 = x^3 - N^2 x.

    The difference window bounds hhat(P) - h(x_P)/2 on both sides, the floor
    window keeps non-torsion heights above (1/16) log(2 N^2), and the upper
    window caps hhat by h(x_P)/2 + (1/3) log 2.  The upper window applies only
    to integral abscissas x >= N: the bounded oval genuinely violates it.
    hhat is the canonical height of P, which the caller has computed.
    """
    _square_free_primes(N)
    if P.x in (0, N, -N):
        raise TorsionInput(f"x = {P.x} is 2-torsion on y^2 = x^3 - {N}^2 x")
    half_naive = naive_height(P.x) / 2
    diff = hhat - half_naive
    lower = -math.log(N) / 2 - math.log(2) / 4
    upper = math.log(N * N + 1) / 4 + math.log(2) / 12
    hdiff = BoundReport(
        name="height-difference-window",
        inputs={"N": N, "hhat": hhat, "difference": diff, "lower": lower, "upper": upper},
        threshold=upper,
        holds=lower <= diff <= upper,
        citation=HDIFF_WINDOW_CITATION,
    )
    floor_value = math.log(2 * N * N) / 16
    floor = BoundReport(
        name="height-floor-window",
        inputs={"N": N, "hhat": hhat, "floor": floor_value},
        threshold=floor_value,
        holds=hhat >= floor_value,
        citation=FLOOR_WINDOW_CITATION,
    )
    cap_value = half_naive + math.log(2) / 3
    on_unbounded = P.x.denominator == 1 and P.x >= N
    cap = BoundReport(
        name="height-upper-window",
        inputs={"N": N, "hhat": hhat, "cap": cap_value},
        threshold=cap_value,
        holds=hhat <= cap_value if on_unbounded else None,
        citation=UPPER_WINDOW_CITATION,
    )
    return hdiff, floor, cap


# Pairwise coprime sieve moduli, each at most 256 so that a residue fits a
# byte.  64, 63 and 65 come first, as squares are rarest among their residues
# (12/64, 16/63, 21/65); then the primes from 11, without 13, which divides 65.
_SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_SIEVE_BLOCK = 1 << 14


def _sieve_rows() -> Tuple[Tuple[int, Tuple[bytes, ...], bytes], ...]:
    """Per modulus m: the rows c a^4 mod m over a in [0, m), one per c in [0, m), and the square flags mod m.

    The row for c > 0 maps a^4 mod m through t -> c t mod m, which is every
    c-th byte of the first c copies of 0..m-1; the c = 0 row is all zeros.
    """
    rows = []
    for m in _SIEVE_MODULI:
        fourth = bytes(pow(a, 4, m) for a in range(m))
        ramp, pad = bytes(range(m)) * m, bytes(256 - m)
        scaled = (bytes(m),) + tuple(fourth.translate(ramp[: m * c : c] + pad) for c in range(1, m))
        square = bytearray(m)
        for b in range(m):
            square[b * b % m] = 1
        rows.append((m, scaled, bytes(square)))
    return tuple(rows)


_SIEVE_ROWS = _sieve_rows()


def _square_cofactor_masks(c3: int, c0: int, count: int, block: int) -> List[Tuple[int, bytes]]:
    """Residue masks for w(a) = c3 a^4 + c0, tiled to cover any block of a.

    For each modulus m the byte at a mod m is 1 when w(a) mod m is a square
    mod m, so a 0 proves w(a) is no square.  The byte is square[(v + c0) mod m]
    at v = c3 a^4 mod m, read from the precomputed row of c3 mod m through a
    rotated copy of the square flags.  Moduli that reject nothing are
    skipped, and moduli are added until the expected number of survivors
    among `count` values of a, taking the residues as independent (the moduli
    are coprime), falls below one.
    """
    masks = []
    expected = float(count)
    for m, scaled, square in _SIEVE_ROWS:
        if expected < 1:
            break
        dm = c0 % m
        row = scaled[c3 % m].translate(square[dm:] + square[:dm] + bytes(256 - m))
        kept = row.count(1)
        if kept < m:
            masks.append((m, row * (block // m + 2)))
            expected *= kept / m
    return masks


def _sieve_survivors(c3: int, c0: int, lo: int, hi: int) -> Iterator[int]:
    """The a in [lo, hi], ascending, at which c3 a^4 + c0 passes every residue mask, one block at a time."""
    count = hi - lo + 1
    if count < 1:
        return
    block = min(_SIEVE_BLOCK, count)
    masks = _square_cofactor_masks(c3, c0, count, block)
    for start in range(lo, hi + 1, block):
        size = min(block, hi + 1 - start)
        alive = int.from_bytes(b"\x01" * size, "big")
        for m, tiled in masks:
            offset = start % m
            alive &= int.from_bytes(tiled[offset : offset + size], "big")
        survivors = alive.to_bytes(size, "big")
        i = survivors.find(1)
        while i >= 0:
            yield start + i
            i = survivors.find(1, i + 1)


def search_integral_points(N: int, x_max: int) -> List[RatPoint]:
    """All integral non-torsion (x, y), y > 0, with -N <= x <= x_max, x ascending.

    Descent (Silverman, AEC X.1): if a prime p divides x but not N, then
    x - N and x + N are prime to p, so ord_p(x) = ord_p(y^2) is even.  Every
    prime with odd valuation in x therefore divides N, and x = +-s a^2 with
    s | N square-free; s is the square-free part of |x|, so each abscissa
    arises once.  Then x^3 - N^2 x = a^2 w with w = +-s (s^2 a^4 - N^2), so
    x carries a point exactly when w is a positive square, and y = a isqrt(w).
    w > 0 means N < s a^2 <= x_max for x > 0 and s a^2 < N on the bounded
    oval; the 2-torsion abscissas 0, +-N and 0 < x < N fall outside these
    ranges, so any x_max >= 1 is a window.

    The a of each range are sieved before any exact test (Stoll's ratpoints,
    Elkies ANTS IV): for small moduli m (64, 63, 65 and the primes 11 to 97
    but 13) a row over a mod m marks whether w(a) is a square mod m, and the
    rows, tiled across a block of a, are ANDed as big ints.  A perfect square
    is a square modulo every m, so a rejected a provably carries no point;
    each survivor is kept only when isqrt(w)^2 == w, so every hit is proven
    exactly.  Moduli are added until fewer than one survivor is expected over
    the range.  The a run in blocks of _SIEVE_BLOCK, and a row depends only on
    m and the residues of c3 and c0, read from tables built once at import,
    so memory does not grow with x_max.
    """
    primes = _square_free_primes(N)
    if x_max < 1:
        raise ValueError("x_max must be at least 1")
    divisors = [1]
    for p in primes:
        divisors += [d * p for d in divisors]
    N2 = N * N
    hits = []
    for s in divisors:
        ranges = ((1, math.isqrt(N // s) + 1, math.isqrt(x_max // s)), (-1, 1, math.isqrt((N - 1) // s)))
        for sign, lo, hi in ranges:
            c3, c0 = sign * s**3, -sign * s * N2
            for a in _sieve_survivors(c3, c0, lo, hi):
                w = c3 * a**4 + c0
                r = math.isqrt(w)
                if r * r == w:
                    hits.append((sign * s * a * a, a * r))
    return [rational_point(x, y) for x, y in sorted(hits)]


def reproduce_table(N_max: int = 75, x_max: int = 10**6) -> IntegralPointTable:
    """Rebuild the integral-point table for square-free N <= N_max.

    Rows appear only for N with non-torsion integral points; each row carries
    canonical heights at canonical_height's default tolerance (doubling depth
    19 for every N <= 75, the depth of the golden file) and the pairwise
    check that no height reaches 121 times another (which would allow one
    point to be a multiple of another).
    The square-free N come from a sieve, so the search's validation is the
    only factorization of each N.

    Each N computes one height per 2-torsion class {P + T : T in E[2]}: the
    points of a class share x(2P), as 2T = O, and canonical_height's float
    depends only on the curve and x(2P), so a point whose x(2P) is already
    in the call's class_heights reuses that float, exactly.  Two points with
    the same x(2P) differ by 2-torsion up to sign, so both are torsion or
    neither is.  Nothing is kept across calls.
    """
    square_free = [True] * (N_max + 1)
    for p in range(2, math.isqrt(max(N_max, 0)) + 1):
        square_free[p * p :: p * p] = [False] * (N_max // (p * p))
    rows = []
    for N in range(1, N_max + 1):
        if not square_free[N]:
            continue
        points = search_integral_points(N, x_max)
        if not points:
            continue
        c = make_curve(-N * N, 0)
        class_heights = {}  # x(2P) -> the height of P's 2-torsion class
        heights = []
        for P in points:
            walk = Multiples(c, P)
            key = walk[2]
            if key not in class_heights:
                class_heights[key] = float(canonical_height(walk))
            heights.append(class_heights[key])
        ratio_ok = all(hp < HEIGHT_RATIO_LIMIT * hq for hp in heights for hq in heights)
        rows.append(TableRow(N, tuple(points), tuple(heights), ratio_ok))
    return IntegralPointTable(tuple(rows), N_max, x_max)
