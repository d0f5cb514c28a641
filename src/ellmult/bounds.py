"""Evaluators for the explicit inequalities behind the multiplier caps.

Every implied constant is surfaced as an explicit argument or module constant;
nothing here hides a constant inside an algorithm.  Each inequality evaluator
returns a BoundReport: the inequality it certifies, spelled out, every input
that went into it, and for a cap or floor its value as the threshold (None
where no bound applies).
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

from ._precision import context
from .errors import InadmissibleParameters
from .reports import BoundReport, value_report

DAVID_C = 4 * 10**41
EVAL_BITS = 128
N_CAP_HEIGHT_FLOOR = 2 * math.pi * math.sqrt(3)
CROSSING_LOG_CEILING = 750.0

MULTIPLE_HEIGHT_CITATION = "hhat(P) <= log n + (16 M^2 / 3 + 2) h(E) when nP is integral"
CALCULUS_CITATION = "x^2 - a log x - b >= 0 for every x >= max{e, a + b}"
POLY_GROWTH_CITATION = "W^2 > 2^-k P^(k)(log W) for k = 0..deg implies x^2 > P(log x) for x >= W"
DAVID_CITATION = "log|L| >= -C (log B + 1)(log log B + h(E) + 1)^3 log V1 log V2, C = 4x10^41"
UPPER_FORM_CITATION = "log|L_{n,m}(z, omega)| <= -c1 n^2 h(E) for n beyond the regime constant"
GAP_RELATION_CITATION = "c1 n1^2 h(E) + log(omega) - log(2) <= log n2"
COMPOSITE_CAP_CITATION = "a <= max{e, (1/C_lam)(1/h(E) + 16 M^2 / 3 + 2)} for composite n = a b"
N_CAP_GENERAL_CITATION = "n with nP integral is capped once h(E) >= 2 pi sqrt(3); below that no cap is emitted"


def lang_constant(M: int) -> float:
    """Height-floor constant 1/(10^5 M^6)."""
    return 1.0 / (10**5 * M**6)


def linear_form_constant(M: int) -> float:
    """Default c1: half the height-floor constant."""
    return lang_constant(M) / 2


def linear_form_regime(M: int) -> float:
    """Default c2: the linear-form cap is valid for n >= sqrt(6 / C_lam)."""
    return math.sqrt(6 / lang_constant(M))


def multiple_height_cap(n: int, M: int, hE: float) -> BoundReport:
    """Cap log n + (16 M^2/3 + 2) h(E) on hhat(P), valid when nP is integral."""
    if n < 2 or M < 1:
        raise ValueError("need n >= 2 and M >= 1")
    if hE <= 0:
        raise ValueError("need hE > 0")
    cap = math.log(n) + (16 * M * M / 3 + 2) * hE
    return value_report("multiple-height-cap", {"n": n, "M": M, "hE": hE}, cap, MULTIPLE_HEIGHT_CITATION)


def calculus_threshold(a: float, b: float) -> BoundReport:
    """Point beyond which x^2 - a log x - b stays nonnegative: max{e, a + b}."""
    if a < 0 or b < 0:
        raise ValueError("coefficients must be nonnegative")
    return value_report("calculus", {"a": a, "b": b}, max(math.e, a + b), CALCULUS_CITATION)


def _derivative(coeffs: Sequence[float]) -> List[float]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def poly_growth_check(coeffs: Sequence[float], W: float) -> BoundReport:
    """Check W^2 > 2^-k P^(k)(log W) for all k up to the degree.

    Passing certifies x^2 > P(log x) for every x >= W.  Coefficients are
    lowest-degree first; degree at most 8.
    """
    degree = len(coeffs) - 1
    if degree > 8:
        raise ValueError("degree must be at most 8")
    if W <= 0:
        raise ValueError("W must be positive")
    ctx = context(EVAL_BITS)
    logw = ctx.ln(W)
    current = [ctx.mpf(c) for c in coeffs]
    worst = None
    holds = True
    for k in range(degree + 1):
        value = ctx.polyval(list(reversed(current)), logw) / 2**k
        worst = value if worst is None else max(worst, value)
        if not W * W > value:
            holds = False
        current = _derivative(current)
    return BoundReport(
        name="poly-growth",
        inputs={"W": float(W), "degree": degree, "max_term": float(worst)},
        threshold=float(ctx.mpf(W) ** 2),
        holds=holds,
        citation=POLY_GROWTH_CITATION,
    )


def david_admissible(
    logB: float,
    logV1: float,
    logV2: float,
    hE: float,
    tau_im: float,
    hhat: float,
    z_abs: float,
    omega: float,
    n: int,
    m: int,
) -> bool:
    """All admissibility inequalities on (B, V1, V2) for the linear-form floor."""
    pi = math.pi
    if logV2 < max(hE, 3 * pi / tau_im):
        return False
    if logV1 < max(2 * hhat, hE, 3 * pi * z_abs**2 / (omega**2 * tau_im), logV2):
        return False
    log_n = math.log(n) if n > 1 else 0.0
    log_m = math.log(abs(m)) if abs(m) > 1 else 0.0
    return logB >= max(math.e * hE, log_n, log_m, logV1)


def david_floor_log(logB: float, logV1: float, logV2: float, hE: float) -> BoundReport:
    """The floor on log|L| from log-space sizes; raises on ordering violations.

    Only the internally checkable ordering (log B >= log V1 >= log V2 >= h(E)
    and log B >= e h(E)) is enforced here; the point-dependent conditions live
    in david_admissible.
    """
    if not (logB >= logV1 >= logV2 >= hE and logB >= math.e * hE):
        raise InadmissibleParameters(
            f"need log B >= log V1 >= log V2 >= h(E) and log B >= e h(E); got {logB}, {logV1}, {logV2}, hE={hE}"
        )
    if hE <= 0:
        raise ValueError("need hE > 0")
    ctx = context(EVAL_BITS)
    lb = ctx.mpf(logB)
    floor = -DAVID_C * (lb + 1) * (ctx.ln(lb) + hE + 1) ** 3 * logV1 * logV2
    inputs = {"logB": logB, "logV1": logV1, "logV2": logV2, "hE": hE, "C": float(DAVID_C)}
    return value_report("david-floor", inputs, floor, DAVID_CITATION)


def crossing_point(rhs: Callable[[object], object]) -> float:
    """Largest x >= 2 with x^2 <= rhs(x), for rhs growing slower than x^2.

    Bisection runs on y = log x <= CROSSING_LOG_CEILING, so astronomically
    large crossings cost the same as small ones.  It stops once both ends of
    the bracket round to the same float, at most EVAL_BITS + 64 steps: every
    later lower end lies inside the bracket, and exp and the rounding to
    float are monotone, so further steps return that same float.
    """
    ctx = context(EVAL_BITS)

    def short(y, x):
        # positive once x^2 has overtaken rhs(x), x = exp(y)
        return 2 * y - ctx.ln(rhs(x))

    lo_y = ctx.ln(2)
    lo_x = ctx.exp(lo_y)
    if short(lo_y, lo_x) > 0:
        return 2.0
    hi_y = lo_y + 1
    hi_x = ctx.exp(hi_y)
    while short(hi_y, hi_x) <= 0:
        hi_y += 50
        if hi_y > CROSSING_LOG_CEILING:
            raise ValueError("no crossing below the search ceiling")
        hi_x = ctx.exp(hi_y)
    for _ in range(EVAL_BITS + 64):
        if float(lo_x) == float(hi_x):
            break
        mid = (lo_y + hi_y) / 2
        x = ctx.exp(mid)
        if short(mid, x) <= 0:
            lo_y, lo_x = mid, x
        else:
            hi_y, hi_x = mid, x
    return float(lo_x)


def n_cap_general(M: int, hE: float) -> BoundReport:
    """Cap on multipliers n with nP integral, for curves with h(E) >= 2 pi sqrt(3).

    Both branches of the proof are solved at instance level: the small-n
    branch fixes log B = log V1 = (11 M^2 + 6) h(E), the large-n branch takes
    log B = log V1 = 2 log n + (11 M^2 + 4) h(E) and locates the crossover of
    n^2 against the resulting floor.  Below h(E) = 2 pi sqrt(3) no cap applies.
    """
    if M < 1:
        raise ValueError("need M >= 1")
    inputs = {"M": M, "hE": hE, "height_floor": N_CAP_HEIGHT_FLOOR}
    if hE < N_CAP_HEIGHT_FLOOR:
        return value_report("n-cap-general", inputs, None, N_CAP_GENERAL_CITATION)
    ctx = context(EVAL_BITS)
    c1 = linear_form_constant(M)
    ratio = DAVID_C / c1
    b1 = 11 * M * M + 6
    b2 = 11 * M * M + 4
    logB = ctx.mpf(b1) * hE
    cap1 = ctx.sqrt(ratio * (logB + 1) * (ctx.ln(logB) + hE + 1) ** 3 * b1 * hE)

    def rhs(x):
        L = 2 * ctx.ln(x) + b2 * hE
        return ratio * (L + 1) * (ctx.ln(L) + hE + 1) ** 3 * L

    cap2 = crossing_point(rhs)
    return value_report("n-cap-general", inputs, max(cap1, cap2), N_CAP_GENERAL_CITATION)


def upper_form_bound(n: int, c1: float, hE: float) -> BoundReport:
    """Upper bound -c1 n^2 h(E) on log|L| when nP is integral and n is large."""
    if n < 1 or c1 <= 0:
        raise ValueError("need n >= 1 and c1 > 0")
    if hE <= 0:
        raise ValueError("need hE > 0")
    return value_report("upper-form", {"n": n, "c1": c1, "hE": hE}, -c1 * n * n * hE, UPPER_FORM_CITATION)


def gap_relation(n1: int, n2: int, hE: float, c1: float, omega: float) -> BoundReport:
    """Check c1 n1^2 h(E) + log(omega/2) <= log n2 for a second integral multiple."""
    if not n1 < n2:
        raise ValueError("need n1 < n2")
    if omega <= 0:
        raise ValueError("omega must be positive")
    if n1 < 1 or hE <= 0:
        raise ValueError("need n1 >= 1 and hE > 0")
    threshold = c1 * n1 * n1 * hE + math.log(omega) - math.log(2)
    return BoundReport(
        name="gap-relation",
        inputs={"n1": n1, "n2": n2, "hE": hE, "c1": c1, "omega": omega, "log_n2": math.log(n2)},
        threshold=threshold,
        holds=math.log(n2) >= threshold,
        citation=GAP_RELATION_CITATION,
    )


def composite_cap(M: int, hE: float, Clam: float) -> BoundReport:
    """Cap on the smaller factor of a composite multiplier with an integral multiple."""
    if M < 1 or hE <= 0:
        raise ValueError("need M >= 1 and hE > 0")
    if Clam <= 0:
        raise ValueError("Clam must be positive")
    cap = max(math.e, (1 / Clam) * (1 / hE + 16 * M * M / 3 + 2))
    return value_report("composite-cap", {"M": M, "hE": hE, "Clam": Clam}, cap, COMPOSITE_CAP_CITATION)
