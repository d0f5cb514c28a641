"""Real periods, lattice ratio, elliptic logarithms, and torsion abscissas.

period_data is the one public period route.  It computes the real period
twice, on purpose, by two independent routes: one AGM routine, _agm_lattice,
which also gives the second lattice generator, and Carlson's symmetric
integral, omega = 2 R_F(0, e1 - e2, e1 - e3).  It refuses to return unless
they agree.  The elliptic logarithm is R_F(x - e1, x - e2, x - e3), half the
integral of 1/sqrt(f) from x to infinity.

Both start from the roots e1, e2, e3 of x^3 + A x + B, isolated exactly in
integers (_brackets): each real root is bracketed inside Fujiwara's bound by
the sign of g(x) = x^3 + A x + B and, with three real roots, by the side of
the critical points +-sqrt(-A/3) a point lies on; Newton steps in fixed point,
with bisection where Newton's iterates could pass the root, narrow the
bracket, and the scale doubles the root's own bits from one bracket to the
next.  A root is returned once both ends of its bracket round to the same
value at the working precision, which is then the correctly rounded root; an
integer root is found exactly.  With one real root the complex pair is
-e1/2 +- i sqrt(3 e1^2 + 4A)/2, its imaginary part bounded from the same
brackets until it too is certified.  No step count is capped: for a
nonsingular curve the isolation always ends.

Both routes read the root differences, and the elliptic logarithm x - e1,
x - e2, x - e3 (_differences): the roots are isolated again at a wider
precision while one of them has lost too many bits at the working one.  R_F is
_carlson_rf: Carlson's duplication on Python integers in fixed point, stopped
on Carlson's explicit truncation bound (Carlson, Numer. Algorithms 10, 1995;
DLMF 19.36(i)), then a fifth-order series, and one rounding of one integer to
the working precision.  With one real root its last two arguments are complex
conjugates and R_F is real.

All precision is explicit: period_data's precision_bits plus guard bits,
handed on in its PeriodData; nothing reads ambient mpmath state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, List, Optional, Tuple

from ._precision import context
from .curves import Curve, RatPoint
from .divpoly import psi_polynomial
from .errors import InternalInvariantError, NotIdentityComponent, PrecisionExhausted

GUARD_BITS = 32


@dataclass(frozen=True)
class PeriodData:
    """Real period by AGM and by Carlson's R_F, a second lattice generator, and the reduced lattice ratio.

    tau lives in the fundamental domain (im > 0, |tau| >= 1, |re| <= 1/2); when
    the reduction lands on the domain boundary the representative reached by
    the reduction is kept and described in boundary_note.  elliptic_log and
    weierstrass_point read the curve, precision_bits and the cubic's roots
    (e1, e2, e3) from here.  The periods document prints omega_carlson under
    its ellmult/1 key omega_quadrature_str, which the fixed schema keeps.
    """

    curve: Curve
    precision_bits: int
    omega: object
    omega_carlson: object
    omega2: object
    tau: object
    roots: Tuple[object, object, object]
    boundary_note: Optional[str] = None


@dataclass(frozen=True)
class LinearForm:
    """Value of n*z + m*omega for the principal (minimizing) choice of m."""

    n: int
    m: int
    value: object


def _cubic_roots(c: Curve, ctx) -> Tuple[object, object, object]:
    """Roots of x^3 + A x + B as (e1, e2, e3), each part correctly rounded to ctx.prec; e1 is the largest real root.

    Positive discriminant means three real roots sorted descending; otherwise
    e1 is the single real root and (e2, e3) = -e1/2 +- i sqrt(3 e1^2 + 4A)/2,
    the pair with positive imaginary part first.  Each real root is taken from
    the brackets of _brackets until both ends round to one value; the pair's
    imaginary part is bounded from the same brackets of e1.
    """
    if c.discriminant > 0:
        return tuple(_real_root(c, ctx, branch) for branch in (1, 0, -1))
    for lo, hi, k in _brackets(c, -1 if c.B > 0 else 1, ctx.prec + 8):
        e1 = _rounded(ctx, lo, hi, k)
        if e1 is None:
            continue
        # 3 e1^2 + 4A at scale 4^k over the bracket, which no longer straddles 0
        four_a = c.A << 2 * k + 2
        q_lo = 3 * min(lo * lo, hi * hi) + four_a
        q_hi = 3 * max(lo * lo, hi * hi) + four_a
        im = _rounded(ctx, math.isqrt(q_lo), math.isqrt(q_hi - 1) + 1, k + 1) if q_lo > 0 else None
        if im is not None:
            re = -ctx.ldexp(e1, -1)
            return e1, ctx.mpc(re, im), ctx.mpc(re, -im)


def _real_root(c: Curve, ctx, branch: int):
    """The real root of c on branch (see _brackets), correctly rounded to ctx.prec."""
    for lo, hi, k in _brackets(c, branch, ctx.prec + 8):
        root = _rounded(ctx, lo, hi, k)
        if root is not None:
            return root


def _rounded(ctx, lo: int, hi: int, k: int):
    """lo / 2^k rounded to ctx.prec when hi / 2^k rounds to the same value, else None.

    Two distinct ends round apart while the smaller fits in ctx.prec bits.
    """
    if hi != lo and min(abs(lo), abs(hi)).bit_length() <= ctx.prec:
        return None
    value = ctx.mpf(lo)
    if hi != lo and ctx.mpf(hi) != value:
        return None
    return ctx.ldexp(value, -k)


def _root_bound(c: Curve) -> int:
    """j >= 0 with every root of x^3 + A x + B strictly inside (-4^j, 4^j).

    Fujiwara's bound puts every root below 2 max(|A|^(1/2), |B|^(1/3)).
    """
    return max(-(-(4 * abs(c.A)).bit_length() // 4), -(-(8 * abs(c.B)).bit_length() // 6))


def _brackets(c: Curve, branch: int, bits: int) -> Iterator[Tuple[int, int, int]]:
    """Nested brackets (lo, hi, k) of one real root r of g(x) = x^3 + A x + B, for k growing without end.

    lo / 2^k < r < hi / 2^k with hi = lo + 1, or r = lo / 2^k = hi / 2^k
    exactly.  branch picks the root: 1, 0 and -1 are the largest, middle and
    smallest of three real roots; a single real root is branch 1 when B <= 0,
    so r >= 0, and -1 when B > 0.  Every root lies inside (-R, R), R = 4^j
    with j = _root_bound(c), and a point is placed against r exactly: by the
    sign of g where x lies on the branch of g that r lies on, and otherwise by
    that of g' = 3x^2 + A (which side of the critical points +-sqrt(-A/3)).

    Within a bracket, a point x on r's branch with g(x) g''(x) > 0 takes a
    Newton step x - g(x)/g'(x), rounded towards x, and at least one unit:
    from such a point Newton's iterates approach r from one side and never
    pass it.  Any other point is followed by the midpoint.  The bracket
    shrinks at every step, so each scale ends.  Its bracket of width one at
    scale 2^k becomes the bracket of the next scale, with about twice the
    relative precision until that reaches bits, and 16 bits more per scale
    past it.  An exact root of a monic integer cubic is an integer, which
    every scale k >= 0 hits.
    """
    A, B = c.A, c.B
    R = 1 << 2 * _root_bound(c)
    lo, hi, x, k = -R - 1, R + 1, R * branch, 0
    while True:
        a, b = A << 2 * k, B << 3 * k
        while hi - lo > 1:
            xx = x * x
            gx, dx = x * (xx + a) + b, 3 * xx + a
            if branch == 0:
                own = dx < 0  # inside (-sqrt(-A/3), sqrt(-A/3)), where g decreases
                side = (gx < 0) - (gx > 0) if own else (1 if x > 0 else -1)
            else:
                own = dx >= 0 and x * branch >= 0
                side = (gx > 0) - (gx < 0) if own else -branch
            if side == 0:
                lo = hi = x
                break
            if side < 0:
                lo = x
            else:
                hi = x
            if own and gx * x > 0:
                x -= side * max(abs(gx) // abs(dx), 1)
            else:
                x = (lo + hi) >> 1
        yield lo, hi, k
        t = min(abs(lo), abs(hi)).bit_length()
        shift = min(t, max(bits - t, 16)) if t > 16 else k + 16
        lo, hi, k = lo << shift, hi << shift, k + shift
        x = (lo + hi) >> 1


def _differences(c: Curve, ctx, roots, pairs) -> Tuple[object, ...]:
    """a - b to ctx.prec for each (a, b) in pairs(wide, roots), with wide and roots at precision q, from ctx.prec.

    A difference taken at q keeps q bits less as many as its magnitude lies
    below the largest operand's (none at 0).  While one keeps more than half
    of GUARD_BITS fewer than ctx.prec, c's roots are isolated again at twice q.
    """
    q = ctx.prec
    while True:
        operands = pairs(context(q), roots)
        diffs = tuple(ctx.fsub(a, b) for a, b in operands)
        top = max(ctx.mag(t) for pair in operands for t in pair)
        if q - top + min(ctx.mag(d) for d in diffs) >= ctx.prec - GUARD_BITS // 2:  # -inf at a 0
            return diffs
        q *= 2
        roots = _cubic_roots(c, context(q))


def _root_differences(c: Curve, ctx, roots) -> Tuple[object, object, object]:
    """(e1 - e2, e1 - e3, e2 - e3) to ctx.prec, where roots = _cubic_roots(c, ctx).

    With one real root none cancels: the real parts are 3 e1 / 2 and 0, the
    imaginary parts +-Im e2.  Two close real roots cancel (_differences).
    """
    if c.discriminant < 0:
        return tuple(a - b for a, b in combinations(roots, 2))
    return _differences(c, ctx, roots, lambda wide, r: tuple(combinations(r, 2)))


def _agm_lattice(c: Curve, ctx, d12, d13, d23) -> Tuple[object, object]:
    """(omega, omega2): the real period and a second lattice generator, each by one AGM on the root differences."""
    if c.discriminant > 0:
        root13 = ctx.sqrt(d13)
        omega = ctx.pi / ctx.agm(root13, ctx.sqrt(d12))
        return omega, ctx.mpc(0, 1) * ctx.pi / ctx.agm(root13, ctx.sqrt(d23))
    # One real root: sqrt(e1-e2) and sqrt(e1-e3) are conjugate, so the AGM
    # collapses to a real iteration on (Re sqrt(e1-e2), |e1-e2|^(1/2)); the
    # rhombic lattice's companion AGM runs on the imaginary part instead.
    u = ctx.sqrt(d12)
    modulus = ctx.sqrt(abs(d12))
    omega = ctx.pi / ctx.agm(u.real, modulus)
    s = ctx.pi / ctx.agm(abs(u.imag), modulus)
    return omega, omega / 2 + ctx.mpc(0, 1) * s / 2


def _carlson_rf(ctx, x, y, z):
    """Carlson's R_F(x, y, z) rounded once to ctx.prec: the duplication on integers in fixed point.

    The arguments are three reals >= 0, at most one of them 0, or a real
    x >= 0 and a conjugate pair y, z = u +- iv, v != 0, where R_F is real.
    They are scaled by an even power of two, 4^k, so the smallest nonzero part
    (of x, y, z, or of x, u, |v|) lies in [1, 4), and held as integers in
    units of 2^-F, F = ctx.prec + 28, which every part fits exactly.

    Each step replaces every argument a by (a + lam) / 4, lam = sqrt(x)sqrt(y)
    + sqrt(x)sqrt(z) + sqrt(y)sqrt(z), and A_m, started at A_0 = (x + y + z)/3,
    the same way.  For a conjugate pair sqrt(y)sqrt(z) = |y| and lam =
    2 sqrt(x) Re sqrt(y) + |y|; when u < 0, Re sqrt(y) = |v| / (2 Im sqrt(y)),
    so |y| + u is never formed, and the product is taken whole, since Re sqrt(y)
    alone can fall far below 2^-F.  Either way a step takes three isqrt.  The
    iteration stops on Carlson's bound as mpmath's RF_calc states it: at the
    first m with 4^-m Q < |A_m|, Q = (3r)^(-1/6) max|A_0 - a|,
    r = 2^-(ctx.prec + 20), compared exactly in integers as
    D^6 2^(ctx.prec + 20) < 3 (4^m A_m)^6 with D = max|A_0 - a|.  Then every
    X_a = (A_0 - a) / (4^m A_m) is below (3r)^(1/6), and the fifth-order series
    in E2, E3 leaves out terms of order r (Carlson, Numer. Algorithms 10, 1995;
    DLMF 19.36(i)).

    Rounding budget: the floors of a step move each iterate by a few units of
    2^-F, against iterates no smaller than a quarter of the smallest part, and
    no step doubles an earlier error; m is about (ctx.prec + 20) / 12 plus a
    few steps for spread-out arguments, 97 at most at ctx.prec = 1056 in tests.
    So the integer of about F bits that is rounded, once, to ctx.prec lies
    within 2^-(ctx.prec + 16) of R_F; in tests from 128 to 1024 bits it lay
    within 2^-(ctx.prec + 22).
    """
    F = ctx.prec + 28
    pair = ctx.im(y) != 0
    parts = (x, ctx.re(y), abs(ctx.im(y))) if pair else (x, y, z)
    shift = (2 - min(ctx.mag(a) for a in parts if a)) & ~1
    X, Y, Z = (int(ctx.ldexp(a, shift + F)) for a in parts)
    # 3 (A_0 - a) for each argument a; for a pair, Y and Z hold Re y and |Im y|
    if pair:
        dx, dy, dv = 2 * (Y - X), X - Y, 3 * Z
        A = (X + 2 * Y) // 3
        spread = max(dx * dx, dy * dy + dv * dv)
    else:
        dx, dy = Y + Z - 2 * X, X + Z - 2 * Y
        A = (X + Y + Z) // 3
        spread = max(dx * dx, dy * dy, (dx + dy) ** 2)
    limit = spread**3 << ctx.prec + 20  # (3D)^6 2^(prec+20), against 3^7 (4^m A_m)^6
    top = limit.bit_length()
    m = 0
    # 3^7 < 2^12: while the bit lengths leave room, the powers need not be formed
    while 6 * A.bit_length() + 12 * m + 12 < top or 2187 * A**6 << 12 * m <= limit:
        sx = math.isqrt(X << F)
        if pair:
            modulus = math.isqrt(Y * Y + Z * Z)
            if Y >= 0:  # 2 sqrt(x) Re sqrt(y), Re sqrt(y) = sqrt((|y| + u) / 2)
                lam = (sx * math.isqrt(modulus + Y << F - 1) >> F - 1) + modulus
            else:  # Re sqrt(y) = |v| / (2 Im sqrt(y)), Im sqrt(y) = sqrt((|y| - u) / 2)
                lam = sx * Z // math.isqrt(modulus - Y << F - 1) + modulus
            X, Y, Z = X + lam >> 2, Y + lam >> 2, Z >> 2
        else:
            sy, sz = math.isqrt(Y << F), math.isqrt(Z << F)
            lam = sx * (sy + sz) + sy * sz >> F
            X, Y, Z = X + lam >> 2, Y + lam >> 2, Z + lam >> 2
        A = A + lam >> 2
        m += 1
    den = 3 * A << 2 * m
    if pair:
        # X_x = -2a and X_y, X_z = a -+ ib
        a, b = (dy << F) // den, (dv << F) // den
        e2, e3 = b * b - 3 * a * a >> F, -2 * a * (a * a + b * b) >> 2 * F
    else:
        p, q = (dx << F) // den, (dy << F) // den
        e2, e3 = -(p * p + p * q + q * q) >> F, -p * q * (p + q) >> 2 * F
    series = (9240 << F) - 924 * e2 + 660 * e3 + ((385 * e2 - 630 * e3) * e2 >> F)
    # R_F(x, y, z)^2 = 2^shift series^2 / (9240^2 A 2^F), taken to 2F bits
    extra = A.bit_length() + (A.bit_length() + F & 1)
    root = math.isqrt((series * series << extra) // (85377600 * A))
    return ctx.ldexp(ctx.mpf(root), shift - extra - F >> 1)


def _reduce_tau(ctx, tau):
    """Translate/invert into the fundamental domain; note boundary landings."""
    eps = ctx.mpf(2) ** (-ctx.prec // 2)
    for _ in range(4 * ctx.prec):
        shift = ctx.nint(tau.real)
        tau = tau - shift
        if abs(tau) < 1 - eps:
            tau = -1 / tau
            continue
        break
    else:
        raise PrecisionExhausted("lattice ratio reduction did not terminate")
    note = None
    if abs(abs(tau) - 1) <= eps:
        note = "unit-circle boundary, representative as reached"
    elif abs(abs(tau.real) - ctx.mpf(1) / 2) <= eps:
        note = "half-strip boundary, representative as reached"
    return tau, note


def period_data(c: Curve, precision_bits: int = 128) -> PeriodData:
    """Both periods and the reduced ratio, cross-checked between the two routes."""
    ctx = context(precision_bits + GUARD_BITS)
    roots = _cubic_roots(c, ctx)
    d12, d13, d23 = _root_differences(c, ctx, roots)
    omega, omega2 = _agm_lattice(c, ctx, d12, d13, d23)
    check = 2 * _carlson_rf(ctx, 0, d12, d13)
    if abs(omega - check) > abs(omega) * ctx.mpf(2) ** (-(precision_bits - 16)):
        raise PrecisionExhausted("period routes disagree beyond the working tolerance")
    tau, note = _reduce_tau(ctx, omega2 / omega)
    eps = ctx.mpf(2) ** (-(precision_bits // 2))
    if not (tau.imag > 0 and abs(tau) >= 1 - eps and abs(tau.real) <= ctx.mpf(1) / 2 + eps):
        raise PrecisionExhausted("reduced lattice ratio violates the domain invariants")
    return PeriodData(c, precision_bits, omega, check, omega2, tau, roots, note)


def omega_floor(A: int, B: int) -> float:
    """Unconditional period floor (1+|A|+|B|)^(-1/2), valid when the largest root is below 1."""
    n = 1 + abs(A) + abs(B)
    try:
        return float(n**-0.5)
    except OverflowError:  # n is past the float range; split off a power of 4
        k = n.bit_length() // 2 - 500
        return math.ldexp((n >> 2 * k) ** -0.5, -k)


def elliptic_log(data: PeriodData, P: RatPoint) -> object:
    """Principal elliptic logarithm of a real identity-component point of data.curve, at data.precision_bits.

    z lies in (-omega/2, omega/2]; |z| = R_F(x - e1, x - e2, x - e3), half
    the tail integral of 1/sqrt(f) from x_P, and the sign is opposite to the
    sign of y_P.  Real 2-torsion gives omega/2; points on the bounded real
    component are rejected.
    """
    c, x = data.curve, P.x
    ctx = context(data.precision_bits + GUARD_BITS)
    if P.is_infinity:
        return ctx.mpf(0)
    e1, e2, _ = data.roots
    if c.discriminant > 0 and ctx.mpf(x.numerator) / x.denominator < (e1 + e2) / 2:
        raise NotIdentityComponent(f"x = {x} lies on the bounded component")
    if P.y == 0:
        return data.omega / 2
    diffs = _differences(c, ctx, data.roots, lambda wide, r: tuple(product([wide.mpf(x.numerator) / x.denominator], r)))
    magnitude = _carlson_rf(ctx, *diffs)
    return -magnitude if P.y > 0 else magnitude


def weierstrass_point(data: PeriodData, z) -> Tuple[object, object]:
    """(x, y) of the point of data.curve with elliptic logarithm z, via Jacobi functions, at data.precision_bits."""
    ctx = context(data.precision_bits + GUARD_BITS)
    e1, e2, e3 = data.roots
    m = (e2 - e3) / (e1 - e3)
    root = ctx.sqrt(e1 - e3)
    u = z * root
    sn = ctx.ellipfun("sn", u, m)
    cn = ctx.ellipfun("cn", u, m)
    dn = ctx.ellipfun("dn", u, m)
    x = e3 + (e1 - e3) / sn**2
    p_prime = -2 * root**3 * cn * dn / sn**3
    return x, p_prime / 2


def principal_linear_form(n: int, z, omega) -> LinearForm:
    """nz + m*omega with |result| <= omega/2; ties round m to even.

    Requires |z| <= omega/2 (the principal logarithm), which forces |m| < n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if abs(z) > omega / 2 * (1 + 1e-12):
        raise ValueError("z must already be principal (|z| <= omega/2)")
    t = -(n * z) / omega
    floor_t = int(t)
    if t < floor_t:
        floor_t -= 1
    frac = t - floor_t
    if frac > 0.5:
        m = floor_t + 1
    elif frac < 0.5:
        m = floor_t
    else:
        m = floor_t if floor_t % 2 == 0 else floor_t + 1
    m = int(m)
    value = n * z + m * omega
    if abs(m) >= n:
        raise InternalInvariantError("principal m must satisfy |m| < n")
    return LinearForm(n=n, m=m, value=value)


def torsion_x_coords(c: Curve, n: int) -> List[object]:
    """Complex x-coordinates of the nontrivial n-torsion, from the division polynomial, at 128 bits."""
    if not 2 <= n <= 12:
        raise ValueError("n must be between 2 and 12")
    ctx = context(128 + GUARD_BITS)
    pol = psi_polynomial(c, n)
    coeffs = [ctx.mpf(a) for a in reversed(pol.coefficients)]
    try:
        roots = ctx.polyroots(coeffs, maxsteps=400, extraprec=ctx.prec)
    except ctx.NoConvergence as exc:
        raise PrecisionExhausted(f"division polynomial roots at n={n}: {exc}") from exc
    return list(roots)
