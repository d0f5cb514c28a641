"""Real periods, lattice ratio, elliptic logarithms, and torsion abscissas.

period_data is the one public period route.  It computes the real period
twice, on purpose, by two independent routes: one AGM routine, _agm_lattice,
which also gives the second lattice generator, and the defining improper
integral under substitutions that make both pieces analytic on [0, 1]
(t = x0 + v^2 near the lower endpoint, t = x0 + 1/w^2 for the tail).  It
refuses to return unless they agree.

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

The period integral and the elliptic logarithm run on one fixed-point
tanh-sinh kernel, _tanh_sinh.  Its rule is mpmath's: the nodes of
TanhSinh.calc_nodes, degrees 1 to guess_degree(prec), and the
Bailey-Borwein-Girgensohn error estimate, run until it reaches eps/8.  The
curve is first scaled by a power of 4 so that its roots, and the integrals,
are of order one; the estimate is taken on those scaled integrals, so eps/8
bounds a relative error where ctx.quad's bound is absolute.  Each integrand is
built from integer products, math.isqrt and one integer division at scale 2^W
(W = prec + 20 + HEADROOM_BITS), and the sum of w f(t) is exact, rounded once
to the working precision.  Where ctx.quad returns an unconverged sum, the
kernel raises PrecisionExhausted (exit 4 on the command line).

All precision is explicit: every entry point takes precision_bits and works on
a context of that size plus guard bits; nothing reads ambient mpmath state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

from ._precision import context
from .curves import Curve, RatPoint
from .divpoly import psi_polynomial
from .errors import InternalInvariantError, NotIdentityComponent, PrecisionExhausted

GUARD_BITS = 32
HEADROOM_BITS = 32


@dataclass(frozen=True)
class PeriodData:
    """Real period by AGM and by quadrature, a second lattice generator, and the reduced lattice ratio.

    tau lives in the fundamental domain (im > 0, |tau| >= 1, |re| <= 1/2); when
    the reduction lands on the domain boundary the representative reached by
    the reduction is kept and described in boundary_note.  roots holds the
    cubic's (e1, e2, e3), for elliptic_log at the same precision_bits to reuse.
    """

    omega: object
    omega_quadrature: object
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


def _agm_lattice(c: Curve, ctx, e1, e2, e3) -> Tuple[object, object]:
    """(omega, omega2): the real period and a second lattice generator, each by one AGM."""
    if c.discriminant > 0:
        root13 = ctx.sqrt(e1 - e3)
        omega = ctx.pi / ctx.agm(root13, ctx.sqrt(e1 - e2))
        return omega, ctx.mpc(0, 1) * ctx.pi / ctx.agm(root13, ctx.sqrt(e2 - e3))
    # One real root: sqrt(e1-e2) and sqrt(e1-e3) are conjugate, so the AGM
    # collapses to a real iteration on (Re sqrt(e1-e2), |e1-e2|^(1/2)); the
    # rhombic lattice's companion AGM runs on the imaginary part instead.
    u = ctx.sqrt(e1 - e2)
    modulus = ctx.sqrt(abs(e1 - e2))
    omega = ctx.pi / ctx.agm(u.real, modulus)
    s = ctx.pi / ctx.agm(abs(u.imag), modulus)
    return omega, omega / 2 + ctx.mpc(0, 1) * s / 2


def _width(prec: int) -> int:
    """Fixed-point scale W of the kernel at working precision prec.

    mpmath sums at prec + 20 bits; HEADROOM_BITS more cover the digits lost
    where an integrand's inner form dips towards zero.
    """
    return prec + 20 + HEADROOM_BITS


@lru_cache(maxsize=None)
def _nodes(prec: int, degree: int) -> Tuple[Tuple[int, int], ...]:
    """mpmath's tanh-sinh nodes of one degree, mapped to [0, 1], as pairs (t, w) at scale 2^W.

    The nodes come in pairs t, 1 - t that share a weight; each pair is kept
    once, with t <= 1/2.  Degree 1's centre t = 1/2 is kept with half its
    weight, since the kernel evaluates every entry at t and at 1 - t.
    """
    width = _width(prec)
    one = 1 << width
    ctx = context(prec + 20)  # the precision mpmath's get_nodes computes them at
    try:
        nodes = ctx._tanh_sinh.calc_nodes(degree, prec)
    finally:
        ctx.prec = prec + 20  # calc_nodes raises it while it works
    pairs = []
    for x, w in nodes:
        if x > 0:
            pairs.append(((one - ctx.to_fixed(x, width)) >> 1, ctx.to_fixed(w, width - 1)))
        elif x == 0:
            pairs.append((one >> 1, ctx.to_fixed(w, width - 2)))
    return tuple(pairs)


def _converged(d1: int, d2: Optional[int], exp: int, prec: int) -> bool:
    """Whether mpmath's tanh-sinh error estimate is at most eps/8.

    d1 = I_k - I_(k-1) and d2 = I_k - I_(k-2), each times 2^exp, or d2 = None
    at k = 2.  With two results the estimate is |d1|.  Past that it is the
    Bailey-Borwein-Girgensohn extrapolation 10^int(D4), D4 = min(0, max(D1^2/D2,
    2 D1, -prec)) with D1, D2 the base-10 logarithms of |d1|, |d2|.  eps is
    2^(1 - prec), so the target is 2^-(prec + 2); it is compared in integers.
    """
    if d2 is None:  # |d1| 2^(exp + prec + 2) <= 1
        return abs(d1) << max(0, exp + prec + 2) <= 1 << max(0, -(exp + prec + 2))
    if d1 == d2 == 0:
        return True
    lg2 = math.log10(2)
    D1 = math.log10(abs(d1)) + exp * lg2 if d1 else -math.inf
    D2 = math.log10(abs(d2)) + exp * lg2 if d2 else -math.inf
    if D2 >= 0:
        return False
    D4 = min(0.0, max(D1 * D1 / D2, 2 * D1, -prec))
    return 10 ** -int(D4) >= 1 << (prec + 2)


def _tanh_sinh(ctx, pieces, shift: int = 0):
    """2^shift times the sum of the integrals of pieces, by mpmath's tanh-sinh rule in fixed point.

    pieces is a list of (f, points): f takes t * 2^W for t in [0, 1] and
    returns f(t) * 2^W as an int, W = _width(ctx.prec); points are the ends of
    the subintervals of [0, 1], at the same scale.  Each subinterval runs
    degrees 1 to guess_degree(ctx.prec) until the error estimate of its
    integral, before the factor 2^shift, reaches ctx.eps / 8, as ctx.quad does,
    and raises PrecisionExhausted if the top degree has not.  The sums are
    exact; the total is rounded once, to ctx.prec.
    """
    prec = ctx.prec
    width = _width(prec)
    top = ctx._tanh_sinh.guess_degree(prec)
    exp = -3 * width
    total = 0
    for f, points in pieces:
        for a, b in zip(points, points[1:]):
            span = b - a
            sums = []  # sums[k - 1] = C_k; the degree-k value is span * C_k * 2^(exp - k)
            for degree in range(1, top + 1):
                s = 0
                for t, w in _nodes(prec, degree):
                    off = span * t >> width
                    s += w * (f(a + off) + f(b - off))
                sums.append(sums[-1] + s if sums else s)
                if degree > 1 and _converged(
                    span * (sums[-1] - 2 * sums[-2]),
                    span * (sums[-1] - 4 * sums[-3]) if degree > 2 else None,
                    exp - degree,
                    prec,
                ):
                    break
            else:
                raise PrecisionExhausted(f"tanh-sinh quadrature did not converge by degree {top}")
            total += span * sums[-1] << (top - degree)
    return ctx.ldexp(ctx.mpf(total), shift + exp - top)


def _normalizing_shift(c: Curve, x0: Optional[Fraction] = None) -> int:
    """j >= 0 with the roots of c, and x0 when given, inside [-4^j, 4^j].

    Under t = 4^j s the integral of 1/sqrt(t^3 + A t + B) from a root becomes
    2^-j times the same integral for (A / 16^j, B / 64^j), whose roots and
    integrands are of order one, which is what a fixed-point sum needs.
    """
    j = _root_bound(c)
    if x0 is not None and x0 > 0:
        j = max(j, (x0.numerator.bit_length() - x0.denominator.bit_length() + 2) // 2)
    return j


def _fixed(value, shift: int) -> int:
    """floor(value * 2^shift) for an int or a Fraction."""
    value = Fraction(value)
    if shift >= 0:
        return (value.numerator << shift) // value.denominator
    return value.numerator // (value.denominator << -shift)


def _scaled_root(c: Curve, ctx, e1, x0: Optional[Fraction] = None) -> Tuple[int, int, int, int]:
    """(W, j, e, e^2 + a): e = e1 / 4^j at scale 2^W, a = A / 16^j, e^2 + a at scale 2^2W.

    j is _normalizing_shift(c, x0) and W is _width(ctx.prec).
    """
    width = _width(ctx.prec)
    j = _normalizing_shift(c, x0)
    e = ctx.to_fixed(e1, width - 2 * j)
    return width, j, e, e * e + _fixed(c.A, 2 * width - 4 * j)


def _split(width: int, dip) -> list:
    """[0, 1] at scale 2^W, with an interior point where the integrand's inner form dips.

    dip is the square of that point, or None.  When the complex root pair sits
    close to the real path the form under the square root has a sharp interior
    minimum; giving the quadrature that point keeps tanh-sinh at full accuracy
    without raising its degree.
    """
    one = 1 << width
    if dip is not None and 0 < dip < one:
        return [0, math.isqrt(dip << width), one]
    return [0, one]


def _quadrature_period(c: Curve, ctx, e1):
    """The integral of 1/sqrt(f) over [e1, oo), after t = 4^j s (see _normalizing_shift).

    In s the pieces are [e, e + 1] under s = e + v^2, where the root factor
    cancels, and [e + 1, oo) under s = e + 1/w^2.
    """
    width, j, e, e_sq_a = _scaled_root(c, ctx, e1)
    two = 2 << 2 * width
    slope = 2 * e * e + e_sq_a >> width  # 3 e^2 + a = g'(e) > 0 for a simple largest root

    def piece_near(v):
        s = e + (v * v >> width)
        return two // math.isqrt(s * s + e * s + e_sq_a)

    def piece_tail(w):
        w2 = w * w >> width
        return two // math.isqrt((1 << 2 * width) + 3 * e * w2 + (slope * w2 >> width) * w2)

    near = _split(width, -3 * e // 2 if e < 0 else None)
    tail = _split(width, (-3 * e << width) // (2 * slope) if e < 0 < slope else None)
    return _tanh_sinh(ctx, [(piece_near, near), (piece_tail, tail)], -j)


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
    e1, e2, e3 = _cubic_roots(c, ctx)
    omega, omega2 = _agm_lattice(c, ctx, e1, e2, e3)
    check = _quadrature_period(c, ctx, e1)
    if abs(omega - check) > abs(omega) * ctx.mpf(2) ** (-(precision_bits - 16)):
        raise PrecisionExhausted("period routes disagree beyond the working tolerance")
    tau, note = _reduce_tau(ctx, omega2 / omega)
    eps = ctx.mpf(2) ** (-(precision_bits // 2))
    if not (tau.imag > 0 and abs(tau) >= 1 - eps and abs(tau.real) <= ctx.mpf(1) / 2 + eps):
        raise PrecisionExhausted("reduced lattice ratio violates the domain invariants")
    return PeriodData(omega, check, omega2, tau, (e1, e2, e3), note)


def omega_floor(A: int, B: int) -> float:
    """Unconditional period floor (1+|A|+|B|)^(-1/2), valid when the largest root is below 1."""
    return float((1 + abs(A) + abs(B)) ** -0.5)


def elliptic_log(c: Curve, P: RatPoint, precision_bits: int = 128, roots: Optional[Tuple] = None) -> object:
    """Principal elliptic logarithm of a real identity-component point.

    z lies in (-omega/2, omega/2]; |z| is half the tail integral of 1/sqrt(f)
    from x_P, and the sign is opposite to the sign of y_P.  Points on the
    bounded real component are rejected.  roots, when given, must be the
    PeriodData.roots of period_data(c, precision_bits); they are isolated
    here otherwise.
    """
    ctx = context(precision_bits + GUARD_BITS)
    if P.is_infinity:
        return ctx.mpf(0)
    e1, e2, e3 = roots if roots is not None else _cubic_roots(c, ctx)
    x0 = ctx.mpf(P.x.numerator) / P.x.denominator
    if c.discriminant > 0 and x0 < (e1 + e2) / 2:
        raise NotIdentityComponent(f"x = {P.x} lies on the bounded component")
    if P.y == 0:
        return _agm_lattice(c, ctx, e1, e2, e3)[0] / 2
    # In s = t / 4^j the pieces are [x, x + 1] under s = x + v^2 and
    # [x + 1, oo) under s = x + 1/w^2, with q(s) = s^2 + e s + a + e^2.
    width, j, e, e_sq_a = _scaled_root(c, ctx, e1, P.x)
    x = _fixed(P.x, width - 2 * j)
    one, two = 1 << 2 * width, 2 << 3 * width
    q_x = x * x + e * x + e_sq_a >> width
    x_e, mid = x - e, 2 * x + e

    def piece_near(v):
        s = x + (v * v >> width)
        return (v << 2 * width + 1) // math.isqrt((s - e) * (s * s + e * s + e_sq_a) << width)

    def piece_tail(w):
        w2 = w * w >> width
        return two // math.isqrt((one + x_e * w2) * (one + mid * w2 + (q_x * w2 >> width) * w2))

    near = _split(width, -e // 2 - x if mid < 0 else None)
    tail = _split(width, (-mid << width) // (2 * q_x) if mid < 0 < q_x else None)
    magnitude = _tanh_sinh(ctx, [(piece_near, near), (piece_tail, tail)], -j - 1)
    return -magnitude if P.y > 0 else magnitude


def weierstrass_point(c: Curve, z, precision_bits: int = 128) -> Tuple[object, object]:
    """(x, y) of the curve point with elliptic logarithm z, via Jacobi functions."""
    ctx = context(precision_bits + GUARD_BITS)
    e1, e2, e3 = _cubic_roots(c, ctx)
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


def torsion_x_coords(c: Curve, n: int, precision_bits: int = 128) -> List[object]:
    """Complex x-coordinates of the nontrivial n-torsion, from the division polynomial."""
    if not 2 <= n <= 12:
        raise ValueError("n must be between 2 and 12")
    ctx = context(precision_bits + GUARD_BITS)
    pol = psi_polynomial(c, n)
    coeffs = [ctx.mpf(a) for a in reversed(pol.coefficients)]
    try:
        roots = ctx.polyroots(coeffs, maxsteps=400, extraprec=ctx.prec)
    except Exception as exc:
        raise PrecisionExhausted(f"division polynomial roots at n={n}: {exc}") from exc
    return list(roots)
