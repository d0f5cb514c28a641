"""Real periods, lattice ratio, elliptic logarithms, and torsion abscissas.

Two independent period routes are kept alive on purpose: an AGM iteration and
the defining improper integral under substitutions that make both pieces
analytic on [0, 1] (t = x0 + v^2 near the lower endpoint, t = x0 + 1/w^2 for
the tail).  period_data refuses to return unless they agree.

All precision is explicit: every entry point takes precision_bits and works on
a context of that size plus guard bits; nothing reads ambient mpmath state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ._precision import context
from .curves import Curve, RatPoint
from .divpoly import psi_polynomial
from .errors import (
    InternalInvariantError,
    NotIdentityComponent,
    PrecisionExhausted,
    RootFindingFailed,
)

GUARD_BITS = 32


@dataclass(frozen=True)
class PeriodData:
    """Real period by AGM and by quadrature, a second lattice generator, and the reduced lattice ratio.

    tau lives in the fundamental domain (im > 0, |tau| >= 1, |re| <= 1/2); when
    the reduction lands on the domain boundary the representative reached by
    the reduction is kept and described in boundary_note.  roots holds the
    cubic's (e1, e2, e3) at precision_bits, for elliptic_log to reuse.
    """

    omega: object
    omega_quadrature: object
    omega2: object
    tau: object
    precision_bits: int
    roots: Tuple[object, object, object]
    boundary_note: Optional[str] = None


@dataclass(frozen=True)
class LinearForm:
    """Value of n*z + m*omega for the principal (minimizing) choice of m."""

    n: int
    m: int
    value: object


def _cubic_roots(c: Curve, ctx) -> Tuple[object, object, object]:
    """Roots of x^3 + A x + B as (e1, e2, e3); e1 is the largest real root.

    Positive discriminant means three real roots sorted descending; otherwise
    e1 is the single real root and (e2, e3) are the conjugate pair.
    """
    try:
        roots = ctx.polyroots([ctx.mpf(1), 0, c.A, c.B], maxsteps=200, extraprec=ctx.prec)
    except Exception as exc:  # mpmath raises a bare NoConvergence
        raise RootFindingFailed(f"cubic root isolation failed: {exc}") from exc
    if c.discriminant > 0:
        e1, e2, e3 = sorted((r.real for r in roots), reverse=True)
        return e1, e2, e3
    real = min(roots, key=lambda r: abs(r.imag))
    pair = sorted((r for r in roots if r is not real), key=lambda r: -r.imag)
    return real.real, pair[0], pair[1]


def real_period(c: Curve, precision_bits: int = 128) -> object:
    """Real period by AGM; the quadrature route is real_period_quadrature."""
    ctx = context(precision_bits + GUARD_BITS)
    return _agm_period(c, ctx, *_cubic_roots(c, ctx))


def _agm_period(c: Curve, ctx, e1, e2, e3):
    if c.discriminant > 0:
        return ctx.pi / ctx.agm(ctx.sqrt(e1 - e3), ctx.sqrt(e1 - e2))
    # One real root: sqrt(e1-e2) and sqrt(e1-e3) are conjugate, so the AGM
    # collapses to a real iteration on (Re sqrt(e1-e2), |e1-e2|^(1/2)).
    u = ctx.sqrt(e1 - e2)
    return ctx.pi / ctx.agm(u.real, ctx.sqrt(abs(e1 - e2)))


def _quad_points(ctx, dip_sq) -> list:
    """[0, 1] with an intermediate node where the integrand's inner form dips.

    When the complex root pair sits close to the real path the form under the
    square root has a sharp interior minimum; giving the quadrature that point
    keeps tanh-sinh at full accuracy without raising its degree.
    """
    if dip_sq is not None and 0 < dip_sq < 1:
        return [0, ctx.sqrt(dip_sq), 1]
    return [0, 1]


def real_period_quadrature(c: Curve, precision_bits: int = 128) -> object:
    """Real period as the defining integral from the largest real root."""
    ctx = context(precision_bits + GUARD_BITS)
    return _quadrature_period(c, ctx, _cubic_roots(c, ctx)[0])


def _quadrature_period(c: Curve, ctx, e1):
    A = c.A
    slope = 3 * e1 * e1 + A  # f'(e1) > 0 for a simple largest root

    def piece_near(v):
        # integral over [e1, e1+1] after t = e1 + v^2; the root factor cancels
        q = (e1 + v * v) ** 2 + e1 * (e1 + v * v) + A + e1 * e1
        return 2 / ctx.sqrt(q)

    def piece_tail(w):
        # integral over [e1+1, oo) after t = e1 + 1/w^2
        w2 = w * w
        return 2 / ctx.sqrt(1 + 3 * e1 * w2 + slope * w2 * w2)

    near_pts = _quad_points(ctx, -3 * e1 / 2 if e1 < 0 else None)
    tail_pts = _quad_points(ctx, -3 * e1 / (2 * slope) if e1 < 0 else None)
    return ctx.quad(piece_near, near_pts) + ctx.quad(piece_tail, tail_pts)


def _second_period(c: Curve, ctx, e1, e2, e3, omega):
    if c.discriminant > 0:
        return ctx.mpc(0, 1) * ctx.pi / ctx.agm(ctx.sqrt(e1 - e3), ctx.sqrt(e2 - e3))
    # Rhombic lattice: the companion AGM runs on the imaginary part instead.
    u = ctx.sqrt(e1 - e2)
    s = ctx.pi / ctx.agm(abs(u.imag), ctx.sqrt(abs(e1 - e2)))
    return omega / 2 + ctx.mpc(0, 1) * s / 2


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
    omega = _agm_period(c, ctx, e1, e2, e3)
    check = _quadrature_period(c, ctx, e1)
    if abs(omega - check) > abs(omega) * ctx.mpf(2) ** (-(precision_bits - 16)):
        raise PrecisionExhausted("period routes disagree beyond the working tolerance")
    omega2 = _second_period(c, ctx, e1, e2, e3, omega)
    tau, note = _reduce_tau(ctx, omega2 / omega)
    eps = ctx.mpf(2) ** (-(precision_bits // 2))
    if not (tau.imag > 0 and abs(tau) >= 1 - eps and abs(tau.real) <= ctx.mpf(1) / 2 + eps):
        raise PrecisionExhausted("reduced lattice ratio violates the domain invariants")
    return PeriodData(omega, check, omega2, tau, precision_bits, (e1, e2, e3), note)


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
        return _agm_period(c, ctx, e1, e2, e3) / 2
    A = c.A

    def piece_near(v):
        t = x0 + v * v
        q = t * t + e1 * t + A + e1 * e1
        return 2 * v / ctx.sqrt((t - e1) * q)

    q_x0 = x0 * x0 + e1 * x0 + A + e1 * e1

    def piece_tail(w):
        w2 = w * w
        inner = 1 + (2 * x0 + e1) * w2 + q_x0 * w2 * w2
        return 2 / ctx.sqrt((1 + (x0 - e1) * w2) * inner)

    near_pts = _quad_points(ctx, -e1 / 2 - x0 if 2 * x0 + e1 < 0 else None)
    tail_pts = _quad_points(ctx, -(2 * x0 + e1) / (2 * q_x0) if 2 * x0 + e1 < 0 else None)
    magnitude = (ctx.quad(piece_near, near_pts) + ctx.quad(piece_tail, tail_pts)) / 2
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
        raise RootFindingFailed(f"division polynomial roots at n={n}: {exc}") from exc
    return list(roots)
