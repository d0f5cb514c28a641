import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ellmult import analytic
from ellmult._precision import context
from ellmult.analytic import (
    LinearForm,
    elliptic_log,
    omega_floor,
    period_data,
    principal_linear_form,
    real_period,
    real_period_quadrature,
    torsion_x_coords,
    weierstrass_point,
)
from ellmult.curves import INFINITY, curve_height, make_curve, multiply, rational_point
from ellmult.errors import NotIdentityComponent, PrecisionExhausted

CTX = context(192)
E1 = make_curve(-1, 0)
E5 = make_curve(-25, 0)

SAMPLE_CURVES = [(0, 2), (-1, 1), (2, 1), (-2, 2), (-25, 0), (0, 1), (-7, 10)]

# the seven one-real-root curves of the periods benchmark, each with a rational point
ONE_REAL_ROOT = [(1, 1, 0, 1), (-7, 10, 1, 2), (-1, 1, 1, 1), (0, 1, 2, 3), (2, 3, 3, 6), (1, 2, 1, 2), (3, 5, 1, 3)]


def test_base_period_window():
    w1 = real_period(E1)
    assert 2.62 < float(w1) < 2.63


def test_period_scaling_over_congruent_family():
    w1 = real_period(E1, 128)
    for N in (5, 6, 7, 29):
        wN = real_period(make_curve(-N * N, 0), 128)
        assert abs(float(wN * CTX.sqrt(N) - w1)) < 1e-10


def test_two_period_routes_agree():
    for A, B in SAMPLE_CURVES:
        c = make_curve(A, B)
        agm = real_period(c, 160)
        quad = real_period_quadrature(c, 160)
        assert abs(agm - quad) <= abs(agm) * CTX.mpf(2) ** -140
        pd = period_data(c, 160)
        assert pd.omega == agm and pd.omega_quadrature == quad


def test_period_precision_is_stable():
    lo = real_period(E5, 128)
    hi = real_period(E5, 256)
    assert abs(lo - hi) <= abs(hi) * CTX.mpf(2) ** -120


def test_tau_is_i_for_congruent_curves():
    for N in (5, 6):
        pd = period_data(make_curve(-N * N, 0), 128)
        assert abs(pd.tau - CTX.mpc(0, 1)) < CTX.mpf(2) ** -100


def test_tau_reproduces_j_invariant():
    for A, B in SAMPLE_CURVES:
        c = make_curve(A, B)
        pd = period_data(c, 128)
        assert pd.tau.imag > 0
        assert abs(pd.tau) >= 1 - CTX.mpf(2) ** -60
        assert abs(pd.tau.real) <= CTX.mpf(1) / 2 + CTX.mpf(2) ** -60
        assert abs(1728 * CTX.kleinj(pd.tau) - c.j) < 1e-30


def test_omega_floor():
    # floor applies when the largest real root is below 1
    for A, B in [(0, 1), (0, 2), (-1, 1), (2, 1)]:
        c = make_curve(A, B)
        assert float(real_period(c, 128)) > omega_floor(A, B)


def test_elliptic_log_half_period_at_two_torsion():
    z = elliptic_log(E5, rational_point(5, 0))
    w = real_period(E5, 128)
    assert abs(z - w / 2) < CTX.mpf(2) ** -120


def test_elliptic_log_rejects_bounded_component():
    for x, y in [(0, 0), (-5, 0), (-4, 6)]:
        with pytest.raises(NotIdentityComponent):
            elliptic_log(E5, rational_point(x, y))


def test_elliptic_log_infinity_is_zero():
    assert elliptic_log(E5, INFINITY) == 0


def test_weierstrass_inversion():
    for (A, B), (x, y) in [((-25, 0), (45, 300)), ((0, 2), (-1, 1)), ((-2, 2), (1, 1))]:
        c = make_curve(A, B)
        z = elliptic_log(c, rational_point(x, y), 160)
        assert elliptic_log(c, rational_point(x, y), 160, period_data(c, 160).roots) == z
        px, py = weierstrass_point(c, z, 160)
        assert abs(px - x) < 1e-30
        assert abs(py - y) < 1e-30


def test_log_additivity_mod_lattice():
    P = rational_point(45, 300)
    z1 = elliptic_log(E5, P, 160)
    z2 = elliptic_log(E5, multiply(E5, 2, P), 160)
    w = real_period(E5, 160)
    k = (2 * z1 - z2) / w
    assert abs(k - CTX.nint(k)) < 1e-35


def test_principal_form_examples():
    w = real_period(E5, 128)
    assert principal_linear_form(1, w / 5, w).m == 0
    lf = principal_linear_form(2, w / 3, w)
    assert lf.m == -1
    assert abs(lf.value + w / 3) < CTX.mpf(2) ** -100
    tie = principal_linear_form(2, w / 4, w)
    assert tie.m in (0, -1)
    assert abs(abs(tie.value) - w / 2) < CTX.mpf(2) ** -100
    assert tie.m % 2 == 0  # ties round to even


@settings(max_examples=80)
@given(st.integers(1, 20), st.floats(-0.5, 0.5, allow_nan=False))
def test_principal_form_window(n, t):
    omega = 2.6220575542921198
    z = t * omega
    lf = principal_linear_form(n, z, omega)
    assert abs(lf.m) < n
    assert abs(lf.value) <= omega / 2 * (1 + 1e-9)


def test_two_torsion_roots():
    roots = sorted(float(r.real) for r in torsion_x_coords(E5, 2))
    assert roots == pytest.approx([-5.0, 0.0, 5.0], abs=1e-25)


def test_torsion_counts():
    for n in (3, 5, 7):
        assert len(torsion_x_coords(E5, n)) == (n * n - 1) // 2
    assert len(torsion_x_coords(E5, 2)) == 3
    assert len(torsion_x_coords(E5, 4)) == 9


def test_congruent_torsion_abscissa_bound():
    # |x| <= n^2 N / 2 for every n-torsion abscissa on y^2 = x^3 - N^2 x
    for N in (5, 15, 29):
        c = make_curve(-N * N, 0)
        for n in range(2, 8):
            for r in torsion_x_coords(c, n):
                assert abs(r) <= n * n * N / 2 + 1e-6


def test_general_torsion_abscissa_bound():
    # |x| <= 120 n^2 exp(h(E)) on general curves
    for A, B in [(-2, 3), (1, 1), (-7, 10), (3, 2), (-11, 14)]:
        c = make_curve(A, B)
        cap_base = 120 * math.exp(float(curve_height(c)))
        for n in range(2, 6):
            for r in torsion_x_coords(c, n):
                assert abs(r) <= n * n * cap_base + 1e-6


def test_large_x_log_window():
    # -1.5 log 2 <= log|z| + 0.5 log x <= 1.5 log 2 once x clears twice the
    # largest two-torsion abscissa
    cap = 1.5 * math.log(2)
    cases = [(-25, 0, 45, 300), (-225, 0, 60, 450), (-1156, 0, 578, 13872)]
    for A, B, x, y in cases:
        c = make_curve(A, B)
        two_torsion = max(abs(r) for r in torsion_x_coords(c, 2))
        assert x >= 2 * two_torsion
        z = elliptic_log(c, rational_point(x, y), 128)
        val = math.log(abs(float(z))) + 0.5 * math.log(x)
        assert -cap <= val <= cap


# --- the fixed-point tanh-sinh kernel ------------------------------------------


def _reference_period(c, bits):
    """ctx.quad on the substituted period integrals, at bits of precision."""
    ctx = context(bits)
    e1 = analytic._cubic_roots(c, ctx)[0]
    slope = 3 * e1 * e1 + c.A

    def near(v):
        t = e1 + v * v
        return 2 / ctx.sqrt(t * t + e1 * t + c.A + e1 * e1)

    def tail(w):
        return 2 / ctx.sqrt(1 + 3 * e1 * w * w + slope * w**4)

    near_dip, tail_dip = -3 * e1 / 2, -3 * e1 / (2 * slope)
    near_pts = [0, ctx.sqrt(near_dip), 1] if 0 < near_dip < 1 else [0, 1]
    tail_pts = [0, ctx.sqrt(tail_dip), 1] if 0 < tail_dip < 1 else [0, 1]
    return ctx.quad(near, near_pts) + ctx.quad(tail, tail_pts)


def _reference_log(c, P, bits):
    """ctx.quad on the substituted elliptic-log integrals, at bits of precision."""
    ctx = context(bits)
    e1 = analytic._cubic_roots(c, ctx)[0]
    x0 = ctx.mpf(P.x.numerator) / P.x.denominator
    q_x0 = x0 * x0 + e1 * x0 + c.A + e1 * e1

    def near(v):
        t = x0 + v * v
        return 2 * v / ctx.sqrt((t - e1) * (t * t + e1 * t + c.A + e1 * e1))

    def tail(w):
        w2 = w * w
        return 2 / ctx.sqrt((1 + (x0 - e1) * w2) * (1 + (2 * x0 + e1) * w2 + q_x0 * w2 * w2))

    near_dip, tail_dip = -e1 / 2 - x0, -(2 * x0 + e1) / (2 * q_x0)
    near_pts = [0, ctx.sqrt(near_dip), 1] if 0 < near_dip < 1 else [0, 1]
    tail_pts = [0, ctx.sqrt(tail_dip), 1] if 0 < tail_dip < 1 else [0, 1]
    magnitude = (ctx.quad(near, near_pts) + ctx.quad(tail, tail_pts)) / 2
    return -magnitude if P.y > 0 else magnitude


def test_kernel_integrates_a_polynomial_to_working_precision():
    ctx = context(160)
    width = analytic._width(ctx.prec)
    value = analytic._tanh_sinh(ctx, [(lambda t: t * t >> width, [0, 1 << width])])
    assert abs(value - ctx.mpf(1) / 3) <= ctx.mpf(2) ** -158


def test_kernel_raises_when_the_top_degree_has_not_converged():
    # |t - 1/3| has a kink inside [0, 1]: the step sums converge only like h^2
    ctx = context(160)
    width = analytic._width(ctx.prec)
    third = (1 << width) // 3
    with pytest.raises(PrecisionExhausted):
        analytic._tanh_sinh(ctx, [(lambda t: abs(t - third), [0, 1 << width])])


@pytest.mark.parametrize("sign", [1, -1])
def test_elliptic_log_is_correctly_rounded_at_its_working_precision(sign):
    # 128 bits work at 160; ctx.quad gave ...771163 here, while the value at
    # 416 bits, ...77116551..., rounds to ...771166
    x = Fraction(428614045485163378013009218321, 31955667216432795403292069136)
    y = Fraction(260381543724184737325445123907673963189858681, 5712442409314703256068461556718665349719616)
    P = rational_point(x, sign * y)
    z = elliptic_log(E5, P, 128)
    assert str(z) == ("-" if sign > 0 else "") + "0.27708264336724377855311489811930922126922771166"
    assert z == context(160).mpf(_reference_log(E5, P, 416))


def _check_against_quad(A, B, x, y, n, bits):
    """The kernel's period and the log of nP, when defined, within 2^-(bits + 24) omega of ctx.quad at 2 bits."""
    c = make_curve(A, B)
    ctx = context(2 * bits)
    tol = ctx.mpf(2) ** -(bits + 24)
    omega = _reference_period(c, 2 * bits)
    assert abs(real_period_quadrature(c, bits) - omega) <= omega * tol
    P = multiply(c, n, rational_point(x, y))
    if P.is_infinity or P.y == 0:
        return
    try:
        z = elliptic_log(c, P, bits)
    except NotIdentityComponent:
        return
    assert abs(z - _reference_log(c, P, 2 * bits)) <= omega * tol


@settings(max_examples=6, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_kernel_matches_quad_at_twice_the_precision(golden_multiples, data):
    # golden points and the one-real-root curves, nP for n <= 4
    curves = [(-N * N, 0, x, y) for N, x, y, _ in golden_multiples] + ONE_REAL_ROOT
    A, B, x, y = data.draw(st.sampled_from(curves))
    _check_against_quad(A, B, x, y, data.draw(st.integers(1, 4)), data.draw(st.sampled_from([128, 256])))


def test_kernel_matches_quad_at_twice_the_precision_at_512_bits():
    # A reference at 1024 bits costs about two seconds, so one fixed case stands
    # in for draws: (0, 1) on y^2 = x^3 + x + 1 puts a split point in both of
    # the log's pieces and in the period's near piece.
    _check_against_quad(1, 1, 0, 1, 1, 512)
