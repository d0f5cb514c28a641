import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellmult._precision import context
from ellmult.curves import INFINITY, Curve, Multiples, add, make_curve, multiply, rational_point
from ellmult.divpoly import psi_polynomial
from ellmult.errors import PrecisionExhausted
from ellmult.heights import (
    _renormalized_doubling,
    canonical_height,
    height_window_check,
    lang_floor,
    naive_height,
    torsion_order,
)

E5 = make_curve(-25, 0)
P5 = rational_point(-4, 6)
Q5 = rational_point(45, 300)


def test_naive_height_values():
    assert naive_height(Fraction(1681, 144)) == math.log(1681)
    assert naive_height(-4) == math.log(4)
    assert naive_height(0) == 0.0
    assert naive_height(Fraction(3, 7)) == math.log(7)


def test_torsion_scan():
    assert torsion_order(Multiples(E5, rational_point(0, 0))) == 2
    assert torsion_order(Multiples(E5, rational_point(5, 0))) == 2
    assert torsion_order(Multiples(E5, P5)) is None
    assert torsion_order(Multiples(E5, INFINITY)) == 1


def _full_scan(c, Q, limit=12):
    """Smallest k <= limit with kQ at infinity, testing every k: kQ = O iff psi_k(x(Q)) = 0.

    The division polynomials decide each step without the group law, so the
    scan costs little even where the multiples of Q are large.
    """
    if Q.is_infinity:
        return 1
    X, q = Q.x.numerator, Q.x.denominator
    for k in range(2, limit + 1):
        psi = psi_polynomial(c, k)
        if sum(a * X**i * q ** (psi.degree - i) for i, a in enumerate(psi.coefficients)) == 0:
            return k
    return None


def test_torsion_scan_matches_full_scan_on_golden_multiples(golden_multiples):
    for N, x, y, _ in golden_multiples:
        c = make_curve(-N * N, 0)
        for n in range(1, 9):
            Q = multiply(c, n, rational_point(x, y))
            assert torsion_order(Multiples(c, Q)) == _full_scan(c, Q), (N, x, n)


def test_torsion_scan_matches_full_scan_on_torsion_points():
    c = make_curve(0, 1)
    points = [(E5, rational_point(x, 0)) for x in (0, 5, -5)]
    points += [(c, rational_point(2, 3)), (c, rational_point(0, 1)), (c, rational_point(-1, 0))]
    for curve, T in points:
        for n in range(0, 7):
            Q = multiply(curve, n, T)
            assert torsion_order(Multiples(curve, Q)) == _full_scan(curve, Q)
    assert torsion_order(Multiples(c, rational_point(2, 3))) == 6
    assert torsion_order(Multiples(c, rational_point(0, 1))) == 3
    assert torsion_order(Multiples(c, rational_point(-1, 0))) == 2


def test_torsion_height_is_zero():
    est = canonical_height(Multiples(E5, rational_point(0, 0)))
    assert est.value == 0.0 and est.iterations == 0


def _doubling_trace(c, P, depth):
    """h(x_{2^k P}) for k = 0..depth, one engine run per depth, at 192 bits."""
    return [float(_renormalized_doubling(c, P, k, 192)) for k in range(depth + 1)]


def _assert_trace_is_exact(c, P, depth):
    """The engine's h(x_{2^k P}), k <= depth, against exact doubling by the group law."""
    Q = P
    for k, s in enumerate(_doubling_trace(c, P, depth)):
        exact = naive_height(Q.x)
        assert abs(s - exact) <= 1e-9 * max(1.0, exact), (c, P, k)
        Q = multiply(c, 2, Q)


def test_trace_matches_exact_doubling():
    _assert_trace_is_exact(E5, P5, 6)


def test_trace_matches_exact_doubling_nonintegral_start():
    _assert_trace_is_exact(E5, multiply(E5, 2, Q5), 5)


def _mpf_doubling(c, P, depth, precision_bits):
    """The doubling engine on mpf floats, kept as the oracle for the fixed-point one.

    (u, v) are mpfs with max(|u|, v) = 1, renormalized by max(|U|, V) each
    step; the residues and their gcds are computed as in the engine.
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
        s = 4 * s + ctx.ln(m) - ctx.ln(g)
        u = U / m
        v = V / m
        yield k, s


def _oracle_points(golden_multiples, other_multiples):
    """(curve, point): golden nP for n <= 6, a non-integral start, and the points on curves with B != 0."""
    points = [
        (make_curve(-N * N, 0), rational_point(*multiples[n]))
        for N, _, _, multiples in golden_multiples
        for n in range(1, 7)
    ]
    points.append((E5, multiply(E5, 2, Q5)))
    points += [(make_curve(A, B), rational_point(*multiples[n])) for A, B, _, _, multiples in other_multiples for n in (1, 2, 3)]
    return points


def test_oracle_points_cover_the_b_terms_and_are_not_torsion(golden_multiples, other_multiples):
    points = _oracle_points(golden_multiples, other_multiples)
    assert all(torsion_order(Multiples(c, P)) is None for c, P in points)
    assert any(c.B != 0 and c.A == 0 for c, _ in points)
    assert any(c.B != 0 and c.A != 0 for c, _ in points)
    assert any(P.x < 0 for _, P in points)
    assert any(P.x.denominator > 1 for _, P in points)


@pytest.mark.parametrize("bits", [128, 256])
def test_fixed_point_engine_matches_mpf_oracle_at_twice_the_precision(golden_multiples, other_multiples, bits):
    for c, P in _oracle_points(golden_multiples, other_multiples):
        oracle = list(_mpf_doubling(c, P, 20, 2 * bits))
        assert [k for k, _ in oracle] == list(range(21))
        for k, exact in oracle:
            s = _renormalized_doubling(c, P, k, bits)
            assert s.context.prec == bits
            assert abs(s - exact) <= abs(exact) * 2.0 ** -(bits - 4), (c, P, k)


def test_vanishing_duplication_forms_exhaust_precision():
    # y^2 = x^3 - 3x + 2 is nodal at x = 1, where both duplication forms vanish;
    # it is built past make_curve's smoothness check with a stand-in discriminant.
    nodal = Curve(-3, 2, 1, Fraction(0))
    assert _renormalized_doubling(nodal, rational_point(1, 0), 0, 128) == 0
    with pytest.raises(PrecisionExhausted, match="duplication forms vanished"):
        _renormalized_doubling(nodal, rational_point(1, 0), 3, 128)


def _exact_gcds(c, P, depth):
    """g_k = gcd(F(a, b), G(a, b)) for k = 1..depth, with a/b = x(2^(k-1) P) in lowest terms, by exact doubling."""
    A, B = c.A, c.B
    out = []
    for _ in range(depth):
        a, b = P.x.numerator, P.x.denominator
        F = a**4 - 2 * A * a * a * b * b - 8 * B * a * b**3 + A * A * b**4
        G = 4 * (a**3 * b + A * a * b**3 + B * b**4)
        out.append(math.gcd(F, G))
        P = multiply(c, 2, P)
    return out


@pytest.mark.parametrize(
    "A, B, x, y, gcds",
    [
        (-60, -44, -6, 10, [16, 16, 1, 1, 1, 1]),
        (-60, 0, -6, 12, [576, 16, 1, 1, 1, 1]),
        (-60, -55, -4, 11, [4, 4, 4, 4, 4, 4]),
    ],
)
def test_exact_phase_lasts_until_the_first_unit_gcd(A, B, x, y, gcds):
    # the first g = 1 comes at step 3 on the first two points; on the last, g = 4 at every step
    c, P = make_curve(A, B), rational_point(x, y)
    assert _exact_gcds(c, P, 6) == gcds
    _assert_trace_is_exact(c, P, 6)


@st.composite
def _random_points(draw):
    """A non-torsion (curve, P) with |A|, |B| <= 500 and a small integral abscissa."""
    A = draw(st.integers(-500, 500))
    x = draw(st.integers(-12, 12))
    f0 = x**3 + A * x
    assume(f0 + 500 >= 0)
    y = draw(st.integers(math.isqrt(max(0, f0 - 500)), math.isqrt(f0 + 500)))
    B = y * y - f0
    assume(abs(B) <= 500 and 4 * A**3 + 27 * B**2 != 0)
    c, P = make_curve(A, B), rational_point(x, y)
    assume(torsion_order(Multiples(c, P)) is None)
    return c, P


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_random_points())
def test_engine_matches_exact_doubling_on_random_curves(point):
    c, P = point
    for Q in (P, multiply(c, 2, P)):
        _assert_trace_is_exact(c, Q, 4)


def test_internal_oracle_agreement():
    fast = canonical_height(Multiples(E5, P5), 1e-10)
    deep = _renormalized_doubling(E5, P5, 28, 512) / (2 * 4**28)
    assert abs(fast.value - deep) < 1e-8
    assert fast.tolerance == 1e-10
    assert fast.iterations >= 1


def test_quadraticity():
    h1 = canonical_height(Multiples(E5, P5)).value
    for n in range(2, 9):
        hn = canonical_height(Multiples(E5, multiply(E5, n, P5))).value
        assert abs(hn - n * n * h1) < 1e-6


def test_parallelogram_law():
    hP = canonical_height(Multiples(E5, P5)).value
    hQ = canonical_height(Multiples(E5, Q5)).value
    hSum = canonical_height(Multiples(E5, add(E5, P5, Q5))).value
    hDiff = canonical_height(Multiples(E5, add(E5, P5, multiply(E5, -1, Q5)))).value
    assert abs(hSum + hDiff - 2 * hP - 2 * hQ) < 1e-6


def test_height_window_reports():
    for pt in (P5, Q5):
        rep = height_window_check(E5, pt, canonical_height(Multiples(E5, pt)))
        assert rep.holds is True
        assert rep.name == "height-window"
        assert rep.inputs["difference"] < rep.threshold
    T = rational_point(0, 0)
    torsion = height_window_check(E5, T, canonical_height(Multiples(E5, T)))
    assert torsion.applicable is False
    assert torsion.holds is None


def test_lang_floor_branches():
    assert lang_floor(E5, 1) is None
    big = make_curve(10**45, 0)
    hE = math.log(4 * 10**45)
    assert lang_floor(big, 1) == pytest.approx(hE / 1e5, rel=1e-12)
    assert lang_floor(big, 2) == pytest.approx(hE / (1e5 * 64), rel=1e-12)
    with pytest.raises(ValueError):
        lang_floor(big, 0)


def test_precision_exhausted_on_shallow_cap():
    with pytest.raises(PrecisionExhausted):
        # 1e-20 needs doubling depth 36, beyond DEPTH_CAP
        canonical_height(Multiples(E5, P5), 1e-20)
