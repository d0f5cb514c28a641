import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellmult import curves
from ellmult.curves import (
    INFINITY,
    Multiples,
    add,
    add_triples,
    curve_height,
    from_triple,
    make_curve,
    multiply,
    on_curve,
    quasi_minimalize,
    rational_point,
    scale_point,
)
from ellmult.errors import OffCurve, SingularCurve
from ellmult.factorization import factor_int

E5 = make_curve(-25, 0)


def test_discriminant_values():
    assert E5.discriminant == 10**6
    assert make_curve(0, 1).discriminant == -432
    assert make_curve(-1, 0).discriminant == 64


def test_singular_rejected():
    with pytest.raises(SingularCurve):
        make_curve(0, 0)
    with pytest.raises(SingularCurve):
        make_curve(-3, 2)  # 4*(-27) + 27*4 = 0


def test_j_invariant():
    assert E5.j == 1728
    assert make_curve(0, 1).j == 0
    # 1728 * 4*(-1)^3 / (4*(-1)^3 + 27) = -6912/23
    assert make_curve(-1, 1).j == Fraction(-6912, 23)


def test_curve_height_values():
    h5 = curve_height(E5)
    assert h5.value == pytest.approx(math.log(1728), abs=1e-12)
    # j = 0 has zero naive height; the coefficient term 2*log(2) is the floor
    h01 = curve_height(make_curve(0, 1))
    assert h01.value == pytest.approx(2 * math.log(2), abs=1e-12)
    n = 56
    hn = curve_height(make_curve(-n * n, 0))
    assert hn.value == pytest.approx(math.log(4 * n * n), abs=1e-12)


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_curve_height_floor(a, b):
    if 4 * a**3 + 27 * b**2 == 0:
        return
    assert curve_height(make_curve(a, b)).value >= 2 * math.log(2) - 1e-12


def test_add_known_double():
    # y^2 = x^3 - 7: (2, 1) + (2, 1) = (32, -181)
    c = make_curve(0, -7)
    p = rational_point(2, 1)
    assert add(c, p, p) == rational_point(32, -181)


def test_add_identity_and_inverse():
    p = rational_point(-4, 6)
    assert add(E5, p, INFINITY) == p
    assert add(E5, INFINITY, p) == p
    assert add(E5, p, rational_point(-4, -6)) == INFINITY


def test_add_off_curve_rejected():
    with pytest.raises(OffCurve):
        add(E5, rational_point(1, 1), INFINITY)


def test_multiply_known_values():
    p = rational_point(-4, 6)
    assert multiply(E5, 0, p) == INFINITY
    assert multiply(E5, 1, p) == p
    d = multiply(E5, 2, p)
    assert d == rational_point(Fraction(1681, 144), Fraction(-62279, 1728))
    t = rational_point(0, 0)
    assert multiply(E5, 2, t) == INFINITY
    assert multiply(E5, -1, p) == rational_point(-4, -6)


def test_multiply_matches_repeated_addition():
    p = rational_point(-4, 6)
    acc = INFINITY
    for n in range(1, 9):
        acc = add(E5, acc, p)
        assert multiply(E5, n, p) == acc


@settings(max_examples=25)
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_multiply_additivity(m, n):
    p = rational_point(-4, 6)
    lhs = multiply(E5, m + n, p)
    rhs = add(E5, multiply(E5, m, p), multiply(E5, n, p))
    assert lhs == rhs


def test_multiply_matches_reference_on_golden_points(golden_multiples):
    # double-and-add on triples against n - 1 chord additions on Fractions
    for N, x, y, multiples in golden_multiples:
        c = make_curve(-N * N, 0)
        P = rational_point(x, y)
        for n in range(1, len(multiples)):
            assert multiply(c, n, P) == rational_point(*multiples[n]), (N, x, n)


def test_add_matches_reference_on_golden_multiples(golden_multiples):
    # both summands large, doubling a large point, and a difference
    for N, x, y, multiples in golden_multiples:
        c = make_curve(-N * N, 0)
        nP = [None] + [rational_point(*Q) for Q in multiples[1:]]
        for m, n in ((1, 39), (39, 1), (17, 23), (20, 20), (13, 13)):
            assert add(c, nP[m], nP[n]) == nP[m + n], (N, x, m, n)
        assert add(c, nP[23], rational_point(nP[17].x, -nP[17].y)) == nP[6]
        assert add(c, nP[20], rational_point(nP[20].x, -nP[20].y)) == INFINITY


def test_group_law_matches_reference_with_nonzero_B(other_multiples, chord_tangent):
    for A, B, x, y, multiples in other_multiples:
        c = make_curve(A, B)
        nP = [None] + [rational_point(*Q) for Q in multiples[1:]]
        for n in range(1, len(nP)):
            assert multiply(c, n, nP[1]) == nP[n], (A, B, x, n)
        for m, n in ((1, 39), (17, 23), (20, 20)):
            assert add(c, nP[m], nP[n]) == nP[m + n], (A, B, x, m, n)
    # two independent points of y^2 = x^3 + 17
    (_, _, _, _, mP), (_, _, _, _, mQ) = other_multiples[:2]
    c = make_curve(0, 17)
    for m, n in ((1, 1), (3, 5), (11, 7), (20, 20)):
        expected = chord_tangent(0, mP[m], mQ[n])
        assert add(c, rational_point(*mP[m]), rational_point(*mQ[n])) == rational_point(*expected)


def test_two_torsion_multiples():
    for x in (0, 5, -5):
        t = rational_point(x, 0)
        assert add(E5, t, t) == INFINITY
        for n in range(-5, 6):
            assert multiply(E5, n, t) == (t if n % 2 else INFINITY)


def test_torsion_of_x_cubed_plus_one():
    c = make_curve(0, 1)
    p = rational_point(2, 3)
    cycle = [INFINITY, p, rational_point(0, 1), rational_point(-1, 0), rational_point(0, -1), rational_point(2, -3)]
    acc = INFINITY
    for n in range(1, 13):
        acc = add(c, acc, p)
        assert acc == cycle[n % 6]
    for n in range(-12, 13):
        assert multiply(c, n, p) == cycle[n % 6]
        assert multiply(c, n, cycle[2]) == cycle[2 * n % 6]  # (0, 1) has order 3
        assert multiply(c, n, cycle[3]) == cycle[3 * n % 6]  # (-1, 0) has order 2


def test_group_law_commutes_and_associates():
    p = rational_point(-4, 6)
    q = rational_point(45, 300)
    t = rational_point(0, 0)
    assert add(E5, p, q) == add(E5, q, p)
    assert add(E5, add(E5, p, q), t) == add(E5, p, add(E5, q, t))
    assert on_curve(E5, add(E5, p, q))


def _assert_trial_factors_exact(c, P, n_max=40):
    """The walk equals double-and-add, and no trial factor changes a step of it."""
    multiples = Multiples(c, P)
    walk = [multiples[n] for n in range(1, n_max + 1)]
    assert [from_triple(T) for T in walk] == [multiply(c, n, P) for n in range(1, n_max + 1)]
    base = walk[0]
    for prev, T in zip(walk, walk[1:]):
        if prev is None or T is None:
            continue
        expected = add_triples(c, T, base)
        # D_{n-1} as the walk passes it, the trivial factor, and a multiple that does not divide
        for t in (prev[2], 1, 1000003 * prev[2]):
            assert add_triples(c, T, base, t) == expected, (c, P, t)


def test_multiples_computes_each_triple_once(monkeypatch):
    calls = []
    original = curves.add_triples
    monkeypatch.setattr(curves, "add_triples", lambda *args: calls.append(args) or original(*args))
    P = rational_point(-4, 6)
    walk = Multiples(E5, P)
    triples = [walk[5], walk[3], walk[5]]
    assert len(calls) == 4  # 2P to 5P, one addition each
    assert [from_triple(T) for T in triples] == [multiply(E5, n, P) for n in (5, 3, 5)]
    with pytest.raises(IndexError):
        walk[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(-500, 500), st.integers(-6, 6), st.data())
def test_trial_factor_is_exact_on_random_curves(A, x, data):
    # an integral point (x, y) on y^2 = x^3 + A x + B with |B| <= 500
    v = x**3 + A * x
    assume(v + 500 >= 0)
    low = math.isqrt(max(v - 500, 0))
    y = data.draw(st.integers(low + (low * low < v - 500), math.isqrt(v + 500)))
    B = y * y - v
    assume(4 * A**3 + 27 * B**2 != 0)
    _assert_trial_factors_exact(make_curve(A, B), rational_point(x, y))


@pytest.mark.parametrize("N, x, y", [(5, -4, 6), (5, 45, 300), (6, 12, 36), (29, 284229, 151531380)])
def test_trial_factor_is_exact_on_golden_points(N, x, y):
    c = make_curve(-N * N, 0)
    P = rational_point(x, y)
    _assert_trial_factors_exact(c, P)
    # a non-integral base point: 2P, whose D_{n-1} need not divide
    _assert_trial_factors_exact(c, multiply(c, 2, P), 20)


def test_quasi_minimalize():
    c, u = quasi_minimalize(make_curve(16, 64))
    assert (c.A, c.B, u) == (1, 1, 2)
    c, u = quasi_minimalize(E5)
    assert (c, u) == (E5, 1)
    # B = 0 puts no constraint on p^6 | B, so reduction runs to the fixed point
    c, u = quasi_minimalize(make_curve(-(2**8), 0))
    assert (c.A, c.B, u) == (-1, 0, 4)
    c, u = quasi_minimalize(make_curve(0, 2**6 * 3**6 * 5))
    assert (c.A, c.B, u) == (0, 5, 6)


@pytest.mark.parametrize("u", [2, 6])
def test_quasi_minimalize_factors_once(monkeypatch, u):
    calls = []
    monkeypatch.setattr(curves, "factor_int", lambda n: calls.append(n) or factor_int(n))
    c, v = quasi_minimalize(make_curve(-25 * u**4, 0))
    assert (c, v) == (E5, u)
    # gcd(A, B) = |A| as B = 0; no second pass looks for a prime the first one missed
    assert calls == [25 * u**4]


def _no_reducible_prime(A, B):
    # brute-force divisibility scan over a generous prime range
    bound = max(abs(A), abs(B), 4)
    for p in range(2, min(bound, 200) + 1):
        if any(p % q == 0 for q in range(2, p)):
            continue
        if (A == 0 or A % p**4 == 0) and (B == 0 or B % p**6 == 0):
            return False
    return True


@settings(max_examples=40)
@given(st.integers(-30, 30), st.integers(-30, 30), st.sampled_from([1, 2, 3, 6]))
def test_quasi_minimalize_fixed_point_and_scaling(a, b, u0):
    if 4 * a**3 + 27 * b**2 == 0:
        return
    big = make_curve(a * u0**4, b * u0**6)
    red, u = quasi_minimalize(big)
    assert _no_reducible_prime(red.A, red.B)
    assert red.A * u**4 == big.A and red.B * u**6 == big.B
    assert red.j == big.j
    assert red.discriminant * u**12 == big.discriminant


def test_scale_point_tracks_reduction():
    big = make_curve(-25 * 16, 0)  # u = 2 image of E5
    red, u = quasi_minimalize(big)
    assert red == E5 and u == 2
    p_big = rational_point(-16, 48)  # (-4*u^2, 6*u^3)
    assert on_curve(big, p_big)
    assert scale_point(p_big, u) == rational_point(-4, 6)
