import builtins
import math
from fractions import Fraction

import pytest
from conftest import integral_points
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellmult import curves
from ellmult.curves import (
    INFINITY,
    Multiples,
    add,
    curve_height,
    make_curve,
    multiply,
    on_curve,
    quasi_minimalize,
    rational_point,
    scale_point,
)
from ellmult.errors import InternalInvariantError, OffCurve, SingularCurve
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


def _x_pair(Q):
    """The pair (X, D) with x(Q) = X/D^2 in lowest terms, read off Q's Fraction x; None at infinity."""
    if Q.is_infinity:
        return None
    return Q.x.numerator, math.isqrt(Q.x.denominator)


def _assert_walk_matches_multiply(c, P, n_max=40):
    """The walk's pair of nP is x(nP) from double-and-add, in lowest terms, for every n <= n_max."""
    walk = Multiples(c, P)
    assert [walk[n] for n in range(1, n_max + 1)] == [_x_pair(multiply(c, n, P)) for n in range(1, n_max + 1)]


def test_multiples_computes_each_triple_once(monkeypatch):
    steps, additions = [], []
    step, add_triples = curves.Multiples._step, curves.add_triples
    monkeypatch.setattr(curves.Multiples, "_step", lambda walk: steps.append(walk) or step(walk))
    monkeypatch.setattr(curves, "add_triples", lambda *args: additions.append(args) or add_triples(*args))
    P = rational_point(-4, 6)
    walk = Multiples(E5, P)
    pairs = [walk[5], walk[3], walk[5]]
    assert len(steps) == 4  # 2P to 5P, one step each
    assert len(additions) == 1  # 2P; every later step uses x alone
    assert pairs == [_x_pair(multiply(E5, n, P)) for n in (5, 3, 5)]
    with pytest.raises(IndexError):
        walk[0]


@settings(max_examples=30, deadline=None)
@given(integral_points())
def test_trial_factor_is_exact_on_random_curves(point):
    A, B, x, y = point
    _assert_walk_matches_multiply(make_curve(A, B), rational_point(x, y))


@pytest.mark.parametrize("N, x, y", [(5, -4, 6), (5, 45, 300), (6, 12, 36), (29, 284229, 151531380)])
def test_trial_factor_is_exact_on_golden_points(N, x, y):
    c = make_curve(-N * N, 0)
    P = rational_point(x, y)
    _assert_walk_matches_multiply(c, P)
    # a non-integral base point: 2P, whose D_{n-1} need not divide
    _assert_walk_matches_multiply(c, multiply(c, 2, P), 20)


E1 = make_curve(0, 1)
# (curve, base point, order or None): the torsion points the suite holds, the point at infinity,
# and non-integral base points
WALK_EDGES = (
    [(E5, rational_point(x, 0), 2) for x in (0, 5, -5)]
    + [(E1, rational_point(x, y), order) for x, y, order in ((2, 3, 6), (0, 1, 3), (-1, 0, 2), (0, -1, 3), (2, -3, 6))]
    + [(E5, INFINITY, 1)]
    + [
        (E5, multiply(E5, 2, rational_point(-4, 6)), None),
        (make_curve(-225, 0), multiply(make_curve(-225, 0), 2, rational_point(-9, 36)), None),
        (make_curve(0, 17), multiply(make_curve(0, 17), 2, rational_point(-2, 3)), None),
        (make_curve(-16, 16), multiply(make_curve(-16, 16), 3, rational_point(0, 4)), None),
    ]
)


@pytest.mark.parametrize("c, P, order", WALK_EDGES)
def test_walk_edges_and_general_reduction_match_multiply(monkeypatch, c, P, order):
    # to three times the order, so the walk's periodic tail past the first None is read too
    n_max = 3 * order if order else 20
    expected = [_x_pair(multiply(c, n, P)) for n in range(1, n_max + 1)]
    _assert_walk_matches_multiply(c, P, n_max)
    # every trial division reports a remainder, so every step past 2P that is not at infinity
    # reduces S D_{n-1}^2 - X_{n-1} H^2 over (H D_{n-1})^2; 2P is read first, as add_triples divides too
    walk = Multiples(c, P)
    walk[2]
    divisions = []
    monkeypatch.setattr(curves, "divmod", lambda a, b: divisions.append(b) or (a // b, 1), raising=False)
    assert [walk[n] for n in range(1, n_max + 1)] == expected
    assert len(divisions) == (n_max - 2 if order is None else max(order - 3, 0))


@pytest.mark.parametrize("N, x, y", [(5, -4, 6), (6, 12, 36), (34, -16, 120)])
@pytest.mark.parametrize("t", [10007, 2**61 - 1])
def test_step_reduces_a_pair_that_is_not_in_lowest_terms(N, x, y, t):
    # (X t^2, D t) stands for x((n-1)P) as (X, D) does; D t does not divide H, so the trial division leaves a
    # remainder and the step reduces S D_{n-1}^2 - X_{n-1} H^2 over (H D_{n-1})^2 without any patched divmod
    c, P = make_curve(-N * N, 0), rational_point(x, y)
    for n in range(3, 9):
        walk = Multiples(c, P)
        (a, d), (X, D), (Xn, Dn) = walk[1], walk[n - 1], walk[n]
        assert (a * Dn * Dn - Xn * d * d) % (D * t)  # H, which D divides and D t does not
        walk._pairs[n - 2] = (X * t * t, D * t)
        assert walk._step() == Multiples(c, P)[n + 1] == _x_pair(multiply(c, n + 1, P)), (N, x, n, t)


@st.composite
def scaled_bases(draw):
    """(c, base): an integral point with |A| <= 300 on the model scaled by u, and its 1, 2 or 3 multiple there."""
    A, x, y = draw(st.integers(-300, 300)), draw(st.integers(-12, 12)), draw(st.integers(0, 40))
    B = y * y - x**3 - A * x
    assume(4 * A**3 + 27 * B**2 != 0)
    u = draw(st.sampled_from([1, 2, 3, 6]))
    c = make_curve(u**4 * A, u**6 * B)
    return c, multiply(c, draw(st.sampled_from([1, 2, 3])), rational_point(u * u * x, u**3 * y))


@settings(max_examples=120, deadline=None)
@given(scaled_bases())
def test_walk_is_in_lowest_terms_on_scaled_models_and_bases(base):
    # scaling by u adds the primes of u to S_P, and the bases 2P and 3P are not integral
    _assert_walk_matches_multiply(*base, 14)


def _reductions(monkeypatch, walk, n):
    """(what, v) of every _square_gcd call while the walk goes from 2P to nP."""
    walk[2]
    calls = []
    square_gcd = curves._square_gcd

    def record(X, D, what):
        calls.append((what, square_gcd(X, D, what)))
        return calls[-1][1]

    monkeypatch.setattr(curves, "_square_gcd", record)
    walk[n]
    return calls


def test_gate_keeps_the_reference_point_from_every_gcd(monkeypatch):
    # G = gcd(2*6, 3*16 - 25, discriminant) = 1: S_P is empty, so no step reduces
    walk = Multiples(E5, rational_point(-4, 6))
    assert walk._singular == 1
    assert _reductions(monkeypatch, walk, 50) == []
    _assert_walk_matches_multiply(E5, rational_point(-4, 6), 50)


@pytest.mark.parametrize(
    "N, x, y, G", [(29, 284229, 151531380, 2 * 29**2), (5, 45, 300, 2 * 5**2), (34, -16, 120, 4), (7, 25, 120, 2)]
)
def test_gate_opens_at_the_even_multiples_of_golden_points(monkeypatch, N, x, y, G):
    # Q shares a prime with G at the even multiples only, and each gcd there removes a factor
    c, P = make_curve(-N * N, 0), rational_point(x, y)
    walk = Multiples(c, P)
    assert walk._singular == G
    calls = _reductions(monkeypatch, walk, 30)
    assert [what for what, _ in calls] == [f"x({n}P)" for n in range(4, 31, 2)]
    assert all(v > 1 for _, v in calls)
    assert [walk[n] for n in range(1, 31)] == [_x_pair(multiply(c, n, P)) for n in range(1, 31)]


def test_gate_shuts_where_q_misses_the_singular_primes(monkeypatch):
    # (0, 4) on y^2 = x^3 - 16x + 16 has G = 8, and 6P's Q is odd
    c, P = make_curve(-16, 16), rational_point(0, 4)
    walk = Multiples(c, P)
    assert walk._singular == 8
    whats = [what for what, _ in _reductions(monkeypatch, walk, 8)]
    assert "x(4P)" in whats and "x(6P)" not in whats
    _assert_walk_matches_multiply(c, P)


def test_step_takes_the_sum_form_where_x_of_the_previous_multiple_is_0(monkeypatch):
    # P = (0, 4) on y^2 = x^3 - 16x + 16: X_1 = 0, so 3P cannot come from R / X_1; the step makes one
    # trial division, by D_1, and reduces the sum form by the full gcd
    c, P = make_curve(-16, 16), rational_point(0, 4)
    walk = Multiples(c, P)
    walk[2]
    divisions = []
    monkeypatch.setattr(curves, "divmod", lambda a, b: divisions.append(b) or builtins.divmod(a, b), raising=False)
    assert _reductions(monkeypatch, walk, 3) == [("x(3P)", 4)]
    assert divisions == [1]
    assert walk[3] == _x_pair(multiply(c, 3, P))


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**300), 2**300), st.integers(1, 2**150), st.integers(1, 2**40), st.integers(0, 4))
def test_square_gcd_is_the_gcd_with_the_square_of_the_denominator(X, D, f, e):
    # a common factor f, to the power e in X, makes gcd(X, D) != 1 in most examples
    X, D = X * f**e, D * f
    want = math.gcd(X, D * D)
    if math.isqrt(want) ** 2 == want:
        assert curves._square_gcd(X, D, "x") ** 2 == want
    else:
        with pytest.raises(InternalInvariantError, match="not a perfect square"):
            curves._square_gcd(X, D, "x")


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
