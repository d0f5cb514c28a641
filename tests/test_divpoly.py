import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmult import cli, curves
from ellmult.curves import Multiples, make_curve, multiply, rational_point
from ellmult.divpoly import (
    psi_value_binary,
    ward_terms,
    x_multiple_exact,
)
from ellmult.errors import InternalInvariantError, NonIntegralBasePoint

E5 = make_curve(-25, 0)
P5 = rational_point(-4, 6)


def test_base_terms():
    seq = ward_terms(Multiples(E5, P5), 4)
    assert seq.h[0] == 0 and seq.h[1] == 1
    assert seq.h[2] == 12
    # 3*256 - 2400 - 625
    assert seq.h[3] == -2257
    assert seq.h[4] == -1494696


def test_phi_terms_values():
    k = ward_terms(Multiples(E5, P5), 2).k
    assert k[0] == 1
    assert k[1] == -4
    assert k[2] == 1681


def test_ward_terms_D_values():
    D = ward_terms(Multiples(E5, P5), 3).D
    assert D[1] == 1
    assert D[2] == 12
    t = rational_point(0, 0)
    Dt = ward_terms(Multiples(E5, t), 4).D
    assert Dt[1] == 1 and Dt[2] is None and Dt[3] == 1 and Dt[4] is None


def test_ward_terms_D_matches_reference_on_golden_points(golden_multiples):
    for N, x, y, multiples in golden_multiples:
        expected = [None]
        for Q in multiples[1:]:
            q = Q[0].denominator
            root = math.isqrt(q)
            assert root * root == q
            expected.append(root)
        n_max = len(multiples) - 1
        assert ward_terms(Multiples(make_curve(-N * N, 0), rational_point(x, y)), n_max).D == expected, (N, x)


def test_ward_terms_D_matches_reference_with_nonzero_B(other_multiples):
    for A, B, x, y, multiples in other_multiples:
        expected = [None] + [math.isqrt(Q[0].denominator) for Q in multiples[1:]]
        assert ward_terms(Multiples(make_curve(A, B), rational_point(x, y)), len(multiples) - 1).D == expected


def test_ward_terms_D_at_torsion_points():
    for x in (0, 5, -5):
        assert ward_terms(Multiples(E5, rational_point(x, 0)), 8).D == [None, 1, None, 1, None, 1, None, 1, None]
    c = make_curve(0, 1)
    for (x, y), order in (((2, 3), 6), ((0, 1), 3), ((-1, 0), 2)):
        expected = [None] + [None if n % order == 0 else 1 for n in range(1, 13)]
        assert ward_terms(Multiples(c, rational_point(x, y)), 12).D == expected


def test_ward_terms_checks_the_point_once(monkeypatch):
    calls = []
    original = curves.on_curve
    monkeypatch.setattr(curves, "on_curve", lambda c, P: calls.append(P) or original(c, P))
    ward_terms(Multiples(E5, P5), 50)
    # the walk's constructor checks the point; ward_terms checks nothing again
    assert calls == [P5]


def _corrupt_walk(monkeypatch, n_bad, change):
    """Make every walk read change(T) in place of the pair T of n_bad P; the walk itself goes on from T."""
    original = curves.Multiples.__getitem__

    def read(walk, n):
        T = original(walk, n)
        return change(T) if n == n_bad else T

    monkeypatch.setattr(curves.Multiples, "__getitem__", read)


# (base point, n, change): one wrong pair (X, D) each, which the recurrence must refuse
WRONG_PAIRS = {
    "D times 3": ((-4, 6), 7, lambda T: (T[0], 3 * T[1])),
    "X off by one": ((-4, 6), 7, lambda T: (T[0] + 1, T[1])),
    "infinity at a finite n": ((-4, 6), 7, lambda T: None),
    "finite at infinity": ((0, 0), 4, lambda T: (0, 1)),
}


@pytest.mark.parametrize("point, n, change", WRONG_PAIRS.values(), ids=WRONG_PAIRS.keys())
def test_ward_terms_refuses_a_wrong_group_law_triple(monkeypatch, capsys, point, n, change):
    _corrupt_walk(monkeypatch, n, change)
    with pytest.raises(InternalInvariantError, match=f"{n}P"):
        ward_terms(Multiples(E5, rational_point(*point)), 10)
    x, y = (str(v) for v in point)
    code = cli.main(["eds", "--A", "-25", "--B", "0", "--x", x, "--y", y, "--n-max", "10"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert (code, error["type"], error["exit_code"]) == (2, "InternalInvariantError", 2)


def test_cancellation_values():
    assert ward_terms(Multiples(E5, P5), 2).g == [None, 1, 1]
    # g_n is undefined where h_n vanishes, that is where nP is at infinity
    assert ward_terms(Multiples(E5, rational_point(0, 0)), 2).g[2] is None


def test_zero_term_cases():
    # h_2 = 0 at this 2-torsion point: every even h_n vanishes and every term stays exact
    t = rational_point(0, 0)
    seq = ward_terms(Multiples(E5, t), 6)
    assert seq.k[4:] == [625**4, 0, 625**9]
    assert x_multiple_exact(E5, t, 6) is None
    assert x_multiple_exact(E5, t, 5) == 0
    assert seq.g[2] is None and seq.g[4] is None and seq.g[6] is None
    assert seq.g[5] == 625**6


def test_non_integral_rejected():
    q = rational_point(Fraction(1681, 144), Fraction(-62279, 1728))
    with pytest.raises(NonIntegralBasePoint):
        ward_terms(Multiples(E5, q), 4)


def test_x_multiple_matches_group_law():
    for n in range(1, 13):
        xr = x_multiple_exact(E5, P5, n)
        pt = multiply(E5, n, P5)
        assert xr == pt.x
    # torsion marks None
    assert x_multiple_exact(E5, rational_point(0, 0), 2) is None


def test_recurrence_identity_exact():
    # h_{m+n} h_{m-n} = h_{m-1} h_{m+1} h_n^2 - h_{n-1} h_{n+1} h_m^2
    seq = ward_terms(Multiples(E5, P5), 21)
    h = seq.h
    for m in range(2, 10):
        for n in range(1, m):
            lhs = h[m + n] * h[m - n]
            rhs = h[m - 1] * h[m + 1] * h[n] ** 2 - h[n - 1] * h[n + 1] * h[m] ** 2
            assert lhs == rhs


def test_term_divisibility():
    h = ward_terms(Multiples(E5, P5), 30).h
    for n in range(1, 7):
        for m in range(1, 30 // n + 1):
            if h[n] and h[m * n] is not None:
                assert h[m * n] % h[n] == 0


def test_cancellation_divides_discriminant_power():
    seq = ward_terms(Multiples(E5, P5), 9)
    for n in range(1, 10):
        g = seq.g[n]
        e = n * n * (n * n - 1) // 6
        assert pow(abs(E5.discriminant), e) % g == 0


def test_denominator_consistency_with_cancellation():
    # h_n^2 = D_n^2 * g_n term by term: the two routes agree exactly
    seq = ward_terms(Multiples(E5, P5), 12)
    for n in range(1, 13):
        assert seq.h[n] ** 2 == seq.D[n] ** 2 * seq.g[n]


def test_psi_value_binary_examples():
    # 3x^4 - 6N^2x^2 - N^4 at (x, N)
    assert psi_value_binary(3, 2, 1) == 3 * 16 - 24 - 1
    assert psi_value_binary(3, 1, 0) == 3
    assert psi_value_binary(5, 1, 0) == 5
    assert psi_value_binary(3, 0, 1) == -1


@settings(max_examples=30)
@given(st.integers(-8, 8), st.integers(-8, 8), st.sampled_from([2, 3, 5]), st.sampled_from([3, 5, 7, 9, 11]))
def test_psi_binary_homogeneity(x, N, t, n):
    w = (n * n - 1) // 2
    assert psi_value_binary(n, t * x, t * N) == t**w * psi_value_binary(n, x, N)


def test_torsion_base_partial_terms():
    t = rational_point(0, 0)
    seq = ward_terms(Multiples(E5, t), 6)
    assert seq.h == [0, 1, 0, -625, 0, 625**3, 0]
    assert seq.D == [None, 1, None, 1, None, 1, None]
    assert seq.g == [None, 1, None, 625**2, None, 625**6, None]


TORSION_POINTS = (
    [(E5, rational_point(x, 0)) for x in (0, 5, -5)]
    + [(make_curve(0, 1), rational_point(x, y)) for x, y in ((2, 3), (0, 1), (-1, 0))]
)


@pytest.mark.parametrize("c, t", TORSION_POINTS)
def test_recurrence_routes_at_torsion_points(c, t):
    seq = ward_terms(Multiples(c, t), 12)
    for n in range(1, 13):
        nt = multiply(c, n, t)
        assert x_multiple_exact(c, t, n) == (None if nt.is_infinity else nt.x), n
        assert (seq.h[n] == 0) == (seq.D[n] is None) == nt.is_infinity, n
        if seq.D[n] is not None:
            assert seq.h[n] ** 2 == seq.g[n] * seq.D[n] ** 2, n
