import warnings

import pytest

from ellmult.curves import INFINITY, make_curve, multiply, rational_point
from ellmult.errors import UnreliableAtSmallPrime
from ellmult.localdata import (
    bad_primes,
    component_order,
    global_M,
    in_identity_component,
)

E5 = make_curve(-25, 0)
E15 = make_curve(-225, 0)
P5 = rational_point(-4, 6)


def _trial_primes(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_bad_primes_values():
    assert bad_primes(E5) == [2, 5]
    assert bad_primes(make_curve(0, 1)) == [2, 3]
    # bad primes of y^2 = x^3 - N^2 x are exactly the primes of 2N
    for N in (5, 6, 7, 15, 34):
        assert bad_primes(make_curve(-N * N, 0)) == _trial_primes(2 * N)


def test_identity_component_at_five():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert in_identity_component(E5, 5, P5)
        assert not in_identity_component(E5, 5, rational_point(0, 0))
        assert in_identity_component(E5, 7, rational_point(0, 0))
        assert in_identity_component(E5, 5, INFINITY)
        # non-5-integral points reduce to the smooth point at infinity
        assert in_identity_component(E15, 5, multiply(E15, 2, rational_point(-9, 36)))


def test_small_prime_warning():
    with pytest.warns(UnreliableAtSmallPrime):
        in_identity_component(E5, 2, P5)


def test_component_order_values():
    assert component_order(E5, 5, P5) == 1
    assert component_order(E5, 5, rational_point(0, 0)) == 2
    assert component_order(E5, 7, P5) == 1


def test_multiples_stay_in_component():
    P = rational_point(-9, 36)
    r = component_order(E15, 5, P)
    base = multiply(E15, r, P)
    for k in range(1, 5):
        assert in_identity_component(E15, 5, multiply(E15, k, base))


def _oracle_m(c, P):
    # Independent route: raw modular arithmetic on exact multiples.
    import math as _m

    out = 1
    for p in bad_primes(c):
        r = 1
        while True:
            Q = multiply(c, r, P)
            if Q.is_infinity or Q.x.denominator % p == 0:
                break
            xb = Q.x.numerator * pow(Q.x.denominator, -1, p) % p
            yb = Q.y.numerator * pow(Q.y.denominator, -1, p) % p
            if (2 * yb) % p or (3 * xb * xb + c.A) % p:
                break
            r += 1
        out = _m.lcm(out, r)
    return out


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_global_profile_matches_oracle_on_golden_multiples(golden_multiples):
    # P, 2P and 3P: the non-integral multiples reduce to infinity at the primes of their denominators
    for N, _, _, multiples in golden_multiples:
        c = make_curve(-N * N, 0)
        for x, y in multiples[1:4]:
            Q = rational_point(x, y)
            assert global_M(c, Q).M == _oracle_m(c, Q), (N, x)


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_global_profile_e5():
    prof = global_M(E5, P5)
    assert prof.M == 1
    assert prof.M_odd == 1
    assert dict(prof.entries) == {2: 1, 5: 1}
    assert prof.flagged == (2,)
    assert _oracle_m(E5, P5) == 1
    assert prof.to_json()["r"] == {"2": 1, "5": 1}


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_global_profile_nontrivial():
    P = rational_point(-9, 36)
    prof = global_M(E15, P)
    assert dict(prof.entries)[2] == 2
    assert dict(prof.entries)[3] == 2
    assert dict(prof.entries)[5] == 1
    assert prof.M == 2
    assert prof.M_odd == 1
    assert prof.flagged == (2, 3)
    assert _oracle_m(E15, P) == prof.M


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_multiple_divides_base_profile():
    P = rational_point(-9, 36)
    m1 = global_M(E15, P).M
    for k in (2, 3, 4):
        mk = global_M(E15, multiply(E15, k, P)).M
        assert m1 % mk == 0


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_torsion_point_profile():
    prof = global_M(E5, rational_point(0, 0))
    assert dict(prof.entries)[5] == 2
    assert prof.M == 2
