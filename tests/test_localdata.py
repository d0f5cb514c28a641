import warnings

import pytest
from conftest import integral_points
from hypothesis import example, given, settings

from ellmult import cli, curves, localdata
from ellmult.curves import INFINITY, Multiples, make_curve, multiply, rational_point
from ellmult.errors import CapExceeded, UnreliableAtSmallPrime
from ellmult.localdata import bad_primes, global_M

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


def _orders(c, P):
    return dict(global_M(Multiples(c, P)).entries)


def test_identity_component_at_five():
    # a point lies in the identity component at p exactly when its component order there is 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", UnreliableAtSmallPrime)
        assert _orders(E5, P5)[5] == 1
        assert _orders(E5, rational_point(0, 0))[5] != 1
        # 7 is a good prime of E5, so it has no entry: its order is 1
        assert 7 not in _orders(E5, rational_point(0, 0))
        assert _orders(E5, INFINITY)[5] == 1
        # non-5-integral points reduce to the smooth point at infinity
        assert _orders(E15, multiply(E15, 2, rational_point(-9, 36)))[5] == 1


def test_small_prime_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        global_M(Multiples(E5, P5))
    assert [(w.category, str(w.message)) for w in caught] == [
        (UnreliableAtSmallPrime, "component membership at p=2 uses the short-model criterion")
    ]
    # the warning points at global_M's caller
    assert caught[0].filename == __file__


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_component_order_values():
    assert _orders(E5, P5) == {2: 1, 5: 1}
    assert _orders(E5, rational_point(0, 0))[5] == 2
    assert 7 not in _orders(E5, P5)
    assert _orders(E5, INFINITY) == {2: 1, 5: 1}


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_multiples_stay_in_component():
    P = rational_point(-9, 36)
    r = _orders(E15, P)[5]
    base = multiply(E15, r, P)
    for k in range(1, 5):
        assert _orders(E15, multiply(E15, k, base))[5] == 1


def _counting_walks(monkeypatch):
    """Count the walks started, that is the points given to curves.Multiples, under every alias."""
    starts = []
    original = curves.Multiples.__init__

    def start(walk, c, P):
        starts.append(P)
        original(walk, c, P)

    monkeypatch.setattr(curves.Multiples, "__init__", start)
    return starts


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
@pytest.mark.parametrize("c, P", [(E5, P5), (E15, rational_point(-9, 36))], ids=["N=5", "N=15"])
def test_global_M_walks_once(monkeypatch, c, P):
    starts = _counting_walks(monkeypatch)
    global_M(Multiples(c, P))
    assert len(starts) == 1


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
@pytest.mark.parametrize(
    "command", [["analyze", "--n-max", "5"], ["heights"], ["eds", "--n-max", "5"]], ids=["analyze", "heights", "eds"]
)
@pytest.mark.parametrize("A, x, y", [(-25, -4, 6), (-225, -9, 36)], ids=["N=5", "N=15"])
def test_commands_walk_a_fixed_number_of_times(monkeypatch, capsys, command, A, x, y):
    # ward_terms, the torsion scan and global_M read one walk, whatever the bad primes
    starts = _counting_walks(monkeypatch)
    assert cli.main([*command, "--A", str(A), "--B", "0", "--x", str(x), "--y", str(y)]) == 0
    capsys.readouterr()
    assert len(starts) == 1


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_cap_exceeded_names_the_smallest_prime(monkeypatch):
    monkeypatch.setattr(localdata, "_nonsingular_mod", lambda c, p, T: False)
    with pytest.raises(CapExceeded) as caught:
        global_M(Multiples(E5, P5))
    # ord_2(10^6) + 4 = 10 steps; p = 5 overruns its cap as well
    assert str(caught.value) == "no multiple of the point entered the identity component at p=2 within 10 steps"


def _nonsingular_by_triple(c, p, T):
    """The criterion on the whole triple (X, Y, D): p | D, or 2Y or 3X^2 + A D^4 is nonzero mod p."""
    if T is None or c.discriminant % p:
        return True
    X, Y, D = T
    return D % p == 0 or (2 * Y) % p != 0 or (3 * X * X + c.A * D**4) % p != 0


def _pair_criterion_verdicts(c, P, n_max=12):
    """(p, verdict) on nP for n <= n_max at p = 2, 3 and every odd bad prime; the pair's verdict must be the triple's."""
    verdicts = []
    for n in range(1, n_max + 1):
        T = curves.to_triple(c, multiply(c, n, P))
        pair = None if T is None else (T[0], T[2])
        for p in sorted({2, 3, *bad_primes(c)}):
            verdict = localdata._nonsingular_mod(c, p, pair)
            assert verdict == _nonsingular_by_triple(c, p, T), (c, P, n, p)
            verdicts.append((p, verdict))
    return verdicts


def test_pair_criterion_matches_triple_criterion_on_golden_points(golden_multiples):
    seen = set()
    for N, x, y, _ in golden_multiples:
        seen.update((p == 2, v) for p, v in _pair_criterion_verdicts(make_curve(-N * N, 0), rational_point(x, y)))
    # both verdicts occur at p = 2 and at odd primes, so no case of the comparison is vacuous
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@settings(max_examples=50, deadline=None)
@given(integral_points())
# multiples that are singular at p = 7 and at p = 17 with B D^6 != B D^4 mod p, so the B term counts
@example((-40, -23, -2, 7))
@example((-39, 4, 0, 2))
def test_pair_criterion_matches_triple_criterion_on_random_curves(point):
    A, B, x, y = point
    _pair_criterion_verdicts(make_curve(A, B), rational_point(x, y))


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
            assert global_M(Multiples(c, Q)).M == _oracle_m(c, Q), (N, x)


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_global_profile_e5():
    prof = global_M(Multiples(E5, P5))
    assert prof.M == 1
    assert prof.M_odd == 1
    assert dict(prof.entries) == {2: 1, 5: 1}
    assert prof.flagged == (2,)
    assert _oracle_m(E5, P5) == 1
    assert prof.to_json()["r"] == {"2": 1, "5": 1}


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_global_profile_nontrivial():
    P = rational_point(-9, 36)
    prof = global_M(Multiples(E15, P))
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
    m1 = global_M(Multiples(E15, P)).M
    for k in (2, 3, 4):
        mk = global_M(Multiples(E15, multiply(E15, k, P))).M
        assert m1 % mk == 0


@pytest.mark.filterwarnings("ignore::ellmult.errors.UnreliableAtSmallPrime")
def test_torsion_point_profile():
    prof = global_M(Multiples(E5, rational_point(0, 0)))
    assert dict(prof.entries)[5] == 2
    assert prof.M == 2
