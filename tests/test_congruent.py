"""Tests for the y^2 = x^3 - N^2 x specialization.

The expected table is frozen here exactly as computed from the search plus
exact on-curve verification; every coordinate was checked by hand against
y^2 = x^3 - N^2 x.  Valuation profiles are tested against the actual division
values, not against the predicting formulas.
"""

import math
import time
import tracemalloc
from fractions import Fraction
from importlib import resources

import pytest
from conftest import patch_aliases
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmult import analytic, congruent, curves, heights
from ellmult._precision import context
from ellmult.bounds import poly_growth_check
from ellmult.congruent import (
    N_CAP_COEFF,
    N_CAP_SMALL,
    binary_form_checks,
    congruent_curve,
    double_x,
    gap_floor,
    growth_poly,
    height_windows,
    growth_ratio,
    growth_ratio_check,
    hn_cap,
    multiplier_height_cap,
    n_cap,
    nonidentity_multiplier,
    ord2_profile,
    point_from_abscissa,
    reproduce_table,
    resolve_N_threshold,
    search_integral_points,
    table_csv,
    verify_double_not_integral,
)
from ellmult.curves import INFINITY, Multiples, curve_height, rational_point
from ellmult.divpoly import psi_value_binary, ward_terms
from ellmult.errors import InternalInvariantError, NotBoundedComponent, ParityMismatch, TorsionInput
from ellmult.factorization import factor_int, is_square_free, valuation
from ellmult.heights import _renormalized_doubling, canonical_height, height_window_check

GOLDEN_CSV = resources.files("ellmult").joinpath("data/table_n75.csv").read_text()
GOLDEN_ROWS = [line.split(",") for line in GOLDEN_CSV.strip().split("\n")[1:]]
GOLDEN_N = tuple(dict.fromkeys(int(N) for N, *_ in GOLDEN_ROWS))

EXPECTED_TABLE = {
    5: ((-4, 6), (45, 300)),
    6: ((-3, 9), (-2, 8), (12, 36), (18, 72), (294, 5040)),
    7: ((25, 120),),
    14: ((18, 48), (112, 1176)),
    15: ((-9, 36), (25, 100), (60, 450)),
    21: ((-3, 36), (28, 98), (147, 1764)),
    22: ((2178, 101640),),
    29: ((284229, 151531380),),
    30: ((-20, 100), (-6, 72), (45, 225), (150, 1800)),
    34: ((-16, 120), (-2, 48), (162, 2016), (578, 13872)),
    39: ((-36, 90), (975, 30420)),
    41: ((-9, 120), (841, 24360)),
    46: ((242, 3696),),
    65: ((-25, 300), (-16, 252), (169, 2028)),
    69: ((1083, 35568),),
    70: ((-20, 300), (126, 1176), (245, 3675)),
}


@pytest.fixture(scope="module")
def table():
    return reproduce_table()


def _ord2(q: Fraction) -> int:
    return valuation(q.numerator, 2) - valuation(q.denominator, 2)


def test_congruent_curve():
    c = congruent_curve(6)
    assert c.A == -36 and c.B == 0
    assert c.discriminant == 64 * 6**6
    assert c.j == 1728
    with pytest.raises(ValueError):
        congruent_curve(8)
    with pytest.raises(ValueError):
        congruent_curve(0)


def test_double_x_examples():
    assert double_x(-4, 5) == Fraction(1681, 144)
    assert double_x(45, 5) == Fraction(1681, 144)
    for x in (0, 5, -5):
        with pytest.raises(TorsionInput):
            double_x(x, 5)


def test_double_x_never_integral():
    # the 2-adic obstruction needs no point: any abscissa off the 2-torsion works
    for N in (5, 6, 7, 10, 13, 30):
        for x in range(-20, 60):
            if x in (0, N, -N):
                continue
            assert _ord2(double_x(x, N)) < 0


def test_verify_double_not_integral():
    verify = verify_double_not_integral
    r = verify(5, rational_point(-4, 6))
    assert r.holds and r.inputs["ord2"] == -4 and r.inputs["case_floor"] == -2
    r = verify(6, rational_point(12, 36))
    assert r.holds and r.inputs["case_floor"] == -1 and r.inputs["ord2"] == -2
    r = verify(15, rational_point(25, 100))
    assert r.holds and r.inputs["case_floor"] == -2 and r.inputs["ord2"] == -4
    r = verify(5, rational_point(45, 300))
    assert r.holds


def test_verify_double_not_integral_rejects_a_rational_abscissa():
    # x(2P) for P = (-4, 6) on N = 5; truncating it to 11 would report on another abscissa
    with pytest.raises(ValueError, match="not an integer"):
        verify_double_not_integral(5, point_from_abscissa(5, "1681/144"))


def _actual_ord2(a: int, N: int, n: int) -> int:
    b = math.isqrt(a**3 - N * N * a)
    terms = ward_terms(Multiples(congruent_curve(N), rational_point(a, b)), n + 1)
    return valuation(terms.h[n], 2)


def test_ord2_profile_odd_exact():
    # both odd
    assert ord2_profile(25, 15, 3) == (2, True)
    for n in (3, 5, 7):
        assert ord2_profile(25, 15, n) == ((n * n - 1) // 4, True)
        assert _actual_ord2(25, 15, n) == (n * n - 1) // 4
    # mixed parity: the division value is odd
    for n in (3, 5, 7):
        assert ord2_profile(-3, 6, n) == (0, True)
        assert _actual_ord2(-3, 6, n) == 0
        assert ord2_profile(-4, 5, n) == (0, True)
        assert _actual_ord2(-4, 5, n) == 0
    # a = 2 mod 4 with N even
    for n in (3, 5, 7):
        assert ord2_profile(-2, 6, n) == (3 * (n * n - 1) // 4, True)
        assert _actual_ord2(-2, 6, n) == 3 * (n * n - 1) // 4
    # a = 0 mod 4 with N even
    for n in (3, 5, 7):
        assert ord2_profile(12, 6, n) == ((n * n - 1) // 2, True)
        assert _actual_ord2(12, 6, n) == (n * n - 1) // 2


def test_ord2_profile_even_floor():
    for n in (2, 4, 6, 8):
        value, exact = ord2_profile(25, 15, n)
        assert not exact
        assert _actual_ord2(25, 15, n) >= value
    # equality happens at n = 2: ord2(2b) = 1 + ord2(b)
    assert ord2_profile(45, 5, 2).value == _actual_ord2(45, 5, 2)


def test_ord2_profile_edges():
    assert ord2_profile(-4, 5, 1) == (0, True)
    with pytest.raises(ParityMismatch):
        ord2_profile(-3, 6, 2)  # mixed parity, even n
    with pytest.raises(ParityMismatch):
        ord2_profile(12, 6, 2)  # a = 0 mod 4, N even, even n
    with pytest.raises(ParityMismatch):
        ord2_profile(-2, 6, 2)  # a = 2 mod 4, N even, even n
    with pytest.raises(TorsionInput):
        ord2_profile(0, 5, 3)
    with pytest.raises(TorsionInput):
        ord2_profile(5, 5, 3)
    with pytest.raises(ValueError):
        ord2_profile(3, 5, 3)  # negative ordinate square
    with pytest.raises(ValueError):
        ord2_profile(7, 5, 3)  # not a perfect square


@pytest.mark.parametrize(
    "N, x, y",
    [(5, -4, 6), (5, 45, 300), (5, 0, 0), (6, "-3", 9), (5, Fraction(1681, 144), Fraction(62279, 1728))],
)
def test_point_from_abscissa(N, x, y):
    P = point_from_abscissa(N, x)
    assert (P.x, P.y) == (Fraction(x), y)


@pytest.mark.parametrize("x, kind", [(3, "real"), ("1/2", "real"), (-1, "rational"), ("-1/2", "rational"), (7, "rational")])
def test_point_from_abscissa_rejects(x, kind):
    with pytest.raises(ValueError) as info:
        point_from_abscissa(5, x)
    assert str(info.value) == f"abscissa {x} carries no {kind} point for N = 5"


def test_binary_form_checks():
    for n in (3, 5, 7, 9, 11, 13):
        report = binary_form_checks(5, n)
        assert report.holds
        assert report.inputs["value_10"] == n
        assert abs(report.inputs["value_01"]) == 1
    report = binary_form_checks(7, 3)
    assert report.inputs["value_01"] == -1
    assert psi_value_binary(3, 1, 0) == 3
    with pytest.raises(ValueError):
        binary_form_checks(5, 2)
    with pytest.raises(ValueError):
        binary_form_checks(5, 15)


def test_hn_cap():
    assert hn_cap(15, 3) == 810000
    assert abs(psi_value_binary(3, 25, 15)) == 277500 <= 810000
    assert hn_cap(5, 3) == 10**4
    assert hn_cap(6, 3) == 2**4 * hn_cap(3, 3)
    with pytest.raises(ValueError):
        hn_cap(5, 4)


def test_multiplier_height_cap():
    assert multiplier_height_cap(11, 5) == pytest.approx(math.log(11) + math.log(5) / 2 + math.log(2) / 3)
    assert multiplier_height_cap(3, 5) < multiplier_height_cap(4, 5)
    assert multiplier_height_cap(3, 5) < multiplier_height_cap(3, 7)
    with pytest.raises(ValueError):
        multiplier_height_cap(1, 5)


def test_multiplier_cap_feeds_prime_contradiction():
    # combining the cap with hhat >= log(2 N^2)/16 bounds q^2 for prime q with qP integral
    for N in (6, 7, 10, 15, 50, 1000):
        for q in (2, 3, 5, 7, 11):
            chained = 16 * multiplier_height_cap(q, N) / math.log(2 * N * N)
            assert chained <= 4.1 * math.log(q) + 4.217 + 1e-12
    # and q^2 <= 4.1 log q + 4.217 already fails at q = 3: no odd prime survives
    assert 9 > 4.1 * math.log(3) + 4.217
    assert 4 < 4.1 * math.log(2) + 4.217


def test_growth_poly_shape():
    coeffs = growth_poly()
    assert len(coeffs) == 7
    prefactor = 2592 * math.e * 4e41 / math.log(56)
    assert float(coeffs[6]) == pytest.approx(prefactor, rel=1e-12)
    # constant term: prefactor times the product of the factor offsets
    log2 = math.log(2)
    product = (log2 + 1 / (2 * math.e)) * (log2 + 1 / 3) ** 3 * (2 * log2 / 9) * log2
    assert float(coeffs[0]) == pytest.approx(prefactor * product, rel=1e-12)


def test_growth_ratio():
    assert float(growth_ratio(math.log(56))) == pytest.approx(2.92990, abs=1e-4)
    assert growth_ratio_check(56).holds
    assert growth_ratio_check(10**6).holds
    # g decreases toward 1
    assert 1 < float(growth_ratio(1000.0)) < 1.02
    with pytest.raises(ValueError):
        growth_ratio_check(55)


def test_growth_poly_crossover():
    # the k = 0 comparison fails at 3.6e27 in exact arithmetic; the true
    # crossover of x^2 against P(log x) sits near 7.3e27
    assert not poly_growth_check(growth_poly(), 3.6e27).holds
    assert not poly_growth_check(growth_poly(), 7.2e27).holds
    assert poly_growth_check(growth_poly(), 7.4e27).holds


def test_n_cap():
    assert n_cap(56).threshold == pytest.approx(3.6e27)
    assert n_cap(75).threshold == pytest.approx(3.6e27)
    # the (log N)^{5/2} branch takes over around N = e^27.4
    assert n_cap(10**12).threshold > 3.6e27
    assert n_cap(10**12).threshold == pytest.approx(9.196e23 * math.log(10**12) ** 2.5)
    with pytest.raises(ValueError):
        n_cap(55)


def test_gap_floor():
    # at N = 1 only the period term survives: log(omega1 / 2) = log(1.311028...)
    assert gap_floor(2, 1).threshold == pytest.approx(0.2708121, abs=1e-6)
    assert gap_floor(11, 75).threshold == pytest.approx(63.414, abs=1e-3)
    assert gap_floor(11, 75).threshold <= math.log(N_CAP_SMALL) < gap_floor(11, 76).threshold
    assert gap_floor(11, 30).threshold < gap_floor(12, 30).threshold
    assert gap_floor(11, 30).threshold < gap_floor(11, 31).threshold
    with pytest.raises(ValueError):
        gap_floor(1, 5)


def _resolved_branches():
    report = resolve_N_threshold()
    return report.inputs["branch1"], report.inputs["branch2"]


def test_resolve_N_threshold():
    assert _resolved_branches() == (75, 54)


def _branch_predicates():
    """resolve_N_threshold's two branches at n1 = 11, as predicates on N."""
    ctx = context(128)
    return (
        lambda N: gap_floor(11, N).threshold <= ctx.ln(ctx.mpf(N_CAP_SMALL)),
        lambda N: gap_floor(11, N).threshold <= ctx.ln(ctx.mpf(N_CAP_COEFF) * ctx.ln(N) ** ctx.mpf("2.5")),
    )


@pytest.mark.parametrize("branch, last", [(0, 75), (1, 54)])
def test_resolve_N_threshold_matches_linear_scan(branch, last):
    # the last N in [2, 5000) where the branch holds, found by testing every N
    predicate = _branch_predicates()[branch]
    assert max(N for N in range(2, 5000) if predicate(N)) == _resolved_branches()[branch] == last


@pytest.mark.parametrize("branch, N", [(0, 74.5), (0, 76.5), (0, 1.5), (1, 53.5), (1, 55.5)])
def test_certified_boundary_rejects_a_missed_solution(branch, N):
    # N = 74 (53) also holds at N + 1, N = 76 (55) already fails, and N = 1 lies below the range
    with pytest.raises(InternalInvariantError, match="not the boundary"):
        congruent._certified_boundary(_branch_predicates()[branch], math.log(N))


@pytest.mark.parametrize("last", [2, 3, 40, 4999])
def test_certified_boundary_on_synthetic_predicates(last):
    def predicate(N):
        return N <= last

    # any y with floor(e^y) = last is certified, whatever its fraction
    for fraction in (0.01, 0.5, 0.99):
        assert congruent._certified_boundary(predicate, math.log(last + fraction)) == last
    # a y below the boundary holds at N + 1 (or gives N < 2), one above fails at N, and an always-true predicate
    # holds at N + 1
    for wrong in (last - 0.5, last + 1.5):
        with pytest.raises(InternalInvariantError, match="not the boundary"):
            congruent._certified_boundary(predicate, math.log(wrong))
    with pytest.raises(InternalInvariantError, match="not the boundary"):
        congruent._certified_boundary(lambda N: True, math.log(last + 0.5))


def test_resolve_N_threshold_checks_each_float_solution(monkeypatch):
    calls = []
    reports = []
    floor, report = congruent._gap_floor_value, congruent.value_report

    def counted(n1, N):
        calls.append(N)
        return floor(n1, N)

    def counted_report(*args):
        reports.append(args[0])
        return report(*args)

    monkeypatch.setattr(congruent, "_gap_floor_value", counted)
    monkeypatch.setattr(congruent, "value_report", counted_report)
    assert _resolved_branches() == (75, 54)
    # each branch evaluates the floor at its float solution's floor N and at N + 1
    assert calls == [75, 76, 54, 55]
    # the checks compare plain floats and build one report at the end
    assert reports == ["threshold-N"]


def test_gap_floor_matches_uncached_formula():
    # the cached log(omega1/2) is the mpf the formula computes afresh, so every floor is bit-identical
    ctx = context(128)
    omega = analytic.period_data(curves.make_curve(-1, 0), 128).omega
    for n1 in range(2, 13):
        for N in range(1, 301):
            logn = ctx.ln(N)
            assert gap_floor(n1, N).threshold == float(ctx.mpf(n1) ** 2 / 8 * logn - logn / 2 + ctx.ln(omega / 2))


def test_nonidentity_multiplier():
    report = nonidentity_multiplier(5, rational_point(-4, 6), 1)
    assert report.holds
    assert report.inputs["chain_bound"] < 8
    report = nonidentity_multiplier(5, rational_point(-4, 6), 3)
    assert not report.holds
    assert report.inputs["n_squared"] == 9 > report.inputs["chain_bound"]
    for N in (1, 2, 3, 10, 100, 10**6):
        assert nonidentity_multiplier(N, rational_point(-1, 0), 1).inputs["chain_bound"] < 8


def test_nonidentity_multiplier_rejects_points_off_the_oval():
    for x, y in [(45, 300), (Fraction(1681, 144), Fraction(62279, 1728))]:
        with pytest.raises(NotBoundedComponent, match=f"x = {x} lies off the bounded component -5 <= x <= 0"):
            nonidentity_multiplier(5, rational_point(x, y), 1)
    with pytest.raises(NotBoundedComponent):
        nonidentity_multiplier(5, INFINITY, 1)


def test_search_integral_points():
    assert [(int(P.x), int(P.y)) for P in search_integral_points(5, 10**6)] == [(-4, 6), (45, 300)]
    assert [(int(P.x), int(P.y)) for P in search_integral_points(7, 10**6)] == [(25, 120)]
    assert search_integral_points(1, 10**6) == []
    assert search_integral_points(3, 10**5) == []
    with pytest.raises(ValueError):
        search_integral_points(8, 10**5)
    assert [(int(P.x), int(P.y)) for P in search_integral_points(5, 3)] == [(-4, 6)]
    with pytest.raises(ValueError):
        search_integral_points(5, 0)


def test_search_stable_under_wider_range():
    narrow = search_integral_points(29, 3 * 10**5)
    wide = search_integral_points(29, 10**6)
    assert narrow == wide


def _brute_force_points(N, x_max):
    out = []
    for x in range(-N, x_max + 1):
        v = x**3 - N * N * x
        if v > 0 and math.isqrt(v) ** 2 == v:
            out.append((x, math.isqrt(v)))
    return out


def test_search_matches_brute_force():
    # 70 = 2 * 5 * 7 has 8 square-free divisors
    for N in (1, 5, 6, 30, 34, 70):
        for x_max in (1, N - 1, N, N + 1, 1000, 12345):
            if x_max < 1:
                continue
            got = [(int(P.x), int(P.y)) for P in search_integral_points(N, x_max)]
            assert got == _brute_force_points(N, x_max), (N, x_max)


def test_search_finds_points_outside_the_table():
    # the N = 77, 78 curves lie beyond the N <= 75 table but below the
    # threshold the certified cutoff gives
    assert [(int(P.x), int(P.y)) for P in search_integral_points(77, 10**6)] == [(61875, 15391200)]
    assert [(int(P.x), int(P.y)) for P in search_integral_points(78, 10**6)] == [(-3, 135), (2028, 91260)]


def test_search_to_1e8_adds_no_table_points():
    start = time.perf_counter()
    for N in GOLDEN_N:
        assert search_integral_points(N, 10**8) == search_integral_points(N, 10**6)
    assert time.perf_counter() - start < 30


def _divisors(N):
    divisors = [1]
    for p in factor_int(N):
        divisors += [d * p for d in divisors]
    return divisors


def _unsieved_points(N, x_max):
    """The search as one exact isqrt per candidate (s, a), with no sieve: the reference for the sieved search."""
    hits = []
    for s in _divisors(N):
        for sign, bound in ((1, x_max), (-1, N)):
            for a in range(1, math.isqrt(bound // s) + 1):
                x = sign * s * a * a
                v = x * x * x - N * N * x
                if v > 0:
                    y = math.isqrt(v)
                    if y * y == v:
                        hits.append((x, y))
    return sorted(hits)


def _points(N, x_max):
    return [(int(P.x), int(P.y)) for P in search_integral_points(N, x_max)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sieved_search_matches_unsieved_loop(data):
    N = data.draw(st.integers(1, 2000).filter(is_square_free), label="N")
    s = data.draw(st.sampled_from(_divisors(N)), label="s")
    a = data.draw(st.integers(1, 200), label="a")
    x_max = data.draw(st.sampled_from((1, N - 1, N, N + 1, s * a * a - 1, s * a * a, s * a * a + 1)), label="x_max")
    x_max = max(x_max, 1)
    assert _points(N, x_max) == _unsieved_points(N, x_max)


def test_sieve_keeps_every_square():
    # w(a) = c3 a^4 + c0 is set to r^2; r runs over every residue of every
    # modulus (all are at most 97), and the huge count makes every modulus
    # that rejects anything contribute a mask
    assert max(congruent._SIEVE_MODULI) <= 97
    for c3 in (1, -5, 6**3):
        for a in (1, 2, 7, 12345):
            for r in range(97):
                masks = congruent._square_cofactor_masks(c3, r * r - c3 * a**4, 10**60, 1)
                assert all(tiled[a % m] == 1 for m, tiled in masks), (c3, a, r)


def _residue_tables(m):
    """The row a^4 mod m over a in [0, m), its distinct values, and the square flags mod m."""
    fourth = bytes(pow(a, 4, m) for a in range(m))
    square = bytearray(m)
    for b in range(m):
        square[b * b % m] = 1
    return fourth, sorted(set(fourth)), bytes(square)


_FOURTH_POWERS = {m: _residue_tables(m) for m in congruent._SIEVE_MODULI}


def _per_call_masks(c3, c0, count, block):
    """The masks with each translate table built in the call, by a loop over the fourth-power residues mod m.

    The reference for the rows that congruent precomputes at import.
    """
    masks = []
    expected = float(count)
    for m in congruent._SIEVE_MODULI:
        if expected < 1:
            break
        fourth, values, square = _FOURTH_POWERS[m]
        cm, dm = c3 % m, c0 % m
        table = bytearray(256)
        for t in values:
            table[t] = square[(cm * t + dm) % m]
        row = fourth.translate(table)
        kept = row.count(1)
        if kept < m:
            masks.append((m, row * (block // m + 2)))
            expected *= kept / m
    return masks


def test_precomputed_masks_match_per_call_construction():
    # c3, c0 in [0, 97) give every residue pair (c3 mod m, c0 mod m) of every modulus; a count of 10^60
    # keeps every modulus that rejects anything, the smaller counts stop early, and block sets the tiling
    top = max(congruent._SIEVE_MODULI)
    for c3 in range(top):
        for c0 in range(top):
            assert congruent._square_cofactor_masks(c3, c0, 10**60, 1) == _per_call_masks(c3, c0, 10**60, 1), (c3, c0)
    for c3, c0 in ((1, -25), (-125, 3125), (6**3, -6 * 36), (-(29**3), 29**3)):
        for count, block in ((1, 1), (40, 40), (10**4, 1 << 14)):
            assert congruent._square_cofactor_masks(c3, c0, count, block) == _per_call_masks(c3, c0, count, block)


@pytest.mark.parametrize("N", [5, 6, 29, 77, 78, 210])
def test_sieved_search_matches_unsieved_loop_at_1e9(N):
    assert _points(N, 10**9) == _unsieved_points(N, 10**9)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("N, s", [(6, 1), (6, 2), (29, 29)])
def test_sieved_search_at_block_boundaries(N, s, offset):
    # x > 0 runs over isqrt(N // s) < a <= isqrt(x_max // s)
    count = congruent._SIEVE_BLOCK + offset
    x_max = s * (math.isqrt(N // s) + count) ** 2
    assert math.isqrt(x_max // s) - math.isqrt(N // s) == count
    assert _points(N, x_max) == _unsieved_points(N, x_max)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sieved_search_at_block_boundaries_on_the_oval(offset):
    # x < 0 runs over 1 <= a <= isqrt((N - 1) // s); take s = 1
    count = congruent._SIEVE_BLOCK + offset
    N = next(N for N in range(count * count + 1, (count + 1) ** 2) if is_square_free(N))
    assert math.isqrt(N - 1) == count
    assert _points(N, 1) == _unsieved_points(N, 1)


def test_search_memory_does_not_grow_with_the_window():
    tracemalloc.start()
    try:
        points = search_integral_points(5, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(int(P.x), int(P.y)) for P in points] == [(-4, 6), (45, 300)]
    assert peak < 2**20


def test_search_to_1e10_adds_no_table_points():
    for N in GOLDEN_N:
        assert search_integral_points(N, 10**10) == search_integral_points(N, 10**6), N


def test_table_matches_expected(table):
    assert tuple(row.N for row in table.rows) == GOLDEN_N
    for row in table.rows:
        assert tuple((int(P.x), int(P.y)) for P in row.points) == EXPECTED_TABLE[row.N]


def test_table_factors_each_N_once(monkeypatch):
    square_free = [N for N in range(1, 76) if is_square_free(N)]
    calls = []

    def counting(n):
        calls.append(n)
        return factor_int(n)

    patch_aliases(monkeypatch, factor_int, counting)
    table = reproduce_table(75)
    assert tuple(row.N for row in table.rows) == GOLDEN_N
    # one factorization per square-free N, the search's validation; none for the others
    assert calls == square_free


def test_table_runs_the_engine_once_per_two_torsion_class(monkeypatch, table):
    # the 38 golden points fall into 21 classes {P + T : T in E[2]}, one x(2P) each
    engine, starts = heights._renormalized_doubling, []

    def counting(c, x, *rest):
        starts.append((c.A, x))
        return engine(c, x, *rest)

    monkeypatch.setattr(heights, "_renormalized_doubling", counting)
    assert reproduce_table(75) == table
    assert len(starts) == len(set(starts)) == 21
    classes = {(row.N, Multiples(congruent_curve(row.N), P)[2]) for row in table.rows for P in row.points}
    assert sum(len(row.points) for row in table.rows) == 38 and len(classes) == 21


def test_table_heights(table):
    for row in table.rows:
        assert row.ratio_ok
        for h in row.heights:
            assert h > 0
        for hp in row.heights:
            for hq in row.heights:
                assert hp < 121 * hq


def test_golden_heights_are_depth_19_values():
    # the default tolerance 1e-10 runs every golden point at doubling depth 19, and each golden hhat lies
    # within that depth's window bound 2 h(E) / 4^19 of the depth-40 value; 9 rows (N = 5, 21, 30) round one
    # unit lower in the 12th significant digit than the converged value
    for N, x, y, hhat in GOLDEN_ROWS:
        c = congruent_curve(int(N))
        P = rational_point(int(x), int(y))
        assert canonical_height(Multiples(c, P)).iterations == 19
        converged = _renormalized_doubling(c, P.x, 40, 512) / (2 * 4**40)
        assert abs(float(hhat) - converged) < 2 * curve_height(c).value / 4**19, (N, x)


def test_table_points_have_nonintegral_small_multiples(table):
    # denominators D_n grow past 1 immediately for 2 <= n <= 7
    for row in table.rows:
        c = congruent_curve(row.N)
        for P in row.points:
            dens = ward_terms(Multiples(c, P), 7).D
            for n in range(2, 8):
                assert dens[n] is not None and dens[n] > 1


def test_table_height_windows(table):
    for row in table.rows:
        c = congruent_curve(row.N)
        for P in row.points:
            assert height_window_check(c, P, canonical_height(Multiples(c, P))).holds


def test_height_windows_literals():
    # N = 5, P = (-4, 6): hhat = 0.94974..., h(x)/2 = log(4)/2
    P = rational_point(-4, 6)
    hdiff, floor, cap = height_windows(5, P, canonical_height(Multiples(congruent_curve(5), P)).value)
    assert hdiff.holds
    assert hdiff.inputs["lower"] == pytest.approx(-math.log(5) / 2 - math.log(2) / 4)
    assert hdiff.inputs["upper"] == pytest.approx(math.log(26) / 4 + math.log(2) / 12)
    assert hdiff.inputs["difference"] == pytest.approx(0.2565939056815, abs=1e-9)
    assert floor.holds
    assert floor.threshold == pytest.approx(math.log(50) / 16)
    # the oval point sits outside the upper window's domain, and in fact
    # violates the inequality there: 0.9497 > log(4)/2 + log(2)/3 = 0.924
    assert cap.applicable is False and cap.holds is None
    assert cap.inputs["hhat"] > cap.threshold


def test_height_windows_unbounded_point():
    P = rational_point(45, 300)
    hdiff, floor, cap = height_windows(5, P, canonical_height(Multiples(congruent_curve(5), P)).value)
    assert hdiff.holds and floor.holds
    assert cap.applicable is True and cap.holds is True
    assert cap.threshold == pytest.approx(math.log(45) / 2 + math.log(2) / 3)


def test_height_windows_accepts_precomputed_height(table):
    row = table.rows[0]
    reports = height_windows(row.N, row.points[0], row.heights[0])
    assert reports[0].inputs["hhat"] == row.heights[0]


def test_height_windows_torsion_rejected():
    with pytest.raises(TorsionInput):
        height_windows(5, rational_point(5, 0), 0.0)
    with pytest.raises(TorsionInput):
        height_windows(5, rational_point(0, 0), 0.0)


@pytest.mark.parametrize("N", [0, -5, 4, 12])
def test_height_windows_validates_N(N):
    with pytest.raises(ValueError, match=f"N must be a square-free positive integer, got {N}"):
        height_windows(N, rational_point(-4, 6), 1.0)


def test_table_ord_l_structure(table):
    checked = 0
    for row in table.rows:
        for P in row.points:
            a = int(P.x)
            g = math.gcd(abs(a), row.N)
            if g == 1:
                continue
            for ell in sorted(factor_int(g)):
                for n in (3, 5, 7):
                    if 2 * n % ell == 0:
                        continue
                    got = valuation(psi_value_binary(n, a, row.N), ell)
                    assert got == (n * n - 1) // 2 * valuation(g, ell)
                    checked += 1
    assert checked > 20


def test_table_csv_shape(table):
    text = table_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "N,x,y,hhat"
    assert len(lines) == 1 + sum(len(row.points) for row in table.rows)
    assert lines[1].startswith("5,-4,6,")
