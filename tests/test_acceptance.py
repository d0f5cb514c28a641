"""Acceptance gate: ten numbered end-to-end checks at their stated tolerances.

Each test prints one "ACCEPTANCE nn PASS|FAIL" line (visible with -s, or in
the captured output of a failing test); pytest's own per-test verdicts mirror
them.  Nothing here is loosened to force a pass.

Check 03 asserts the polynomial-growth comparison at its proven verdicts.  For
the degree-6 polynomial P that ``congruent.growth_poly`` pins, an exact sympy
evaluation gives P(log W) / W^2 = 3.8005 at the paper's stated cutoff
W = 3.6e27, so the comparison W^2 > P(log W) fails there; the least passing W
is 7.2501e27 (``bounds.crossing_point``).  The pinned P is the paper's: its
second-branch coefficient 9.196e23 is 10 sqrt(3 * 2592 e * 4e41) =
10 * 9.19508e22 rounded up, the same digits as the prefactor 2592 e C of P.
So 3.6e27 is an erratum, and the check asserts that the program reports it as
failing, against an evaluation of P built from its closed form rather than
from the program's coefficients, and that the comparison certifies from 7.3e27.
"""

import math
import random
import time
from importlib import resources

import pytest
import sympy

from ellmult import (
    Multiples,
    canonical_height,
    curve_height,
    height_window_check,
    make_curve,
    multiply,
    rational_point,
    torsion_x_coords,
    ward_terms,
    x_multiple_exact,
)
from ellmult import analytic, bounds, cli, congruent
from ellmult._precision import context
from ellmult.errors import InadmissibleParameters, SingularCurve
from ellmult.factorization import is_square_free, valuation
from ellmult.localdata import global_M

# frozen expected rows: N -> ((x, y), ...) with x ascending, y > 0
EXPECTED_POINTS = {
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


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def table():
    return congruent.reproduce_table()


def _sampled_pairs(count: int, seed: int, depth: int = 50):
    """Integral points on small nonsingular curves with nonzero terms to depth."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a = rng.randint(-4, 8)
        b = rng.randint(1, 12)
        A = rng.randint(-8, 8)
        B = b * b - a * a * a - A * a
        try:
            c = make_curve(A, B)
        except SingularCurve:
            continue
        P = rational_point(a, b)
        terms = ward_terms(Multiples(c, P), depth)
        if any(t is None or t == 0 for t in terms.h[1 : depth + 1]):
            continue
        pairs.append((c, P, terms))
    return pairs


def test_criterion_01_table_reproduction(capsys):
    t0 = time.monotonic()
    code_json = cli.main(["congruent-table"])
    json_out = capsys.readouterr().out
    code_csv = cli.main(["congruent-table", "--format", "csv"])
    csv_out = capsys.readouterr().out
    elapsed = time.monotonic() - t0

    golden = resources.files("ellmult").joinpath("data/table_n75.csv").read_text()
    parsed = {}
    for line in csv_out.strip().split("\n")[1:]:
        n_str, x_str, y_str, _ = line.split(",")
        parsed.setdefault(int(n_str), []).append((int(x_str), int(y_str)))
    ok = (
        code_json == 0
        and code_csv == 0
        and csv_out == golden
        and {n: tuple(pts) for n, pts in parsed.items()} == EXPECTED_POINTS
        and len(parsed) == 16
        and elapsed < 300.0
        and '"match": true' in json_out
    )
    with capsys.disabled():
        _verdict(1, "default congruent-table run is byte-identical to the frozen table", ok, f"{elapsed:.1f}s")


def test_criterion_02_period_window(capsys):
    ctx = context(128)
    omega1 = analytic.period_data(make_curve(-1, 0), 128).omega
    ok = 2.62 < float(omega1) < 2.63
    worst = 0.0
    for N in (5, 6, 7, 29):
        omegaN = analytic.period_data(make_curve(-N * N, 0), 128).omega
        gap = abs(omegaN * ctx.sqrt(N) - omega1)
        worst = max(worst, float(gap))
        ok = ok and gap < ctx.mpf("1e-10")
    with capsys.disabled():
        _verdict(2, "base period in (2.62, 2.63) and omega_N sqrt(N) matches it", ok, f"worst gap {worst:.2e}")


def _growth_poly_closed_form(x):
    """P(x) from the closed form in the growth_poly docstring, exact in sympy."""
    e, log2, third = sympy.E, sympy.log(2), sympy.Rational(1, 3)
    prefactor = 2592 * e * bounds.DAVID_C / sympy.log(56)
    return (
        prefactor
        * (x + log2 + 1 / (2 * e))
        * (x + log2 + third) ** 3
        * (x + 2 * log2 / 9)
        * (x + log2)
    )


def test_criterion_03_threshold_reproduction(capsys):
    thresholds = congruent.resolve_N_threshold().inputs
    thresholds_ok = (thresholds["branch1"], thresholds["branch2"]) == (75, 54)
    calculus_ok = abs(bounds.calculus_threshold(4.1, 4.217).threshold - 8.317) < 1e-12

    # at the stated cutoff the comparison fails, as an independent exact
    # evaluation of P(log W) - W^2 > 0 shows
    coeffs = congruent.growth_poly()
    stated = congruent.N_CAP_SMALL
    at_stated = bounds.poly_growth_check(coeffs, stated)
    W = sympy.Integer(int(stated))
    exact = _growth_poly_closed_form(sympy.log(W))
    exact_value = float(sympy.N(exact, 50))
    stated_ok = (
        at_stated.holds is False
        and bool(sympy.N(exact - W**2, 50) > 0)
        and at_stated.inputs["max_term"] == pytest.approx(exact_value, rel=1e-12)
    )

    # the comparison certifies from 7.3e27 and the gap floor then closes N at 78
    certified = 7.3e27
    ctx = context(bounds.EVAL_BITS)
    crossing = bounds.crossing_point(lambda x: ctx.polyval(list(reversed(coeffs)), ctx.ln(x)))
    certified_threshold = max(
        N for N in range(2, 200) if congruent.gap_floor(11, N).threshold <= math.log(certified)
    )
    certified_ok = (
        bounds.poly_growth_check(coeffs, 7.2e27).holds is False
        and bounds.poly_growth_check(coeffs, certified).holds is True
        and 7.2e27 < crossing <= certified
        and certified_threshold == 78
    )
    detail = (
        f"thresholds(75,54)={'ok' if thresholds_ok else 'BAD'}, "
        f"calculus 8.317={'ok' if calculus_ok else 'BAD'}, "
        f"stated cutoff {stated:.1e}: P(log W)/W^2 {exact_value / float(W) ** 2:.4f} "
        f"-> holds={at_stated.holds} ({'ok' if stated_ok else 'BAD'}), "
        f"certified cutoff {certified:.1e} (crossing {crossing:.4e}) "
        f"-> N threshold {certified_threshold} ({'ok' if certified_ok else 'BAD'})"
    )
    ok = thresholds_ok and calculus_ok and stated_ok and certified_ok
    with capsys.disabled():
        _verdict(3, "threshold pair, calculus constant, growth comparison at stated and certified cutoffs", ok, detail)


def test_criterion_04_doubling_never_integral(capsys, table):
    rng = random.Random(41)
    samples = []
    for row in table.rows:
        for P in row.points:
            samples.append((row.N, int(P.x)))
    # right-triangle construction: legs t, v and hypotenuse w give the
    # integral point (w^2, w^2 t) on the N = w v curve
    for m in range(2, 11):
        for n in range(1, m):
            if (m + n) % 2 == 1 and math.gcd(m, n) == 1:
                t, v, w = m * m - n * n, 2 * m * n, m * m + n * n
                for leg in (t, v):
                    N = w * leg
                    if N <= 10**4 and is_square_free(N):
                        other = v if leg is t else t
                        assert (w * w) ** 3 - N * N * w * w == (w * w * other) ** 2
                        samples.append((N, w * w))
    pool = [N for N in range(1, 10001) if is_square_free(N)]
    while len(samples) < 500:
        N = rng.choice(pool)
        a = rng.randint(-N + 1, 4 * N + 17)
        if a in (0, N, -N):
            continue
        samples.append((N, a))

    seen = set()
    ok = True
    for N, a in samples:
        rep = congruent.verify_double_not_integral(N, rational_point(a, 0))
        floor = -1 if (a % 2 == 0 and N % 2 == 0) else -2
        ok = ok and rep.holds and rep.inputs["ord2"] < 0
        ok = ok and rep.inputs["case_floor"] == floor and rep.inputs["ord2"] <= floor
        seen.add((a % 2, N % 2))
    ok = ok and seen == {(0, 0), (0, 1), (1, 0), (1, 1)} and len(samples) >= 500
    with capsys.disabled():
        _verdict(4, "ord_2 of doubled abscissa negative on 500 samples with stated floors", ok, f"{len(samples)} samples")


def test_criterion_05_sequence_sandwich(capsys, table):
    ok = True
    for row in table.rows:
        E = congruent.congruent_curve(row.N)
        log_disc = math.log(abs(E.discriminant))
        for P in row.points:
            M = global_M(Multiples(E, P)).M
            terms = ward_terms(Multiples(E, P), 50)
            D, h = terms.D, terms.h
            for n in range(1, 51):
                abs_h = abs(h[n])
                ok = ok and D[n] <= abs_h
                ok = ok and math.log(abs_h) - math.log(D[n]) <= n * n * M * M * log_disc
    with capsys.disabled():
        _verdict(5, "log D_n <= log|h_n| <= log D_n + n^2 M^2 log|disc| to n = 50", ok)


def test_criterion_06_recurrence_consistency(capsys):
    pairs = _sampled_pairs(20, seed=6)
    ok = True
    for c, P, terms in pairs:
        h = terms.h
        for m in range(2, 26):
            for n in range(1, m):
                lhs = h[m + n] * h[m - n]
                rhs = h[m - 1] * h[m + 1] * h[n] ** 2 - h[n - 1] * h[n + 1] * h[m] ** 2
                ok = ok and lhs == rhs
        for n in range(1, 26):
            ok = ok and x_multiple_exact(c, P, n) == multiply(c, n, P).x
        for n in range(1, 51):
            for m in range(2, 51):
                if m * n <= 50:
                    ok = ok and h[m * n] % h[n] == 0
    with capsys.disabled():
        _verdict(6, "recurrence identity, dual-route x(nP), and term divisibility on 20 pairs", ok)


def test_criterion_07_torsion_root_bounds(capsys):
    ok = True
    for N in (5, 15, 29):
        data = analytic.period_data(congruent.congruent_curve(N), 128)
        for n in range(2, 8):
            for root in torsion_x_coords(data, n):
                ok = ok and abs(root) <= n * n * N / 2 + 1e-6
    for A, B in ((-2, 1), (0, 1), (1, 1), (-7, 10), (3, 2)):
        c = make_curve(A, B)
        cap_scale = 120 * math.exp(curve_height(c).value)
        data = analytic.period_data(c, 128)
        for n in range(2, 8):
            for root in torsion_x_coords(data, n):
                ok = ok and abs(root) <= n * n * cap_scale + 1e-6
    with capsys.disabled():
        _verdict(7, "division-polynomial roots inside both stated radii", ok)


def test_criterion_08_height_machinery(capsys, table):
    ok = True
    worst_quad = 0.0
    for row in table.rows:
        E = congruent.congruent_curve(row.N)
        for P, hhat in zip(row.points, row.heights):
            for n in range(2, 9):
                hn = float(canonical_height(Multiples(E, multiply(E, n, P))))
                gap = abs(hn - n * n * hhat)
                worst_quad = max(worst_quad, gap)
                ok = ok and gap < 1e-6
            hdiff, floor, cap = congruent.height_windows(row.N, P, hhat)
            ok = ok and hdiff.holds and floor.holds
            ok = ok and (cap.holds if cap.applicable else cap.holds is None)
            ok = ok and cap.applicable == (P.x >= row.N)
    for c, P, _ in _sampled_pairs(20, seed=8, depth=12):
        ok = ok and height_window_check(c, P, canonical_height(Multiples(c, P))).holds
    with capsys.disabled():
        _verdict(8, "height quadraticity, three table windows, sampled coarse window", ok, f"worst |hhat(nP)-n^2 hhat(P)| {worst_quad:.2e}")


def test_criterion_09_ord2_profile(capsys, table):
    ok = True
    checked = 0
    for row in table.rows:
        E = congruent.congruent_curve(row.N)
        for P in row.points:
            h = ward_terms(Multiples(E, P), 13).h
            for n in (3, 5, 7, 9, 11, 13):
                predicted = congruent.ord2_profile(int(P.x), row.N, n)
                ok = ok and predicted.exact
                ok = ok and predicted.value == valuation(abs(h[n]), 2)
                checked += 1
    spot = congruent.ord2_profile(25, 15, 3)
    ok = ok and spot == (2, True)
    with capsys.disabled():
        _verdict(9, "predicted ord_2 of odd-index terms matches exact values", ok, f"{checked} checks")


def test_criterion_10_scale_disclosure(capsys):
    ok = True
    for bad in ((5.0, 10.0, 5.0, 2.5), (20.0, 5.0, 10.0, 2.5), (20.0, 10.0, 5.0, 8.0)):
        try:
            bounds.david_floor_log(*bad)
            ok = False
        except InadmissibleParameters:
            pass
    ok = ok and bounds.david_floor_log(20.0, 10.0, 5.0, 2.5).threshold < 0

    def rhs(x):
        return 5e4 * (math.log(x) + 7.0) ** 3

    solved = bounds.crossing_point(rhs)
    n = 2
    while n * n <= rhs(n):
        n += 1
    ok = ok and abs(solved - n) <= 1.0
    with capsys.disabled():
        print(
            "DISCLOSURE: the absolute constant 4e41 in the linear-form floor and the "
            "global finiteness statements are not desk-verifiable; this gate certifies "
            "formula evaluation (admissibility enforcement) and brute-force agreement "
            "(bisection crossing within 1 of the integer scan), not the cited constants."
        )
        _verdict(10, "admissibility enforcement and bisection-vs-scan agreement", ok, f"crossing {solved:.1f} vs scan {n}")
