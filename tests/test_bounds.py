"""Tests for the explicit inequality evaluators.

Formula evaluators are checked against hand-computed literals and against
structural properties (scaling, monotonicity); the threshold finders are
checked against brute-force integer scans where the crossing is small enough
to scan.
"""

import math

import numpy as np
import pytest

from ellmult import bounds
from ellmult._precision import context
from ellmult.bounds import (
    DAVID_C,
    EVAL_BITS,
    calculus_threshold,
    composite_cap,
    crossing_point,
    david_admissible,
    david_floor_log,
    gap_relation,
    lang_constant,
    linear_form_constant,
    linear_form_regime,
    multiple_height_cap,
    n_cap_general,
    poly_growth_check,
    upper_form_bound,
)
from ellmult.errors import InadmissibleParameters
from ellmult.reports import BoundReport


def test_constants():
    assert lang_constant(1) == pytest.approx(1e-5)
    assert lang_constant(2) == pytest.approx(1 / (10**5 * 64))
    assert linear_form_constant(1) == pytest.approx(5e-6)
    assert linear_form_regime(1) == pytest.approx(math.sqrt(6e5))


def test_multiple_height_cap():
    hE = math.log(4 * 25)
    assert multiple_height_cap(2, 1, hE).threshold == pytest.approx(math.log(2) + (16 / 3 + 2) * hE)
    assert multiple_height_cap(3, 2, 1.0).threshold == pytest.approx(math.log(3) + 64 / 3 + 2)
    # increasing in every argument
    assert multiple_height_cap(2, 1, 1.0).threshold < multiple_height_cap(5, 1, 1.0).threshold
    assert multiple_height_cap(2, 1, 1.0).threshold < multiple_height_cap(2, 3, 1.0).threshold
    with pytest.raises(ValueError):
        multiple_height_cap(1, 1, 1.0)
    with pytest.raises(ValueError):
        multiple_height_cap(2, 0, 1.0)


def test_calculus_threshold_values():
    assert calculus_threshold(4.1, 4.217).threshold == pytest.approx(8.317)
    assert calculus_threshold(0.0, 0.0).threshold == pytest.approx(math.e)
    assert calculus_threshold(1.0, 10.0).threshold == pytest.approx(11.0)
    with pytest.raises(ValueError):
        calculus_threshold(-1.0, 0.0)


@pytest.mark.parametrize("a,b", [(4.1, 4.217), (0.0, 0.0), (1.0, 10.0), (30.0, 5.0), (0.5, 200.0)])
def test_calculus_threshold_certified_by_sampling(a, b):
    t = calculus_threshold(a, b).threshold
    xs = np.geomspace(t, 1000 * t, 10_000)
    assert np.all(xs * xs - a * np.log(xs) - b >= 0)


def test_poly_growth_square():
    # P(x) = x^2 at W = 2: terms are (log 2)^2, log 2, 1/2, all below 4
    report = poly_growth_check((0, 0, 1), 2.0)
    assert report.holds
    assert report.threshold == pytest.approx(4.0)
    assert report.inputs["degree"] == 2
    assert report.inputs["max_term"] == pytest.approx(math.log(2))


def test_poly_growth_failures():
    # a huge constant term fails at k = 0
    report = poly_growth_check((math.e**100,), 2.0)
    assert not report.holds
    # k = 0 passes but the first derivative term 10/2 exceeds W^2 = 4
    report = poly_growth_check((0, 10), 2.0)
    assert not report.holds


def test_poly_growth_certified_by_sampling():
    coeffs = (7, 3, 0, 0, 1)  # 7 + 3x + x^4
    report = poly_growth_check(coeffs, 10.0)
    assert report.holds
    xs = np.geomspace(10.0, 10_000.0, 10_000)
    values = sum(c * np.log(xs) ** k for k, c in enumerate(coeffs))
    assert np.all(xs * xs > values)


def test_poly_growth_degree_cap():
    with pytest.raises(ValueError):
        poly_growth_check((0,) * 10, 2.0)


def test_david_floor_literal():
    # log B = 6, log V1 = 4, log V2 = 2, hE = 2
    expected = -DAVID_C * 7 * (math.log(6) + 3) ** 3 * 4 * 2
    got = david_floor_log(6.0, 4.0, 2.0, 2.0).threshold
    assert got == pytest.approx(expected, rel=1e-12)
    assert got < 0


def test_david_floor_matches_log_form():
    # the floor as stated on the sizes B, V1, V2, evaluated on their logs
    B, V1, V2, hE = math.e**6, math.e**4, math.e**2.5, 2.0
    expected = -DAVID_C * (math.log(B) + 1) * (math.log(math.log(B)) + hE + 1) ** 3 * math.log(V1) * math.log(V2)
    got = david_floor_log(math.log(B), math.log(V1), math.log(V2), hE).threshold
    assert got == pytest.approx(expected, rel=1e-12)


def test_david_floor_scales_linearly_in_log_v2():
    one = david_floor_log(20.0, 8.0, 2.0, 2.0).threshold
    two = david_floor_log(20.0, 8.0, 4.0, 2.0).threshold
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_david_floor_rejects_bad_ordering():
    with pytest.raises(InadmissibleParameters):
        david_floor_log(6.0, 2.0, 4.0, 2.0)  # V1 below V2
    with pytest.raises(InadmissibleParameters):
        david_floor_log(6.0, 4.0, 1.0, 2.0)  # V2 below hE
    with pytest.raises(InadmissibleParameters):
        david_floor_log(5.0, 4.0, 2.0, 2.0)  # B below e^(e hE)


def test_david_admissible():
    base = dict(logB=60.0, logV1=30.0, logV2=12.0, hE=4.0, tau_im=1.0, hhat=10.0, z_abs=0.1, omega=2.5, n=5, m=2)
    assert david_admissible(**base)
    assert not david_admissible(**{**base, "logV2": 3.0})  # below hE
    assert not david_admissible(**{**base, "tau_im": 0.01})  # 3 pi / Im tau too large
    assert not david_admissible(**{**base, "hhat": 20.0})  # V1 below 2 hhat
    assert not david_admissible(**{**base, "logV1": 10.0})  # V1 below V2
    assert not david_admissible(**{**base, "logB": 20.0})  # B below V1
    assert not david_admissible(**{**base, "n": 10**30})  # B below log n


def test_crossing_point_against_integer_scan():
    cases = [
        lambda x: 5e4 * math.log(x) ** 3 + 100,
        lambda x: 1e6 + 0 * x,
        lambda x: 2e3 * math.log(x) ** 2 + 7e3 * math.log(x),
    ]
    for rhs in cases:
        got = crossing_point(rhs)
        best = 2
        for n in range(2, 20_000):
            if n * n <= rhs(n):
                best = n
        assert abs(got - best) <= 1.0


def test_crossing_point_degenerate():
    # rhs already below x^2 at the left end
    assert crossing_point(lambda x: 1) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        crossing_point(lambda x: x**3)


def _bisected_crossing(rhs):
    """crossing_point with all EVAL_BITS + 64 bisection steps: the reference for its early stop."""
    ctx = context(EVAL_BITS)

    def short(y):
        return 2 * y - ctx.ln(rhs(ctx.exp(y)))

    lo_y = ctx.ln(2)
    if short(lo_y) > 0:
        return 2.0
    hi_y = lo_y + 1
    while short(hi_y) <= 0:
        hi_y += 50
    for _ in range(EVAL_BITS + 64):
        mid = (lo_y + hi_y) / 2
        if short(mid) <= 0:
            lo_y = mid
        else:
            hi_y = mid
    return float(ctx.exp(lo_y))


@pytest.mark.parametrize("M", [1, 2, 3, 4, 6, 12])
def test_crossing_point_stops_on_the_float_that_full_bisection_returns(monkeypatch, M):
    solve, seen = bounds.crossing_point, []

    def recording(rhs):
        calls = []
        got = solve(lambda x: calls.append(x) or rhs(x))
        seen.append((rhs, got, len(calls)))
        return got

    monkeypatch.setattr(bounds, "crossing_point", recording)
    for hE in (11.0, 30.0, 100.0, 777.7, 3000.0, 2.5e4, 1e5):
        n_cap_general(M, hE)
        rhs, got, calls = seen[-1]
        assert got == _bisected_crossing(rhs), (M, hE)
        assert calls <= 80, (M, hE, calls)


def test_n_cap_general_small_height_sentinel():
    assert n_cap_general(1, 10.0).threshold is None
    assert n_cap_general(1, 2 * math.pi * math.sqrt(3) + 0.01).threshold is not None


def test_n_cap_general_ratio():
    # quadrupling h(E) should scale the cap by roughly 4^2.5 = 32
    lo = n_cap_general(1, 1000.0).threshold
    hi = n_cap_general(1, 4000.0).threshold
    assert abs(hi / lo - 32.0) < 3.2


def test_n_cap_general_monotone():
    assert n_cap_general(1, 20.0).threshold < n_cap_general(1, 200.0).threshold
    assert n_cap_general(1, 50.0).threshold < n_cap_general(2, 50.0).threshold


def test_upper_form_bound():
    ten = upper_form_bound(10, 1 / 8, math.log(5)).threshold
    assert ten == pytest.approx(-100 / 8 * math.log(5))
    assert upper_form_bound(20, 1 / 8, math.log(5)).threshold == pytest.approx(4 * ten)
    assert upper_form_bound(3, 5e-6, 11.0).threshold < 0
    with pytest.raises(ValueError):
        upper_form_bound(0, 1 / 8, 1.0)
    with pytest.raises(ValueError):
        upper_form_bound(2, 0.0, 1.0)


def test_gap_relation():
    report = gap_relation(2, 100, 1.0, 0.5, 2.0)
    assert report.holds
    assert report.threshold == pytest.approx(2.0)
    report = gap_relation(2, 5, 1.0, 0.5, 2.0)
    assert not report.holds
    with pytest.raises(ValueError):
        gap_relation(5, 5, 1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        gap_relation(2, 5, 1.0, 0.5, -1.0)


def test_composite_cap():
    assert composite_cap(1, 10.0, 1e-5).threshold == pytest.approx(1e5 * (0.1 + 16 / 3 + 2))
    assert composite_cap(1, 10.0, 1e6).threshold == pytest.approx(math.e)
    with pytest.raises(ValueError):
        composite_cap(1, 10.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bound_report_rejects_non_finite_threshold_and_inputs(value):
    with pytest.raises(ValueError, match="threshold is"):
        BoundReport(name="b", inputs={"n": 2}, threshold=value, holds=True, citation="c")
    with pytest.raises(ValueError, match="hE is"):
        BoundReport(name="b", inputs={"n": 2, "hE": value}, threshold=1.0, holds=True, citation="c")
    report = BoundReport(name="b", inputs={"n": 2, "flag": True}, threshold=None, holds=None, citation="c")
    assert report.to_json()["threshold"] is None
