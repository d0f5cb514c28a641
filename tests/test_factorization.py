"""Trial division, the sympy fallback, the digit budget, valuations and square-freeness."""

import pytest
import sympy

from ellmult.errors import FactorizationTooLarge
from ellmult.factorization import DIGIT_BUDGET, TRIAL_LIMIT, factor_int, is_square_free, valuation

# two primes above the trial-division limit, so their product needs the fallback
P1, P2 = 1000003, 1000033


@pytest.fixture
def fallback_calls(monkeypatch):
    calls = []
    original = sympy.factorint

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(sympy, "factorint", counted)
    return calls


@pytest.mark.parametrize(
    "n, expected",
    [(1, {}), (-1, {}), (2, {2: 1}), (-12, {2: 2, 3: 1}), (360, {2: 3, 3: 2, 5: 1}), (999983**2, {999983: 2})],
)
def test_trial_division(fallback_calls, n, expected):
    assert factor_int(n) == expected
    assert fallback_calls == []


def test_prime_cofactor_below_the_trial_square_needs_no_fallback(fallback_calls):
    # after 2 comes out, 1000003 < (TRIAL_LIMIT + 2)^2 and no prime below its root divides it
    assert factor_int(2 * P1) == {2: 1, P1: 1}
    assert fallback_calls == []


def test_sympy_fallback(fallback_calls):
    assert P1 > TRIAL_LIMIT and P2 > TRIAL_LIMIT
    assert factor_int(P1 * P2) == {P1: 1, P2: 1}
    assert factor_int(-12 * P1 * P2) == {2: 2, 3: 1, P1: 1, P2: 1}
    assert fallback_calls == [P1 * P2, P1 * P2]
    assert sorted(factor_int(6 * P1 * P2)) == [2, 3, P1, P2]


def test_digit_budget():
    assert len(str(10**120)) == DIGIT_BUDGET + 1
    for n in (10**120, -(10**120)):
        with pytest.raises(FactorizationTooLarge, match="more than 120 digits"):
            factor_int(n)


def test_digit_budget_boundary():
    # 2^398 has 120 digits, so it is within the budget and factors by trial division
    assert len(str(2**398)) == DIGIT_BUDGET
    assert factor_int(2**398) == {2: 398}


def test_digit_budget_refuses_input_past_the_int_to_str_cap(default_digit_cap):
    # 10^5000 has more digits than the cap, so the budget is decided without a string
    with pytest.raises(FactorizationTooLarge, match="more than 120 digits"):
        factor_int(10**5000)


def test_factor_zero():
    with pytest.raises(ValueError):
        factor_int(0)


@pytest.mark.parametrize(
    "n, p, v",
    [(1, 2, 0), (-1, 3, 0), (7, 2, 0), (48, 2, 4), (-48, 2, 4), (48, 3, 1), (3**40, 3, 40), (P1 * P1, P1, 2)],
)
def test_valuation(n, p, v):
    assert valuation(n, p) == v


def test_valuation_rejects_zero_and_bad_primes():
    with pytest.raises(ValueError, match="infinite"):
        valuation(0, 2)
    for p in (1, 0, -2):
        with pytest.raises(ValueError, match="at least 2"):
            valuation(12, p)


@pytest.mark.parametrize(
    "n, expected",
    [
        (-6, False),
        (0, False),
        (1, True),
        (2, True),
        (4, False),
        (12, False),
        (30, True),
        (75, False),
        (P1 * P2, True),
        (P1 * P1, False),
    ],
)
def test_is_square_free(n, expected):
    assert is_square_free(n) is expected
