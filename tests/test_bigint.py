"""The recursive division against builtins.divmod."""

import builtins

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmult import _bigint

T = _bigint._THRESHOLD
# bit lengths of divisor and quotient: short, just below, at and just above the threshold, and long
LENGTHS = (1, 64, T - 1, T, T + 1, T + 2, 2 * T + 3, 9 * T)


@st.composite
def operands(draw):
    """(a, b) = (s (q b + r), t b) with b and q of the drawn bit lengths, r zero, b - 1 or any, and signs s, t."""
    bits = draw(st.sampled_from(LENGTHS))
    b = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    q_bits = draw(st.sampled_from((0,) + LENGTHS))
    q = draw(st.integers(2 ** (q_bits - 1), 2**q_bits - 1)) if q_bits else 0
    r = draw(st.sampled_from((0, b - 1)) | st.integers(0, b - 1))
    s, t = draw(st.sampled_from(((1, 1), (1, -1), (-1, 1), (-1, -1))))
    return s * (q * b + r), t * b


@settings(max_examples=300, deadline=None)
@given(operands())
def test_divmod_matches_the_builtin(ab):
    assert _bigint.divmod(*ab) == builtins.divmod(*ab)


@pytest.mark.parametrize("case", ["trial quotient two too large", "trial quotient capped at 2^h - 1"])
def test_the_first_half_step_corrects_its_trial_quotient(case):
    # b has 2h bits, the smallest high half and the largest low half; the dividend's top 3h bits
    # a12 2^h make the first half step's trial quotient a12 / b1 = 2^h - 2, two above the true one,
    # or a12 = b - 1 with a12 / b1 >= 2^h, where the step takes 2^h - 1 instead
    h = T + 48  # so that the trial division a12 / b1 recurses too
    b = 2 ** (2 * h - 1) + 2**h - 1
    a12 = (2**h - 2) * 2 ** (h - 1) if case == "trial quotient two too large" else b - 1
    a = a12 << 2 * h
    assert _bigint.divmod(a, b) == builtins.divmod(a, b)


@pytest.mark.parametrize("bits", [1, T + 1, 9 * T])
def test_zero_divided_by_anything_and_anything_by_zero(bits):
    b = 2**bits - 1
    assert _bigint.divmod(0, b) == (0, 0) and _bigint.divmod(0, -b) == (0, 0)
    for a in (0, b, -(b**3)):
        with pytest.raises(ZeroDivisionError):
            _bigint.divmod(a, 0)


@pytest.mark.parametrize("b_bits, q_bits, recurses", [(T + 1, T + 2, True), (T, 9 * T, False), (9 * T, T, False)])
def test_recursion_runs_only_where_divisor_and_quotient_pass_the_threshold(monkeypatch, b_bits, q_bits, recurses):
    # q b + r has q_bits + b_bits - 1 or q_bits + b_bits bits, and the gate reads the quotient as the difference
    b, q = 2**b_bits - 3, 2**q_bits - 5
    calls = []
    div2n1n = _bigint._div2n1n
    monkeypatch.setattr(_bigint, "_div2n1n", lambda a, b, n: calls.append(n) or div2n1n(a, b, n))
    assert _bigint.divmod(q * b + 7, b) == (q, 7)
    assert bool(calls) == recurses
