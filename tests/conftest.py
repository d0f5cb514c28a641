"""Shared fixtures: reference points with their multiples by an independent group law, random integral points, patching every alias of a function, and the default int-to-str cap."""

import math
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume
from hypothesis import strategies as st

REFERENCE_N_MAX = 40

# (A, B, x, y) with B != 0, beside the golden points, whose curves all have B = 0
OTHER_POINTS = ((0, 17, -2, 3), (0, 17, 8, -23), (0, -2, 3, 5), (-16, 16, 0, 4))


@st.composite
def integral_points(draw):
    """(A, B, x, y): an integral point (x, y) on a smooth y^2 = x^3 + A x + B with |A|, |B| <= 500 and |x| <= 6."""
    A, x = draw(st.integers(-500, 500)), draw(st.integers(-6, 6))
    v = x**3 + A * x
    assume(v + 500 >= 0)
    low = math.isqrt(max(v - 500, 0))
    y = draw(st.integers(low + (low * low < v - 500), math.isqrt(v + 500)))
    B = y * y - v
    assume(4 * A**3 + 27 * B**2 != 0)
    return A, B, x, y


def _chord_tangent(A, P, Q):
    """P + Q on y^2 = x^3 + A x + B for Fraction pairs, None at infinity, by the slope formulas."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 == -y2:
            return None
        slope = (3 * x1 * x1 + A) / (2 * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return x3, slope * (x1 - x3) - y1


def _multiples(A, x, y):
    P = (Fraction(x), Fraction(y))
    multiples = [None, P]
    for _ in range(REFERENCE_N_MAX - 1):
        multiples.append(_chord_tangent(A, multiples[-1], P))
    return multiples


@pytest.fixture(scope="session")
def chord_tangent():
    return _chord_tangent


# (N, x, y) of each golden row, read at collection so that tests can be parametrized over them
GOLDEN_POINTS = tuple(
    tuple(int(v) for v in line.split(",")[:3])
    for line in resources.files("ellmult").joinpath("data/table_n75.csv").read_text().strip().split("\n")[1:]
)


@pytest.fixture(scope="session")
def golden_multiples():
    """(N, x, y, [None, P, 2P, ..., 40P]) for each golden row, by n - 1 chord additions on Fractions."""
    return [(N, x, y, _multiples(-N * N, x, y)) for N, x, y in GOLDEN_POINTS]


@pytest.fixture(scope="session")
def other_multiples():
    """(A, B, x, y, [None, P, ..., 40P]) for OTHER_POINTS, as golden_multiples builds them."""
    return [(A, B, x, y, _multiples(A, x, y)) for A, B, x, y in OTHER_POINTS]


def patch_aliases(monkeypatch, func, replacement):
    """Bind replacement, for the test's length, at every attribute of a loaded ellmult module that names func."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ellmult" or name.startswith("ellmult.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def default_digit_cap():
    """Run a test under the interpreter's default int-to-str cap, and restore the cap after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str cap")
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(cap)
