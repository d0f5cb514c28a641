"""divmod(a, b) for ints, by Burnikel-Ziegler recursive division above a bit threshold.

CPython 3.11 divides ints by schoolbook long division, quadratic in the
length.  The recursive division of Burnikel and Ziegler (MPI-I-98-1-022,
1998; Brent and Zimmermann, Modern Computer Arithmetic, 2010, section
1.4.3) splits a 2n-by-n-bit division into two 3/2-by-1 divisions of half
size, each one recursive 2n-by-n division by the high half of the divisor
and one product by its low half, so Python's Karatsuba products do the
work.  A dividend with many more blocks of n bits than two is first split
at a multiple of n near its middle, and the high part's remainder carried
into the low part, so the quotient's blocks are found high to low.

divmod returns exactly what the builtin returns, floor semantics for every
sign and ZeroDivisionError for b = 0.  It recurses only where both the
divisor and the quotient are longer than _THRESHOLD bits, and the
recursion hands each division by a divisor of at most _THRESHOLD bits back
to the builtin.  The threshold of 4000 bits was timed on CPython 3.11.7
only; from 3.12 on, the builtin itself divides large ints by a recursive
method, and whether this module still gains there is unmeasured.

Every function here is at module level: a nested function that calls
itself is a reference cycle, left for the cyclic garbage collector.
"""

from __future__ import annotations

import builtins
from typing import Tuple

_THRESHOLD = 4000  # bits, of the divisor and of the quotient


def divmod(a: int, b: int) -> Tuple[int, int]:
    """builtins.divmod(a, b) for ints a and b."""
    n = b.bit_length()
    if n <= _THRESHOLD or a.bit_length() - n <= _THRESHOLD:
        return builtins.divmod(a, b)
    negative = b < 0
    if negative:
        a, b = -a, -b
    if a < 0:  # a = ~(|a| - 1), and floor division of |a| - 1 gives the floor of a
        q, r = _divmod_nonnegative(~a, b)
        q, r = ~q, b + ~r
    else:
        q, r = _divmod_nonnegative(a, b)
    return (q, -r) if negative else (q, r)


def _divmod_nonnegative(a: int, b: int) -> Tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0."""
    n = b.bit_length()
    if a >> n < b:  # a < b 2^n: the quotient has at most n bits
        return _div2n1n(a, b, n)
    # a = high 2^m + low at a multiple m of n near the middle; the quotient is q_high 2^m + q_low
    m = n * (a.bit_length() // n // 2)
    q_high, r = _divmod_nonnegative(a >> m, b)
    q_low, r = _divmod_nonnegative(r << m | a & ((1 << m) - 1), b)
    return q_high << m | q_low, r


def _div2n1n(a: int, b: int, n: int) -> Tuple[int, int]:
    """divmod(a, b) for 0 <= a < b 2^n and 2^(n-1) <= b < 2^n."""
    if n <= _THRESHOLD:
        return builtins.divmod(a, b)
    odd = n & 1
    if odd:  # scale both by 2 so that b splits into two halves of equal length
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> odd


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> Tuple[int, int]:
    """divmod(a12 2^n + a3, b) for b = b1 2^n + b2, 2^(n-1) <= b1 < 2^n, 0 <= a3 < 2^n and a12 < b.

    The trial quotient a12 / b1 exceeds the true one by at most 2, so the
    correction loop runs at most twice.
    """
    if a12 >> n == b1:  # the trial quotient is at least 2^n; 2^n - 1 is the largest possible
        q = (1 << n) - 1
        r = a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r
