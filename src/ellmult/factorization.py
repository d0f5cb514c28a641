"""Integer factorization helpers.

Trial division up to a fixed budget covers every curve this package targets;
a general-purpose fallback (sympy) handles larger cofactors so callers never
silently get a partial factorization.
"""

from __future__ import annotations

from typing import Dict

from .errors import FactorizationTooLarge

TRIAL_LIMIT = 10**6
# Inputs above this many decimal digits are refused outright: the fallback is
# general-purpose, not magic.
DIGIT_BUDGET = 120


def factor_int(n: int) -> Dict[int, int]:
    """Return the prime factorization {p: exponent} of |n|, n != 0."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    if n >= 10**DIGIT_BUDGET:
        raise FactorizationTooLarge(f"|n| has more than {DIGIT_BUDGET} digits")
    out: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 6k +/- 1
    p = 5
    while p <= TRIAL_LIMIT and p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        if n < (TRIAL_LIMIT + 2) ** 2:
            out[n] = out.get(n, 0) + 1
        else:
            import sympy

            for q, e in sympy.factorint(n).items():
                out[int(q)] = out.get(int(q), 0) + int(e)
    return out


def valuation(n: int, p: int) -> int:
    """Exponent of p in n, n != 0, p >= 2."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2:
        raise ValueError("p must be at least 2")
    v = 0
    n = abs(n)
    while n % p == 0:
        v += 1
        n //= p
    return v


def is_square_free(n: int) -> bool:
    """True iff n >= 1 and no square of a prime divides n."""
    if n < 1:
        return False
    if n == 1:
        return True
    return all(e == 1 for e in factor_int(n).values())
