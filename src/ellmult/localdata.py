"""Reduction data at finite primes.

Membership in the identity component is decided on the short Weierstrass
model by the nonsingular-reduction criterion.  At p in {2, 3} the short
model can misclassify, so every answer there carries a warning and the
aggregate profile reports the lcm both with and without those primes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Tuple

from .curves import Curve, RatPoint, Triple, multiple_triples
from .errors import CapExceeded, InternalInvariantError, UnreliableAtSmallPrime
from .factorization import prime_divisors, valuation

SMALL_PRIMES = (2, 3)


@dataclass(frozen=True)
class ComponentProfile:
    """Component orders at the bad primes and their least common multiples.

    M is the lcm over all bad primes; M_odd drops the primes 2 and 3, whose
    entries (listed in flagged) rest on the short-model criterion.
    """

    entries: Tuple[Tuple[int, int], ...]
    M: int
    M_odd: int
    flagged: Tuple[int, ...]

    def to_json(self) -> Dict[str, object]:
        return {
            "r": {str(p): r for p, r in self.entries},
            "M": self.M,
            "M_odd": self.M_odd,
            "flagged": list(self.flagged),
        }


def bad_primes(c: Curve) -> list:
    """Sorted primes of bad reduction, i.e. the prime divisors of the discriminant."""
    return prime_divisors(c.discriminant)


def _warn_if_small(p: int) -> None:
    if p in SMALL_PRIMES:
        warnings.warn(
            UnreliableAtSmallPrime(f"component membership at p={p} uses the short-model criterion"),
            stacklevel=3,
        )


def _nonsingular_mod(c: Curve, p: int, T: Triple) -> bool:
    """Whether the point with triple T reduces to a nonsingular point mod p.

    With x = X/D^2 and y = Y/D^3, a point with p | D reduces to the point at
    infinity; otherwise some partial derivative of y^2 - x^3 - A*x - B must
    survive: 2Y or 3X^2 + A*D^4 is nonzero mod p.
    """
    if T is None or c.discriminant % p != 0:
        return True
    X, Y, D = T
    return D % p == 0 or (2 * Y) % p != 0 or (3 * X * X + c.A * D**4) % p != 0


def component_order(c: Curve, p: int, P: RatPoint) -> int:
    """Least r >= 1 with r*P in the identity component at p; r = 1 means P itself is in it.

    The curve must already be quasi-minimal (it cannot be rescaled at p).  The
    search is capped at ord_p(discriminant) + 4 steps; exceeding the cap
    means the model or the caller's preconditions are broken, not that the
    order is large.
    """
    _warn_if_small(p)
    cap = valuation(c.discriminant, p) + 4
    for r, T in enumerate(islice(multiple_triples(c, P), cap), 1):
        if _nonsingular_mod(c, p, T):
            return r
    raise CapExceeded(f"no multiple of the point entered the identity component at p={p} within {cap} steps")


def global_M(c: Curve, P: RatPoint) -> ComponentProfile:
    """Component orders at every bad prime and their lcm.

    Good primes contribute 1 and are omitted from the entries.  When j is an
    integer the lcm is checked against the unconditional bound of 12.
    """
    entries = []
    flagged = []
    for p in bad_primes(c):
        r = component_order(c, p, P)
        entries.append((p, r))
        if p in SMALL_PRIMES:
            flagged.append(p)
    M = math.lcm(*(r for _, r in entries))
    M_odd = math.lcm(*(r for p, r in entries if p not in SMALL_PRIMES))
    if c.j.denominator == 1 and M > 12:
        raise InternalInvariantError(f"integral j-invariant forces M <= 12, got {M}")
    return ComponentProfile(tuple(entries), M, M_odd, tuple(flagged))
