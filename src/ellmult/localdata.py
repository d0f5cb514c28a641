"""Reduction data at finite primes.

Membership in the identity component is decided on the short Weierstrass
model by the nonsingular-reduction criterion: rP is in it at p exactly when
p does not divide curves.singular_gcd of its pair.  global_M reads the
component order at every bad prime off one walk of P, 2P, 3P, ..., taking
that gcd once per multiple and testing each prime not yet resolved on it.
At p in {2, 3} the short model can misclassify, so every answer there
carries a warning and the aggregate profile reports the lcm both with and
without those primes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Tuple

from .curves import Multiples, singular_gcd
from .errors import CapExceeded, InternalInvariantError, UnreliableAtSmallPrime
from .factorization import factor_int

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


def global_M(walk: Multiples) -> ComponentProfile:
    """Component orders r_p at every bad prime and their lcm, read off the walk of P, 2P, 3P, ...

    r_p is the least r >= 1 with r*P in the identity component at p, so
    r_p = 1 means P itself is in it.  Good primes contribute 1 and are
    omitted from the entries.  The walk's curve must be quasi-minimal (it
    cannot be rescaled at p): analyze and heights build the walk on
    quasi_minimalize's model, and a library caller must do the same.  Each
    unresolved prime is tested on each multiple, capped at
    ord_p(discriminant) + 4 steps; exceeding a cap means the model or the
    caller's preconditions are broken, not that the order is large.  When j
    is an integer the lcm is checked against the unconditional bound of 12.
    """
    c = walk.curve
    caps = {p: e + 4 for p, e in sorted(factor_int(c.discriminant).items())}
    flagged = tuple(p for p in caps if p in SMALL_PRIMES)
    for p in flagged:
        warnings.warn(
            UnreliableAtSmallPrime(f"component membership at p={p} uses the short-model criterion"),
            stacklevel=2,
        )
    orders: Dict[int, int] = {}
    for r in range(1, max(caps.values()) + 1):
        G = singular_gcd(c, walk[r])
        for p in caps.keys() - orders.keys():
            if r <= caps[p] and G % p:
                orders[p] = r
        if len(orders) == len(caps):
            break
    else:
        p = min(caps.keys() - orders.keys())
        raise CapExceeded(f"no multiple of the point entered the identity component at p={p} within {caps[p]} steps")
    entries = tuple((p, orders[p]) for p in caps)
    M = math.lcm(*orders.values())
    M_odd = math.lcm(*(r for p, r in entries if p not in SMALL_PRIMES))
    if c.j.denominator == 1 and M > 12:
        raise InternalInvariantError(f"integral j-invariant forces M <= 12, got {M}")
    return ComponentProfile(entries, M, M_odd, flagged)
