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
from typing import Dict, Tuple

from .curves import Curve, RatPoint, add_triples, from_triple, to_triple
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


def _reduce_mod(q, p: int) -> int:
    # q is a Fraction with denominator prime to p
    return q.numerator * pow(q.denominator, -1, p) % p


def in_identity_component(c: Curve, p: int, P: RatPoint) -> bool:
    """Whether P lands in the subgroup of points with nonsingular reduction mod p.

    The curve must already be quasi-minimal (it cannot be rescaled at p).
    Points that are not p-integral reduce to the point at infinity, which is
    always nonsingular.
    """
    if p in SMALL_PRIMES:
        warnings.warn(
            UnreliableAtSmallPrime(
                f"component membership at p={p} uses the short-model criterion"
            ),
            stacklevel=2,
        )
    if c.discriminant % p != 0:
        return True
    if P.is_infinity:
        return True
    if P.x.denominator % p == 0 or P.y.denominator % p == 0:
        return True
    xb = _reduce_mod(P.x, p)
    yb = _reduce_mod(P.y, p)
    # Nonsingular iff some partial derivative of y^2 - x^3 - A*x - B survives.
    return (2 * yb) % p != 0 or (3 * xb * xb + c.A) % p != 0


def component_order(c: Curve, p: int, P: RatPoint) -> int:
    """Least r >= 1 with r*P in the identity component at p.

    The search is capped at ord_p(discriminant) + 4 steps; exceeding the cap
    means the model or the caller's preconditions are broken, not that the
    order is large.
    """
    cap = valuation(c.discriminant, p) + 4
    base = to_triple(c, P)
    Q = base
    for r in range(1, cap + 1):
        if in_identity_component(c, p, from_triple(Q)):
            return r
        Q = add_triples(c, Q, base)
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
