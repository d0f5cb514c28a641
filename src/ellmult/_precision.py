"""Per-precision mpmath contexts.

Every numeric routine takes precision_bits explicitly and pulls a dedicated
context here instead of mutating the global mpmath state, so concurrent
callers at different precisions cannot interfere.
"""

from functools import lru_cache

from mpmath.ctx_mp import MPContext


@lru_cache(maxsize=None)
def context(precision_bits: int) -> MPContext:
    """Return a context with the given working precision in bits."""
    if precision_bits < 8:
        raise ValueError("precision_bits must be at least 8")
    ctx = MPContext()
    ctx.prec = precision_bits
    return ctx
