"""JSON text of a document, byte for byte as json.dumps(doc, indent=2, sort_keys=True, allow_nan=False).

json writes an int with int.__repr__, whose decimal conversion is quadratic
in the digit count.  This writer converts an int of 2048 digits or more by
divide and conquer: division by 10^(1024 * 2^k), with the powers kept in
_POWERS, the high part written the same way and the low part zero-padded to
1024 * 2^k digits, down to chunks of 1024 digits that int.__repr__ writes.
Each split goes through _bigint.divmod, whose recursive division makes the
conversion subquadratic.  Everything else is written as json writes it:
strings escaped to ASCII, floats by float.__repr__, True, False and None as
true, false and null, tuples as lists, dict items sorted by key.  A
non-finite float raises json's own ValueError, and an object json cannot
write raises its TypeError, before any text is returned.  Unlike json, the
writer takes only str keys, as every document has (the string encoder raises
TypeError on any other), and it neither detects a document that contains
itself nor applies the interpreter's int-to-str digit cap.

The split, its 2048-digit threshold and the division were timed on CPython
3.11 only.  From 3.12 on, int.__repr__ itself converts large ints by divide
and conquer; whether the split still gains there is unmeasured.

The writer recurses through module-level functions: a nested function that
calls itself is a reference cycle, which would keep each document's chunk
list alive until the cyclic garbage collector runs.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _string
from typing import List

from . import _bigint

_LEAF_DIGITS = 1024
_POWERS = [10**_LEAF_DIGITS]  # _POWERS[k] = 10^(1024 * 2^k), extended on demand
_REPR_BELOW = 10 ** (2 * _LEAF_DIGITS - 1)  # ints of fewer than 2048 digits go to int.__repr__
_INDENT = "  "


def dumps(doc) -> str:
    """The text json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) returns."""
    out: List[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def int_text(n: int) -> str:
    """str(n) for an int, by divide and conquer from 2048 digits on."""
    if -_REPR_BELOW < n < _REPR_BELOW:
        return int.__repr__(n)
    out: List[str] = ["-"] if n < 0 else []
    _digits(abs(n), out)
    return "".join(out)


def _power(k: int) -> int:
    while len(_POWERS) <= k:
        _POWERS.append(_POWERS[-1] * _POWERS[-1])
    return _POWERS[k]


def _digits(n: int, out: List[str]) -> None:
    """Append the digits of n >= 0, without leading zeros."""
    if n < _REPR_BELOW:
        out.append(int.__repr__(n))
        return
    k = 0
    while n >= _power(k + 1):  # _POWERS[k + 1] = _POWERS[k]^2
        k += 1
    high, low = _bigint.divmod(n, _POWERS[k])
    _digits(high, out)
    _padded(low, k, out)


def _padded(n: int, k: int, out: List[str]) -> None:
    """Append the digits of 0 <= n < 10^(1024 * 2^k), zero-padded to 1024 * 2^k of them."""
    if not k:
        out.append(int.__repr__(n).zfill(_LEAF_DIGITS))
        return
    high, low = _bigint.divmod(n, _POWERS[k - 1])
    _padded(high, k - 1, out)
    _padded(low, k - 1, out)


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        json.dumps(x, indent=2, allow_nan=False)  # raises json's ValueError with its message
    return float.__repr__(x)


def _write(value, newline: str, out: List[str]) -> None:
    """Append the text of value, whose own lines are indented after newline."""
    if isinstance(value, str):
        out.append(_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int_text(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + _INDENT
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + _INDENT
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out.append(separator)
            out.append(_string(key))
            out.append(": ")
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
