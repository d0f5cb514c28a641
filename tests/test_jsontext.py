"""The document writer against json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)."""

import gc
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmult import _jsontext
from ellmult.cli import _integers_of_any_length

FIXTURE = Path(__file__).with_name("cli_documents.json")


def reference(doc):
    # json.dumps writes ints past the interpreter's int-to-str cap only with the cap lifted
    with _integers_of_any_length():
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


ENTRIES = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_writer_matches_json_on_the_cli_documents(entry):
    # the fixture entry itself, and the document it holds when that is JSON, read back and written again
    assert _jsontext.dumps(entry) == reference(entry)
    if entry["argv"][-1] != "json" and "--format" in entry["argv"]:
        return
    doc = json.loads(entry["stdout"])
    assert _jsontext.dumps(doc) + "\n" == reference(doc) + "\n" == entry["stdout"]


@pytest.mark.parametrize(
    "message",
    ["unknown bound 'x'; known: a, b", "", "non-ASCII: é ☃ \U0001f600 \ud800 \"quoted\" \\ \n\t\x00"],
)
def test_writer_matches_json_on_error_documents(message):
    doc = {"schema": "ellmult/1", "error": {"type": "ValueError", "message": message, "exit_code": 2}}
    assert _jsontext.dumps(doc) == reference(doc)


def _big_ints():
    """Ints of up to 50,000 digits of either sign: random digits, and powers of ten with a small head and tail."""
    random_digits = st.binary(min_size=1, max_size=20_800).map(lambda b: int.from_bytes(b, "big"))
    sparse = st.builds(
        lambda head, k, tail: head * 10**k + tail,
        st.integers(1, 10**20),
        st.integers(0, 49_979),
        st.integers(0, 10**30),
    )
    sign = st.sampled_from([1, -1])
    return st.builds(lambda n, s: s * n, st.one_of(random_digits, sparse), sign)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _big_ints(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308]),
    st.text(),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner), st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
def test_writer_matches_json_on_random_documents(doc):
    assert _jsontext.dumps(doc) == reference(doc)


def test_a_key_that_is_not_a_string_raises_type_error():
    # json would write the key as a string; no document has one, and the writer refuses it
    with pytest.raises(TypeError):
        _jsontext.dumps({"doc": {1: 1}})


# every size at which int_text splits, and the size below which it leaves the int to int.__repr__
SPLIT_DIGITS = [1024 * 2**k for k in range(6)] + [2047]


@pytest.mark.parametrize("digits", SPLIT_DIGITS)
def test_int_text_is_str_around_each_split(digits):
    with _integers_of_any_length():
        for n in (10**digits - 1, 10**digits, 10**digits + 1):
            for m in (n, -n):
                assert _jsontext.int_text(m) == str(m), (digits, n - 10**digits, m < 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise_json_error(value):
    doc = {"rows": [1, {"value": value}]}
    with pytest.raises(ValueError) as want:
        reference(doc)
    with pytest.raises(ValueError) as got:
        _jsontext.dumps(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes"])
def test_unwritable_values_raise_json_type_error(value):
    with pytest.raises(TypeError) as want:
        reference({"value": value})
    with pytest.raises(TypeError) as got:
        _jsontext.dumps({"value": value})
    assert str(got.value) == str(want.value)


def test_writer_leaves_no_garbage_for_the_cycle_collector():
    # a writer or a division that recursed through a nested function would leave a cycle holding each
    # document's chunks; 3^80000 has 38,172 digits, so its splits take the recursive division
    doc = {"rows": [{"n": n, "h": -(7 ** (n * 1000)), "k": 3.5} for n in range(8)], "note": "x", "big": 3**80000}
    gc.collect()
    gc.disable()
    try:
        _jsontext.dumps(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
