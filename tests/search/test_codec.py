"""Tests for the varint/delta posting-block codec.

Two families: property-based round trips (every valid block decodes
back to itself, including the empty/single-posting edges), and
corruption handling (truncated or damaged bytes must surface as
``SearchError``, never as a raw ``IndexError``/``struct.error`` from
inside a query).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SearchError
from repro.search.codec import (
    MAX_VARINT_BYTES,
    decode_block,
    encode_block,
    read_bytes,
    read_uvarint,
    read_uvarints,
    write_bytes,
    write_uvarint,
    write_uvarints,
)
from tests.search.reference_writer import reference_encode_block


# -- varint primitives -------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_uvarint_round_trip(value):
    out = bytearray()
    write_uvarint(out, value)
    decoded, offset = read_uvarint(out, 0)
    assert decoded == value
    assert offset == len(out)
    assert len(out) <= MAX_VARINT_BYTES


def test_uvarint_rejects_negative():
    with pytest.raises(SearchError):
        write_uvarint(bytearray(), -1)


def test_uvarint_truncated():
    out = bytearray()
    write_uvarint(out, 1 << 40)
    with pytest.raises(SearchError, match="truncated"):
        read_uvarint(out[:-1], 0)


def test_uvarint_over_long_is_corruption():
    with pytest.raises(SearchError, match="over-long"):
        read_uvarint(b"\xff" * (MAX_VARINT_BYTES + 1), 0)


@given(st.binary(max_size=64))
def test_bytes_round_trip(payload):
    out = bytearray()
    write_bytes(out, payload)
    decoded, offset = read_bytes(out, 0)
    assert decoded == payload
    assert offset == len(out)


def test_bytes_truncated():
    out = bytearray()
    write_bytes(out, b"hello")
    with pytest.raises(SearchError, match="truncated"):
        read_bytes(out[:-2], 0)


# -- posting-block round trip ------------------------------------------------------

positions_lists = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8, unique=True
).map(lambda values: tuple(sorted(values)))


@st.composite
def posting_blocks(draw):
    """(ordinals, positions) pairs every valid block is made of."""
    ordinals = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=100_000),
                min_size=0,
                max_size=40,
                unique=True,
            )
        )
    )
    positions = [draw(positions_lists) for _ in ordinals]
    return ordinals, positions


@given(posting_blocks())
@settings(max_examples=100)
def test_block_round_trip(block):
    ordinals, positions = block
    assert decode_block(encode_block(ordinals, positions)) == (ordinals, positions)


def test_empty_block_round_trip():
    assert decode_block(encode_block([], [])) == ([], [])


def test_single_posting_round_trip():
    assert decode_block(encode_block([7], [(0, 3, 9)])) == ([7], [(0, 3, 9)])


def test_duplicate_ordinals_rejected():
    with pytest.raises(SearchError, match="strictly increasing"):
        encode_block([3, 3], [(0,), (1,)])


def test_duplicate_positions_rejected():
    with pytest.raises(SearchError, match="strictly increasing"):
        encode_block([1], [(4, 4)])


def test_empty_positions_rejected():
    with pytest.raises(SearchError, match="at least one position"):
        encode_block([1], [()])


def test_arity_mismatch_rejected():
    with pytest.raises(SearchError, match="arity"):
        encode_block([1, 2], [(0,)])


# -- corruption handling -----------------------------------------------------------


def test_truncated_block():
    payload = encode_block([1, 200, 4000], [(0, 5), (2,), (7, 8, 9)])
    for cut in range(len(payload)):
        with pytest.raises(SearchError):
            decode_block(payload[:cut])


def test_trailing_bytes_rejected():
    payload = encode_block([1], [(0,)])
    with pytest.raises(SearchError, match="trailing"):
        decode_block(payload + b"\x00")


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=200)
def test_arbitrary_bytes_never_raise_raw_errors(data):
    """Fuzz: any byte string either decodes or raises SearchError."""
    try:
        ordinals, positions = decode_block(data)
    except SearchError:
        return
    # A successful decode yields a well-formed block that round-trips
    # through the canonical encoding.
    assert len(ordinals) == len(positions)
    assert ordinals == sorted(set(ordinals))
    assert all(occurrence for occurrence in positions)
    assert decode_block(encode_block(ordinals, positions)) == (ordinals, positions)


# -- the bulk codec against the layout's definition --------------------------------

#: Around every varint length boundary the format can meet (1, 2, 5 and
#: 6 bytes), plus the small values that fill real blocks.
wide_ints = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.sampled_from([2**7 - 1, 2**7, 2**14 - 1, 2**14, 2**35 - 1, 2**35, 2**35 + 1]),
    st.integers(min_value=0, max_value=2**40),
)


def increasing(values):
    return sorted(set(values))


wide_blocks = st.lists(wide_ints, max_size=12).map(increasing).flatmap(
    lambda ordinals: st.tuples(
        st.just(ordinals),
        st.lists(
            st.lists(wide_ints, min_size=1, max_size=4).map(increasing).map(tuple),
            min_size=len(ordinals),
            max_size=len(ordinals),
        ),
    )
)


@given(wide_blocks)
@settings(max_examples=200)
def test_encode_block_is_the_composition_of_write_uvarint_calls(block):
    """One pass and one bulk write produce, byte for byte, what the
    layout says: a ``write_uvarint`` call per integer."""
    ordinals, positions = block
    payload = encode_block(ordinals, positions)
    assert payload == reference_encode_block(ordinals, positions)
    assert decode_block(payload) == (ordinals, positions)


def test_encode_block_at_the_varint_length_boundaries():
    ordinals = [2**7 - 1, 2**7, 2**14, 2**35, 2**35 + 2**14]
    positions = [(0,), (2**7,), (1, 2**14), (2**35,), (0, 2**35, 2**36)]
    payload = encode_block(ordinals, positions)
    assert payload == reference_encode_block(ordinals, positions)
    assert decode_block(payload) == (ordinals, positions)


@given(st.lists(wide_ints, max_size=30), st.binary(max_size=4))
def test_bulk_varints_equal_one_call_per_value(values, lead):
    single = bytearray(lead)
    for value in values:
        write_uvarint(single, value)
    bulk = bytearray(lead)
    write_uvarints(bulk, values)
    assert bulk == single
    assert read_uvarints(bulk, len(lead), len(values)) == (values, len(bulk))
    assert read_uvarints(bytes(bulk[len(lead) :])) == (values, len(bulk) - len(lead))
    offset, decoded = len(lead), []
    for _ in values:
        value, offset = read_uvarint(bulk, offset)
        decoded.append(value)
    assert decoded == values and offset == len(bulk)


def test_bulk_varints_reject_what_single_calls_reject():
    with pytest.raises(SearchError, match="negative"):
        write_uvarints(bytearray(), [3, -1])
    data = bytearray()
    write_uvarints(data, [1, 1 << 40])
    with pytest.raises(SearchError, match="truncated"):
        read_uvarints(data[:-1], 0, 2)  # ends inside the second varint
    with pytest.raises(SearchError, match="truncated"):
        read_uvarints(data, 0, 3)  # ends before the third
    with pytest.raises(SearchError, match="truncated"):
        read_uvarints(data[:-1])  # "all of them" still may not end inside one
    with pytest.raises(SearchError, match="over-long"):
        read_uvarints(b"\x01" + b"\xff" * MAX_VARINT_BYTES + b"\x01")
    # Ten bytes are the longest legal varint.
    assert read_uvarints(b"\xff" * (MAX_VARINT_BYTES - 1) + b"\x01") == ([2**64 - 1], 10)
