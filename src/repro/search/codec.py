"""Varint / delta codecs for on-disk posting blocks (§5.2 at scale).

A posting list is persisted as *blocks* of up to
:data:`~repro.search.segments.BLOCK_SIZE` postings, each block encoded
with the two classic inverted-file tricks:

* **LEB128 unsigned varints** — small integers (deltas, counts, term
  frequencies) take one byte instead of a JSON-rendered decimal string;
* **delta encoding** — both the state ordinals of consecutive postings
  and the occurrence positions inside one posting are strictly
  increasing, so only gaps are stored.

Every decode path validates its input and raises
:class:`~repro.errors.SearchError` on truncation or corruption — a
damaged segment file must surface as a search-layer failure, never as a
raw ``IndexError``/``struct`` traceback from the middle of a query.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

from repro.errors import SearchError

#: A varint longer than this encodes a value above 2^63 — nothing in a
#: segment file is that large, so longer runs mean corruption.
MAX_VARINT_BYTES = 10


def write_uvarints(out: bytearray, values) -> None:
    """Append every integer of ``values`` to ``out`` as an LEB128
    unsigned varint — the one encode loop under blocks and tables."""
    for value in values:
        if value > 0x7F:
            while value > 0x7F:
                out.append(value & 0x7F | 0x80)
                value >>= 7
        elif value < 0:
            raise SearchError(f"cannot varint-encode negative value {value}")
        out.append(value)


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` to ``out`` as an LEB128 unsigned varint."""
    write_uvarints(out, (value,))


def read_uvarints(data, offset: int = 0, count: Optional[int] = None) -> tuple[list[int], int]:
    """Decode ``count`` consecutive varints from ``data`` at ``offset``
    (every varint up to the end of ``data`` when ``count`` is None) —
    the one decode loop under blocks and tables.

    Returns ``(values, next_offset)``; raises :class:`SearchError` on a
    buffer that ends too early and on an over-long (corrupt) encoding.
    """
    values: list[int] = []
    size = len(data)
    remaining = size if count is None else count  # at most a varint per byte
    while remaining:
        if offset >= size:
            if count is None:
                break
            raise SearchError("truncated varint in segment data")
        value = data[offset]
        offset += 1
        if value > 0x7F:
            value &= 0x7F
            for shift in range(7, 7 * MAX_VARINT_BYTES, 7):
                if offset >= size:
                    raise SearchError("truncated varint in segment data")
                byte = data[offset]
                offset += 1
                value |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
            else:
                raise SearchError("over-long varint in segment data (corrupt block)")
        values.append(value)
        remaining -= 1
    return values, offset


def read_uvarint(data, offset: int) -> tuple[int, int]:
    """Decode one varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``; raises :class:`SearchError` on a
    truncated buffer or an over-long (corrupt) encoding.
    """
    (value,), offset = read_uvarints(data, offset, 1)
    return value, offset


def write_bytes(out: bytearray, payload: bytes) -> None:
    """Append a length-prefixed byte string."""
    write_uvarints(out, (len(payload),))
    out.extend(payload)


def read_bytes(data, offset: int) -> tuple[bytes, int]:
    """Decode one length-prefixed byte string."""
    (length,), offset = read_uvarints(data, offset, 1)
    end = offset + length
    if end > len(data):
        raise SearchError("truncated byte string in segment data")
    return bytes(data[offset:end]), end


def encode_block(ordinals: Sequence[int], positions: Sequence[tuple[int, ...]]) -> bytes:
    """Encode one posting block.

    ``ordinals`` are the segment state ordinals the postings refer to
    (strictly increasing); ``positions[i]`` is posting *i*'s strictly
    increasing occurrence positions.  Layout::

        uvarint count
        count x ( uvarint ordinal-delta   # first absolute
                  uvarint num_positions   # always >= 1
                  uvarint position-delta* # first absolute
                )

    One pass collects the block's integers, one :func:`write_uvarints`
    call emits them.
    """
    if len(ordinals) != len(positions):
        raise SearchError("ordinal/position arity mismatch in posting block")
    values = [len(ordinals)]
    append = values.append
    previous = None
    for ordinal, occurrence in zip(ordinals, positions):
        if previous is None:
            append(ordinal)
        elif ordinal <= previous:
            raise SearchError("posting ordinals must be strictly increasing")
        else:
            append(ordinal - previous)
        previous = ordinal
        if not occurrence:
            raise SearchError("a posting must have at least one position")
        append(len(occurrence))
        last = None
        for position in occurrence:
            if last is None:
                append(position)
            elif position <= last:
                raise SearchError("positions must be strictly increasing")
            else:
                append(position - last)
            last = position
    out = bytearray()
    write_uvarints(out, values)
    return bytes(out)


def decode_block(data) -> tuple[list[int], list[tuple[int, ...]]]:
    """Decode one posting block back into ``(ordinals, positions)``.

    Inverse of :func:`encode_block`: one :func:`read_uvarints` scan of
    the whole payload, then a walk over the structure.  Trailing bytes,
    empty postings, zero deltas and truncated varints all raise
    :class:`SearchError`.
    """
    values, _ = read_uvarints(data)
    ordinals: list[int] = []
    positions: list[tuple[int, ...]] = []
    try:
        ordinal = 0
        at = 1
        for index in range(values[0]):
            delta = values[at]
            if index and delta == 0:
                raise SearchError("zero ordinal delta (corrupt block)")
            ordinal += delta
            ordinals.append(ordinal)
            num_positions = values[at + 1]
            if num_positions == 0:
                raise SearchError("posting with zero positions (corrupt block)")
            at += 2 + num_positions
            last = values[at - 1]  # IndexError: the payload ends inside this posting
            if num_positions == 1:
                positions.append((last,))
                continue
            gaps = values[at - num_positions : at]
            if 0 in gaps[1:]:
                raise SearchError("zero position delta (corrupt block)")
            positions.append(tuple(accumulate(gaps)))
    except IndexError:
        raise SearchError("truncated posting block") from None
    if at != len(values):
        raise SearchError(f"{len(values) - at} trailing varint(s) after posting block")
    return ordinals, positions
