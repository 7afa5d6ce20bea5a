"""The ``Posting``-level segment writer as it stood before PR 19 — oracle code.

Until the write path went columnar this *was* ``write_segment``: every
posting an object, canonical order from a sort of those objects, the state
ordinal from a ``(uri, state_id)`` dict probe, one ``write_uvarint``
call per integer.  It is slow and obviously right, and the format
(``AJXSEG01``) has not changed, so whatever the ordinal-native writer
under ``src/`` produces must equal, byte for byte, what this one writes
for the same logical content.
"""

import json
from pathlib import Path

from repro.errors import SearchError
from repro.search import Posting
from repro.search.codec import write_bytes, write_uvarint
from repro.search.segments import _FOOTER, FOOTER_MAGIC, MAGIC, SegmentReader, state_sort_key


def reference_encode_block(ordinals, positions) -> bytes:
    """The block layout, spelled as the ``write_uvarint`` calls that define it."""
    out = bytearray()
    write_uvarint(out, len(ordinals))
    previous = 0
    for index, ordinal in enumerate(ordinals):
        write_uvarint(out, ordinal - previous if index else ordinal)
        previous = ordinal
        occurrence = positions[index]
        write_uvarint(out, len(occurrence))
        last = 0
        for position_index, position in enumerate(occurrence):
            write_uvarint(out, position - last if position_index else position)
            last = position
    return bytes(out)


def reference_write_segment(path, states, postings_by_term, block_size) -> None:
    """``states`` rows ``(uri, state_id, length, depth, seq)`` in any
    order; ``postings_by_term`` ``(term, [Posting, ...])`` sorted by term,
    each list in canonical order."""
    states = sorted(states, key=state_sort_key)
    uris = sorted({row[0] for row in states})
    uri_ids = {uri: index for index, uri in enumerate(uris)}
    ordinals = {(row[0], row[1]): ordinal for ordinal, row in enumerate(states)}

    num_postings = num_terms = 0
    term_table = bytearray()
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        offset = len(MAGIC)
        for term, postings in postings_by_term:
            num_terms += 1
            write_bytes(term_table, term.encode("utf-8"))
            write_uvarint(term_table, len(postings))
            write_uvarint(term_table, -(-len(postings) // block_size))
            for start in range(0, len(postings), block_size):
                block = postings[start : start + block_size]
                block_ordinals = [ordinals[(p.uri, p.state_id)] for p in block]
                payload = reference_encode_block(block_ordinals, [p.positions for p in block])
                handle.write(payload)
                for value in (offset, len(payload), len(block), block_ordinals[-1]):
                    write_uvarint(term_table, value)
                offset += len(payload)
            num_postings += len(postings)

        sections = [offset]
        section = bytearray()
        write_uvarint(section, len(uris))
        for uri in uris:
            write_bytes(section, uri.encode("utf-8"))
        handle.write(section)
        sections.append(sections[-1] + len(section))

        section = bytearray()
        write_uvarint(section, len(states))
        for uri, state_id, length, depth, seq in states:
            index = int(state_id[1:])
            prefix = state_id[: len(state_id) - len(str(index))]
            write_uvarint(section, uri_ids[uri])
            write_uvarint(section, index)
            write_bytes(section, prefix.encode("utf-8"))
            for value in (length, depth, seq):
                write_uvarint(section, value)
        handle.write(section)
        sections.append(sections[-1] + len(section))

        section = bytearray()
        write_uvarint(section, num_terms)
        handle.write(section + term_table)
        sections.append(sections[-1] + len(section) + len(term_table))

        meta = bytearray()
        write_bytes(
            meta,
            json.dumps(
                {"num_postings": num_postings, "block_size": block_size}, sort_keys=True
            ).encode("utf-8"),
        )
        handle.write(meta)
        handle.write(_FOOTER.pack(*sections, FOOTER_MAGIC))


def reference_bytes(reader: SegmentReader, scratch: Path) -> bytes:
    """What the reference writes for the logical content of ``reader``'s
    segment: its state rows, and per term its postings as objects."""
    postings_by_term = [(term, postings_of(reader, term)) for term in sorted(reader.terms())]
    reference_write_segment(scratch, reader.state_rows(), postings_by_term, reader.block_size)
    return scratch.read_bytes()


def as_columns(states, postings_by_term):
    """``(term, [Posting, ...])`` fixtures in the shape ``write_segment``
    takes: canonically sorted state rows and, per term, the ordinal and
    position columns.  A posting of a state that has no row is an error
    here, as it was in the writer that probed this dict itself."""
    rows = sorted(states, key=state_sort_key)
    ordinals = {(row[0], row[1]): ordinal for ordinal, row in enumerate(rows)}
    columns = []
    for term, postings in postings_by_term:
        try:
            column = [ordinals[(p.uri, p.state_id)] for p in postings]
        except KeyError as error:
            raise SearchError(f"posting for unknown state {error}") from None
        columns.append((term, column, [p.positions for p in postings]))
    return rows, columns


def postings_of(reader: SegmentReader, term: str):
    """Every posting of ``term`` in the file, as objects."""
    ordinals, positions = reader.columns(term)
    uris, state_ids = reader.state_keys(ordinals)
    return make_postings(zip(uris, state_ids, positions))


def make_postings(entries):
    """entries: (uri, state_id, positions) triples, any order; out come
    ``Posting`` objects in canonical (uri, state index) order."""
    return [
        Posting(uri=uri, state_id=state_id, positions=tuple(positions))
        for uri, state_id, positions in sorted(entries, key=state_sort_key)
    ]
