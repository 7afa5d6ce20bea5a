"""Content hashing for duplicate-state detection.

Section 3.2: "Currently, we compute a hash of the content of the state.
Two states with the same hash value will be considered the same."

We hash the canonical serialization of the document (attributes in sorted
order, entities normalized), optionally excluding subtrees whose content
is noise for state identity (e.g. tracking pixels).  The hash is the sole
state-identity mechanism of the crawler, because every AJAX state shares
one URL.

Since the incremental-hashing change, the default path is a **bottom-up
Merkle hasher**: every :class:`~repro.dom.node.Element` caches the
canonical hash-stream bytes of its subtree, and DOM mutators
(``append_child``/``remove_child``/``set_attribute``/text edits) clear
the cache along the ancestor chain (a dirty bit that propagates upward).
A hash pass therefore re-serializes and re-hashes only the dirty
subtrees and reads cached bytes/digests everywhere else, and one such
pass (:func:`hash_tree`) yields *both* the state hash and the full
region map.  Digest values are **byte-identical** to the historical
full-rewalk implementation (kept as :func:`reference_state_hash` /
:func:`reference_region_hashes` for oracle tests and baseline
benchmarks): the Merkle structure changes the work done, never the hash.

A small bounded memo maps canonical bytes to their hex digest, so a
subtree (or whole state) that toggles back to previously seen content
costs no SHA-256 work at all — the common case in a crawl, where most
fired events lead to already-known states.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.dom.node import Document, Element, Node, Text
from repro.dom.serialize import escape_attribute, escape_text

#: Upper bound on the canonical-bytes -> hex digest memo; when full the
#: memo is cleared wholesale (simple, allocation-free admission policy).
DIGEST_MEMO_LIMIT = 8192

_DIGEST_MEMO: dict[bytes, str] = {}


def clear_digest_memo() -> None:
    """Drop the global digest memo (tests, memory pressure)."""
    _DIGEST_MEMO.clear()


@dataclass
class HashStats:
    """Work accounting across hash passes (one instance per page).

    ``nodes_hashed`` counts nodes whose canonical bytes had to be
    rebuilt; ``nodes_skipped`` counts nodes served from a clean subtree
    cache; ``bytes_hashed`` counts bytes actually fed to SHA-256 (memo
    hits feed nothing).  The reference full-rewalk implementations
    count into the same fields, so seed-baseline and Merkle runs are
    directly comparable.
    """

    full_passes: int = 0
    incremental_passes: int = 0
    nodes_hashed: int = 0
    nodes_skipped: int = 0
    bytes_hashed: int = 0
    digests_computed: int = 0
    digests_memoized: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "full_passes": self.full_passes,
            "incremental_passes": self.incremental_passes,
            "nodes_hashed": self.nodes_hashed,
            "nodes_skipped": self.nodes_skipped,
            "bytes_hashed": self.bytes_hashed,
            "digests_computed": self.digests_computed,
            "digests_memoized": self.digests_memoized,
        }


#: Shared throwaway accounting object for callers that do not measure.
_NULL_STATS = HashStats()


@dataclass(frozen=True)
class DomHashes:
    """Result of one combined hash pass over a document."""

    #: The state hash (hex SHA-256 of the canonical serialization).
    state: str
    #: ``id`` attribute -> canonical subtree digest, document pre-order.
    regions: dict[str, str] = field(compare=False)
    #: Nodes whose canonical bytes were rebuilt during this pass.
    nodes_hashed: int = 0
    #: Nodes served from clean subtree caches.
    nodes_skipped: int = 0
    #: Bytes fed to SHA-256 during this pass.
    bytes_hashed: int = 0
    #: Whether cached subtrees were reused (False = full rebuild).
    incremental: bool = False


# -- shared byte-chunk helpers -------------------------------------------------


def element_open_bytes(element: Element) -> bytes:
    """The canonical ``<tag a="v" ...>`` bytes of one element.

    Built once per attribute state and cached on the element (cleared by
    ``set_attribute``/``remove_attribute``); shared by the Merkle leaf
    hasher and the reference walk so neither re-encodes attribute
    f-strings per visit.
    """
    cached = element._open_bytes
    if cached is not None:
        return cached
    attrs = element.attrs
    if attrs:
        inner = "".join(
            f' {name}="{escape_attribute(attrs[name])}"' for name in sorted(attrs)
        )
        chunk = f"<{element.tag}{inner}>".encode("utf-8")
    else:
        chunk = f"<{element.tag}>".encode("utf-8")
    element._open_bytes = chunk
    return chunk


def _text_bytes(node: Text) -> bytes:
    cached = node._hash_bytes
    if cached is None:
        cached = escape_text(node.data).encode("utf-8")
        node._hash_bytes = cached
    return cached


def _digest_of(canon: bytes, stats: HashStats) -> str:
    """Hex digest of canonical bytes, via the bounded global memo."""
    digest = _DIGEST_MEMO.get(canon)
    if digest is not None:
        stats.digests_memoized += 1
        return digest
    digest = hashlib.sha256(canon).hexdigest()
    stats.bytes_hashed += len(canon)
    stats.digests_computed += 1
    if len(_DIGEST_MEMO) >= DIGEST_MEMO_LIMIT:
        _DIGEST_MEMO.clear()
    _DIGEST_MEMO[canon] = digest
    return digest


# -- the Merkle pass -----------------------------------------------------------


def _build(element: Element, stats: HashStats) -> None:
    """Ensure ``element``'s subtree caches are populated, bottom-up.

    Rebuilds only dirty subtrees; a clean element contributes its cached
    bytes, region entries and node count without being descended into.
    """
    if element._canon_bytes is not None:
        stats.nodes_skipped += element._node_count or 1
        return
    parts: list[bytes] = [element_open_bytes(element)]
    items: list[tuple[str, str]] = []
    count = 1
    for child in element.children:
        if isinstance(child, Text):
            parts.append(_text_bytes(child))
            count += 1
            stats.nodes_hashed += 1
        elif isinstance(child, Element):
            _build(child, stats)
            parts.append(child._canon_bytes)  # type: ignore[arg-type]
            items.extend(child._region_items or ())
            count += child._node_count or 1
    parts.append(f"</{element.tag}>".encode("utf-8"))
    canon = b"".join(parts)
    element._canon_bytes = canon
    element._canon_digest = None
    element._node_count = count
    stats.nodes_hashed += 1
    identifier = element.attrs.get("id")
    if identifier:
        items.insert(0, (identifier, _digest_of(canon, stats)))
        element._canon_digest = items[0][1]
    element._region_items = tuple(items)


def hash_tree(
    node: Node | Document,
    stats: Optional[HashStats] = None,
) -> DomHashes:
    """One combined pass: state hash **and** full region map.

    Re-hashes only dirty subtrees; everything clean is read from the
    per-element caches.  Byte-identical to running the historical
    :func:`reference_state_hash` + :func:`reference_region_hashes`.
    """
    stats = stats if stats is not None else HashStats()
    root = node.root if isinstance(node, Document) else node
    if not isinstance(root, Element):
        # Degenerate roots (bare text) have no regions and no cache.
        return DomHashes(
            state=reference_state_hash(root, stats=stats), regions={}
        )
    before_hashed = stats.nodes_hashed
    before_skipped = stats.nodes_skipped
    before_bytes = stats.bytes_hashed
    was_clean = root._canon_bytes is not None
    _build(root, stats)
    digest = root._canon_digest
    if digest is None:
        digest = _digest_of(root._canon_bytes, stats)  # type: ignore[arg-type]
        root._canon_digest = digest
    incremental = was_clean or stats.nodes_skipped > before_skipped
    if incremental:
        stats.incremental_passes += 1
    else:
        stats.full_passes += 1
    return DomHashes(
        state=digest,
        regions=dict(root._region_items or ()),
        nodes_hashed=stats.nodes_hashed - before_hashed,
        nodes_skipped=stats.nodes_skipped - before_skipped,
        bytes_hashed=stats.bytes_hashed - before_bytes,
        incremental=incremental,
    )


def cached_state(node: Node | Document) -> Optional[str]:
    """The state hash the last pass left on a tree nothing has written
    to since (what :func:`hash_tree` would answer, read without a pass
    or its region map), or ``None`` when the tree is dirty."""
    root = node.root if isinstance(node, Document) else node
    if isinstance(root, Element) and root._canon_bytes is not None:
        return root._canon_digest
    return None


def changed_regions(before: dict[str, str], after: dict[str, str]) -> tuple[str, ...]:
    """Ids whose subtree hash differs between two region maps.

    The application model annotates each transition with the page
    regions an event modified (``modif*`` in Algorithm 3.1.1); regions
    are the elements carrying an ``id``, and this comparison names the
    ones that actually changed, instead of a hardcoded guess.
    Regions present on only one side (inserted/removed containers)
    count as changed.  Nested ids both report when an inner change also
    alters the outer subtree — callers get the full containment chain.
    """
    ids = set(before) | set(after)
    return tuple(sorted(i for i in ids if before.get(i) != after.get(i)))


# -- reference full-rewalk implementation --------------------------------------


def reference_state_hash(node: Node | Document, stats: Optional[HashStats] = None) -> str:
    """The historical full-rewalk hash: every byte fed on every call.

    This is the oracle the Merkle hasher must match byte-for-byte, and
    the seed baseline the hashing benchmark measures against.  It never
    reads or writes the subtree caches (beyond the shared open-tag /
    text byte chunks, which are content-derived).
    """
    stats = stats if stats is not None else _NULL_STATS
    digest = hashlib.sha256()
    root = node.root if isinstance(node, Document) else node
    _feed(root, digest, stats)
    stats.full_passes += 1
    return digest.hexdigest()


def _feed(node: Node, digest: "hashlib._Hash", stats: HashStats) -> None:
    if isinstance(node, Text):
        chunk = _text_bytes(node)
        digest.update(chunk)
        stats.nodes_hashed += 1
        stats.bytes_hashed += len(chunk)
        return
    if not isinstance(node, Element):
        return
    opening = element_open_bytes(node)
    digest.update(opening)
    for child in node.children:
        _feed(child, digest, stats)
    closing = f"</{node.tag}>".encode("utf-8")
    digest.update(closing)
    stats.nodes_hashed += 1
    stats.bytes_hashed += len(opening) + len(closing)


def reference_region_hashes(
    node: Node | Document, stats: Optional[HashStats] = None
) -> dict[str, str]:
    """The historical region walk: one full subtree re-hash per id."""
    regions: dict[str, str] = {}
    root = node.root if isinstance(node, Document) else node
    _collect_regions(root, regions, stats if stats is not None else _NULL_STATS)
    return regions


def _collect_regions(node: Node, regions: dict[str, str], stats: HashStats) -> None:
    if not isinstance(node, Element):
        return
    identifier = node.attrs.get("id")
    if identifier:
        regions[identifier] = reference_state_hash(node, stats=stats)
    for child in node.children:
        _collect_regions(child, regions, stats)
