"""Near-duplicate state collapse: banded LSH over simhash fingerprints.

The exact-hash layer in :mod:`repro.model.appmodel` already folds
byte-identical re-observations of a state into one node.  This module
adds the *similarity* layer ROADMAP item 3 calls for: states whose
visible content differs only in volatile regions (timestamps, rotating
ads, per-request noise) collapse into one canonical state, so the
crawler stops re-exploring twins and the index stops fragmenting search
results across them.

Two pieces:

* :class:`BandedLshTable` — ``b`` hash tables, one per band of the
  64-bit simhash.  Inserting a fingerprint registers it under each of
  its band keys; a candidate lookup unions the ``b`` buckets, giving
  O(1) expected candidates per new state instead of a linear scan over
  all canonicals.  With ``b >= threshold + 1`` (the default chosen by
  :func:`repro.dom.simhash.bands_for_threshold`) the lookup is exact:
  no pair within the threshold is ever missed.
* :class:`StateCollapser` — per-crawl state.  Every observed DOM state
  is first short-circuited on its exact content hash; genuinely new
  hashes are fingerprinted, probed through the LSH table, and merged
  into the nearest canonical within the Hamming threshold (first-seen
  wins ties).  Canonicals carry a variant count and a volatile-region
  mask (the union of region ids whose digests differed from the
  canonical's), which the crawler writes into state annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.dom.hashing import changed_regions
from repro.dom.simhash import (
    FINGERPRINT_BITS,
    band_keys,
    bands_for_threshold,
    hamming,
    simhash64,
)

__all__ = ["BandedLshTable", "CollapseOutcome", "StateCollapser"]


class BandedLshTable:
    """Banded locality-sensitive index over 64-bit fingerprints."""

    def __init__(self, bands: int) -> None:
        if bands not in (1, 2, 4, 8, 16, 32, 64):
            raise ValueError(
                f"band count must divide {FINGERPRINT_BITS}, got {bands}"
            )
        self.bands = bands
        self.rows = FINGERPRINT_BITS // bands
        self._tables: list[dict[int, list[int]]] = [{} for _ in range(bands)]

    def insert(self, fingerprint: int, ref: int) -> None:
        """Register ``ref`` (an opaque handle) under every band key."""
        for table, key in zip(self._tables, band_keys(fingerprint, self.bands)):
            table.setdefault(key, []).append(ref)

    def candidates(self, fingerprint: int) -> list[int]:
        """Refs sharing at least one band, deduplicated, insertion order."""
        seen: dict[int, None] = {}
        for table, key in zip(self._tables, band_keys(fingerprint, self.bands)):
            for ref in table.get(key, ()):
                seen[ref] = None
        return list(seen)


@dataclass(frozen=True)
class CollapseOutcome:
    """Result of observing one DOM state.

    ``canonical_hash`` is the content hash the crawler should resolve
    against the application model — the observation's own hash for a
    new canonical or an exact re-observation, the canonical's hash for
    a merge.  ``distance`` is the Hamming distance to the canonical a
    merge landed on (``None`` otherwise).
    """

    canonical_hash: str
    merged: bool = False
    known: bool = False
    distance: Optional[int] = None
    candidates: int = 0


@dataclass
class _Canonical:
    content_hash: str
    fingerprint: int
    regions: dict[str, str]
    variants: int = 1
    volatile_regions: set[str] = field(default_factory=set)


class StateCollapser:
    """Merge near-duplicate states into canonical representatives."""

    def __init__(self, threshold: int, bands: Optional[int] = None) -> None:
        if threshold < 0:
            raise ValueError(f"near-duplicate threshold must be >= 0, got {threshold}")
        required = bands_for_threshold(threshold)
        if bands is None:
            bands = required
        elif bands < required:
            raise ValueError(
                f"{bands} bands cannot guarantee recall at threshold "
                f"{threshold}; need at least {required}"
            )
        self.threshold = threshold
        self.table = BandedLshTable(bands)
        #: Canonicals in first-seen order; LSH refs index into this list.
        self._canonicals: list[_Canonical] = []
        self._by_hash: dict[str, _Canonical] = {}
        #: Every observed content hash -> its canonical's content hash.
        self._variant_to_canonical: dict[str, str] = {}
        # -- accounting surfaced as dedup.* metrics ----------------------
        self.states_hashed = 0
        self.lsh_candidates = 0
        self.hamming_checks = 0
        self.merges = 0

    # -- observation --------------------------------------------------------

    def observe(
        self,
        content_hash: str,
        features: frozenset[str],
        regions: Mapping[str, str],
    ) -> CollapseOutcome:
        """Classify one observed state by its feature set."""
        known = self._variant_to_canonical.get(content_hash)
        if known is not None:
            return CollapseOutcome(canonical_hash=known, known=True)
        self.states_hashed += 1
        return self.observe_fingerprint(content_hash, simhash64(features), regions)

    def observe_fingerprint(
        self,
        content_hash: str,
        fingerprint: int,
        regions: Mapping[str, str],
    ) -> CollapseOutcome:
        """Classify a pre-fingerprinted state (test/property entry point)."""
        known = self._variant_to_canonical.get(content_hash)
        if known is not None:
            return CollapseOutcome(canonical_hash=known, known=True)
        refs = self.table.candidates(fingerprint)
        self.lsh_candidates += len(refs)
        best: Optional[_Canonical] = None
        best_distance = self.threshold + 1
        for ref in sorted(refs):
            canonical = self._canonicals[ref]
            self.hamming_checks += 1
            distance = hamming(fingerprint, canonical.fingerprint)
            if distance < best_distance:
                best = canonical
                best_distance = distance
        if best is not None:
            self.merges += 1
            best.variants += 1
            best.volatile_regions.update(changed_regions(best.regions, regions))
            self._variant_to_canonical[content_hash] = best.content_hash
            return CollapseOutcome(
                canonical_hash=best.content_hash,
                merged=True,
                distance=best_distance,
                candidates=len(refs),
            )
        canonical = _Canonical(
            content_hash=content_hash,
            fingerprint=fingerprint,
            regions=dict(regions),
        )
        self.table.insert(fingerprint, len(self._canonicals))
        self._canonicals.append(canonical)
        self._by_hash[content_hash] = canonical
        self._variant_to_canonical[content_hash] = content_hash
        return CollapseOutcome(canonical_hash=content_hash, candidates=len(refs))

    # -- inspection ---------------------------------------------------------

    def canonical_hashes(self) -> list[str]:
        """Canonical content hashes in first-seen order."""
        return [canonical.content_hash for canonical in self._canonicals]

    def variants_of(self, canonical_hash: str) -> int:
        """Observation count folded into a canonical (>= 1)."""
        return self._by_hash[canonical_hash].variants

    def volatile_regions_of(self, canonical_hash: str) -> tuple[str, ...]:
        """Sorted region ids that differed across a canonical's variants."""
        return tuple(sorted(self._by_hash[canonical_hash].volatile_regions))

    def partition(self) -> frozenset[frozenset[str]]:
        """Observed hashes grouped by canonical (order-free comparison)."""
        groups: dict[str, set[str]] = {}
        for variant, canonical in self._variant_to_canonical.items():
            groups.setdefault(canonical, set()).add(variant)
        return frozenset(frozenset(members) for members in groups.values())
