"""The AJAX search engine (chapter 5).

State-granular inverted file, boolean retrieval with conjunction merge,
eq. 5.3 ranking (PageRank + AJAXRank + tf/idf + term proximity) and
result aggregation by event replay.  One index over a generation of
segments, read by one block merge; its two backends differ only in
where a flush goes — the in-memory :class:`InvertedFile` keeps the
buffer, the on-disk :class:`SegmentedIndex` writes delta+varint posting
blocks and compacts them (LSM) — with byte-identical query results.
"""

from repro.search.aggregation import ResultAggregator
from repro.search.engine import SearchEngine, SearchResult
from repro.search.index import InvertedFile
from repro.search.memtable import Memtable
from repro.search.query import Match, Posting, evaluate
from repro.search.segmented import SegmentedIndex
from repro.search.segments import (
    BLOCK_SIZE,
    BlockCache,
    MergeStats,
    SegmentReader,
    merge_conjunction_blocks,
    write_segment,
)
from repro.search.ranking import (
    RankingWeights,
    ajaxrank,
    pagerank,
    term_proximity,
)
from repro.search.tokenizer import query_terms, tokenize, tokenize_with_positions

__all__ = [
    "SearchEngine",
    "SearchResult",
    "InvertedFile",
    "SegmentedIndex",
    "Memtable",
    "SegmentReader",
    "BlockCache",
    "MergeStats",
    "BLOCK_SIZE",
    "write_segment",
    "merge_conjunction_blocks",
    "Posting",
    "Match",
    "evaluate",
    "RankingWeights",
    "pagerank",
    "ajaxrank",
    "term_proximity",
    "ResultAggregator",
    "tokenize",
    "tokenize_with_positions",
    "query_terms",
]
