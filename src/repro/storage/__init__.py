"""Storage backend: dictionary-encoded triple store with sorted posting lists.

The paper uses ElasticSearch as the storage backend; the contract top-k query
processing needs from it is narrow: *given a triple pattern, access its
matching triples in descending score order, incrementally*.  This package
provides that contract with one physical layout — hash-partitioned columnar
segments in memory, a snapshot directory on disk:

* :mod:`dictionary` — bidirectional term ↔ integer-id encoding,
* :mod:`backend` — the :class:`StorageBackend` protocol (the typed seam),
* :mod:`sharded` — the store layout (:class:`ShardedBackend`): N columnar
  segments plus the mutable delta behind lazy k-way merged postings,
* :mod:`columnar` — the frozen segment class (:class:`ColumnarBackend`):
  array columns and, per bound-slot signature (:mod:`index`), a permutation
  pre-sorted by observation weight so sorted access is an array walk,
* :mod:`delta`, :mod:`compaction` — live ingestion and folding it back,
* :mod:`store` — the :class:`TripleStore` facade (add / freeze / match),
* :mod:`statistics` — pattern cardinalities, ``args(p)`` subject-object pair
  sets for relaxation mining, collection frequencies for scoring,
* :mod:`text_index` — fuzzy phrase matching for text-token query slots,
* :mod:`persistence` — JSONL save/load (with format sniffing),
* :mod:`snapshot` — binary snapshot directories loaded back via ``mmap``.
"""

from repro.storage.backend import StorageBackend, make_backend
from repro.storage.columnar import ColumnarBackend
from repro.storage.dictionary import TermDictionary
from repro.storage.sharded import ShardedBackend
from repro.storage.store import StoredTriple, TripleStore
from repro.storage.statistics import StoreStatistics
from repro.storage.text_index import TokenMatcher, TokenMatch
from repro.storage.persistence import load_store, save_store
from repro.storage.snapshot import load_snapshot, save_snapshot

__all__ = [
    "ColumnarBackend",
    "ShardedBackend",
    "StorageBackend",
    "TermDictionary",
    "TripleStore",
    "StoredTriple",
    "StoreStatistics",
    "TokenMatcher",
    "TokenMatch",
    "make_backend",
    "save_store",
    "load_store",
    "save_snapshot",
    "load_snapshot",
]
