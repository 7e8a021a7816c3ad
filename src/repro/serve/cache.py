"""Bounded LRU+TTL result cache for the query service.

One entry caches the fully serialised response payload of an eager
``POST /query`` — the part of the request whose recomputation the paper's
interactive workload repeats most (a few heavy-hitter queries dominate a
Zipfian mix).  Keys are ``(normalized query, k, snapshot identity)``:

* *normalized query* — the parsed query rendered back to canonical text
  (``Query.n3()``), so surface variants of the same query share an entry;
* *k* — answers requested (a prefix of a larger k is **not** served from
  a smaller k's entry; prefix-stability would allow serving fewer, but
  never more);
* *snapshot identity* — :meth:`repro.core.engine.TriniT.snapshot_identity`,
  which changes on every visible change (live ingest bumps the delta
  version, compaction the generation, an added rule the rules
  component).  A stale entry therefore can never be *returned* — its key
  no longer matches — but it would still occupy space, which is why the
  service also subscribes to :meth:`~repro.core.engine.TriniT.on_store_swap`
  and calls :meth:`ResultCache.flush` the moment a compaction or an added
  rule publishes a new engine state.

The cache is a plain ``OrderedDict`` LRU under a mutex (entries are
touched from the event loop *and* from executor threads), with lazy TTL
expiry on read and full hit/miss/eviction/flush accounting for the
metrics surface.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

#: Key type: (normalized query text, k, snapshot identity token).
CacheKey = Hashable


class ResultCache:
    """Thread-safe bounded LRU with per-entry TTL and hit accounting.

    Parameters
    ----------
    max_entries:
        LRU bound; inserting past it evicts the least recently used
        entry.  ``0`` disables caching entirely (every ``get`` is a miss,
        ``put`` is a no-op) — the service's ``cache_size=0`` knob.
    ttl:
        Seconds an entry stays servable after insertion.  ``None`` means
        entries never expire by age (the snapshot-identity key component
        and the swap-point flush still bound staleness).
    clock:
        Injectable monotonic clock (tests freeze it).
    """

    def __init__(
        self,
        max_entries: int = 256,
        ttl: float | None = 300.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, tuple[float, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.flushes = 0
        self.flushed_entries = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Any | None:
        """The cached value, or ``None`` (miss/expired) — with accounting."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            inserted, value = entry
            if self.ttl is not None and now - inserted > self.ttl:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert/refresh ``key``, evicting LRU entries past the bound."""
        if self.max_entries == 0:
            return
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = (self._clock(), value)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def flush(self) -> int:
        """Drop every entry (store-swap invalidation); returns the count.

        Wired to :meth:`repro.core.engine.TriniT.on_store_swap` so a
        compaction or an added rule empties the cache as it is published
        — entries keyed on the superseded snapshot identity could never
        be served again anyway, this reclaims their memory immediately
        and makes the invalidation observable in ``/metrics``
        (``flushes``/``flushed_entries``).
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.flushes += 1
            self.flushed_entries += dropped
            return dropped

    def stats(self) -> dict[str, int | float]:
        """Counter snapshot for the metrics surface."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": (self.hits / lookups) if lookups else 0.0,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "flushes": self.flushes,
                "flushed_entries": self.flushed_entries,
            }
