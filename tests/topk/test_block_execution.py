"""Edge cases of the block-at-a-time execution path.

The property suite pins block execution against the per-item reference in
bulk; these tests nail the corners individually — empty posting lists,
score ties straddling a block boundary exactly at the k-threshold, the
delta segment's thread-side-only (and never cached) preparation, stale
cached handles after a backend closes, and the observability counters
(``blocks_decoded`` / ``block_cache_hits``).
"""

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.errors import StorageError
from repro.storage.sharded import DEFAULT_SEGMENTS, ShardedBackend
from repro.storage.store import TripleStore
from repro.topk.kernels import HotBlockCache


def _engine(rows, segments=DEFAULT_SEGMENTS, **config):
    config.setdefault("parallelism", 1)
    config.setdefault("executor_kind", "serial")
    store = TripleStore(backend=ShardedBackend(segments))
    for s, p, o, conf in rows:
        store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=conf)
    return TriniT(store, config=EngineConfig(**config))


def signature(answers):
    return [(a.binding, a.score) for a in answers]


ROWS = [
    (f"E{i % 11}", ("bornIn", "livesIn", "type")[i % 3], f"E{(i * 7) % 13}",
     0.05 + (i % 17) / 20)
    for i in range(120)
]


def test_empty_posting_list_scores_no_blocks():
    engine = _engine(ROWS)
    try:
        stream = engine.stream("?x hasNoSuchPredicate ?y")
        assert list(stream.next_k(5)) == []
        assert stream.stats.blocks_decoded == 0
    finally:
        engine.close()


def test_tie_straddling_block_boundary_at_threshold(segments):
    # Every statement carries the same confidence, so the whole posting
    # list is one score tie; with block_size=2 the k-threshold falls inside
    # a tie run that straddles block boundaries.  The block path must cut
    # the identical top-k the per-item reference does.
    rows = [(f"A{i}", "knows", f"B{i}", 0.5) for i in range(9)]
    reference = _engine(rows, segments, merge_batch=1, block_size=1)
    blocked = _engine(rows, segments, block_size=2)
    try:
        for k in (1, 3, 4, 8, 9):
            assert signature(blocked.ask("?x knows ?y", k=k)) == signature(
                reference.ask("?x knows ?y", k=k)
            )
    finally:
        reference.close()
        blocked.close()


def test_delta_blocks_thread_side_and_never_cached():
    engine = _engine(ROWS)
    try:
        engine.ingest(
            [Triple(Resource("Fresh"), Resource("bornIn"), Resource("E1"))],
            confidence=0.9,
        )
        answers = engine.ask("?x bornIn ?y", k=50)
        assert ("Fresh", "E1") in {
            tuple(term.name for _v, term in a.binding) for a in answers
        }
        # The delta stream uses segment_index -1; no cache key may carry it.
        cached_segments = {
            key[1] for key in engine._block_cache._entries
        }
        assert -1 not in cached_segments
        # Frozen segment blocks of the same lookup did get cached.
        assert len(engine._block_cache) > 0
    finally:
        engine.close()


def test_repeat_query_hits_block_cache():
    engine = _engine(ROWS)
    try:
        first = engine.stream("?x bornIn ?y")
        reference = signature(first.next_k(30))
        # Rewritings of one query re-probe the same lookup, so even the
        # first query may hit blocks its own cursors cached.
        first_hits = engine._block_cache.hits
        second = engine.stream("?x bornIn ?y")
        assert signature(second.next_k(30)) == reference
        assert second.stats.block_cache_hits > 0
        assert engine._block_cache.hits > first_hits
    finally:
        engine.close()


def test_blocks_decoded_counter_observable():
    engine = _engine(ROWS)
    try:
        stream = engine.stream("?x bornIn ?y")
        stream.next_k(10)
        assert stream.stats.blocks_decoded > 0
    finally:
        engine.close()


def test_per_item_path_decodes_no_blocks():
    engine = _engine(ROWS, block_size=1)
    try:
        stream = engine.stream("?x bornIn ?y")
        assert len(list(stream.next_k(10))) == 10
        assert stream.stats.blocks_decoded == 0
        assert stream.stats.block_cache_hits == 0
    finally:
        engine.close()


def test_posting_block_after_close_raises_storage_error():
    engine = _engine(ROWS)
    backend = engine.store.backend
    segment = backend._segment(0)
    engine.close()
    with pytest.raises(StorageError):
        backend.posting_block(0, (False, False, False), (), 0, 4)
    with pytest.raises(StorageError):
        segment.posting_block((False, False, False), (), 0, 4)


def test_cached_blocks_survive_backend_close():
    # Cached blocks are self-owned arrays, not views over the backend's
    # buffers: a consumer holding the cache may read them after the
    # producing backend is gone.
    engine = _engine(ROWS)
    cache: HotBlockCache = engine._block_cache
    engine.ask("?x bornIn ?y", k=30)
    entries = list(cache._entries.items())
    assert entries
    engine.close()  # closes the store; engine.close also clears its cache
    for key, (kw, kg) in entries:
        assert len(kw) == len(kg)
        assert list(kw)  # reading the arrays cannot touch released views


def test_swap_quiet_point_clears_cache():
    engine = _engine(ROWS)
    try:
        engine.ask("?x bornIn ?y", k=30)
        assert len(engine._block_cache) > 0
        engine.ingest(
            [Triple(Resource("New"), Resource("type"), Resource("E2"))]
        )
        engine.compact()
        assert len(engine._block_cache) == 0
    finally:
        engine.close()


def test_block_size_validation():
    engine = _engine(ROWS[:5])
    try:
        with pytest.raises(StorageError):
            engine.store.configure_blocks(0)
    finally:
        engine.close()
