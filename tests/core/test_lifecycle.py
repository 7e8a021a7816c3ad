"""Engine session lifecycle: ``TriniT.open``, context manager, ``close``."""

import pytest

from repro.core.engine import TriniT
from repro.errors import StorageError
from repro.kg.paper_example import paper_engine
from repro.storage.persistence import save_store
from repro.storage.snapshot import save_snapshot


@pytest.fixture()
def snapshot_path(tmp_path):
    path = tmp_path / "paper.snapd"
    save_snapshot(paper_engine().store, path)
    return path


class TestOpen:
    def test_open_snapshot_and_query(self, snapshot_path):
        with TriniT.open(snapshot_path) as engine:
            answers = engine.ask("?x bornIn ?y", 5)
            assert not answers.is_empty
        assert engine.closed
        assert engine.store.closed

    def test_open_releases_mmap_on_exit(self, snapshot_path):
        with TriniT.open(snapshot_path) as engine:
            backend = engine.store.backend
            assert backend._buffer is not None
        assert backend._buffer is None  # unmapped, not leaked

    def test_open_jsonl(self, tmp_path):
        path = tmp_path / "paper.jsonl"
        save_store(paper_engine().store, path)
        with TriniT.open(path) as engine:
            assert not engine.ask("?x bornIn ?y", 5).is_empty

    def test_open_forwards_kwargs(self, snapshot_path):
        from repro.core.engine import EngineConfig

        config = EngineConfig(mine_chains=False)
        with TriniT.open(snapshot_path, config=config) as engine:
            assert engine.config.mine_chains is False

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            TriniT.open(tmp_path / "nope.snap")


class TestClose:
    def test_close_is_idempotent(self, snapshot_path):
        engine = TriniT.open(snapshot_path)
        engine.close()
        engine.close()
        assert engine.closed

    def test_ask_after_close_raises(self, snapshot_path):
        engine = TriniT.open(snapshot_path)
        engine.close()
        with pytest.raises(StorageError):
            engine.ask("?x bornIn ?y", 5)

    def test_close_works_without_open(self):
        # In-memory engines participate in the same lifecycle.
        engine = paper_engine()
        with engine:
            assert not engine.ask("?x bornIn ?y").is_empty
        assert engine.closed
        with pytest.raises(StorageError):
            engine.ask("?x bornIn ?y")

    def test_materialised_answers_survive_close(self, snapshot_path):
        engine = TriniT.open(snapshot_path)
        answers = engine.ask("?x bornIn ?y", 5)
        engine.close()
        # Decoded terms, scores and explanations stay renderable.
        assert answers.render_table()
        assert engine.explain(answers.top()).render()
