"""Unit tests for JSONL persistence."""

import json

import pytest

from repro.core.terms import Literal, Resource, TextToken
from repro.core.triples import Provenance, Triple
from repro.errors import PersistenceError
from repro.storage.persistence import load_store, save_store
from repro.storage.store import MAX_PROVENANCES, TripleStore
from repro.topk.processor import TopKProcessor

from harness.differential import fingerprint


class TestRoundtrip:
    def test_counts_and_confidence_survive(self, small_store, tmp_path):
        path = tmp_path / "store.jsonl"
        written = save_store(small_store, path)
        assert written == len(small_store)
        loaded = load_store(path)
        assert len(loaded) == len(small_store)
        for record in small_store.records():
            reloaded = loaded.lookup(record.triple)
            assert reloaded is not None
            assert reloaded.count == record.count
            assert reloaded.confidence == pytest.approx(record.confidence)

    def test_provenances_survive(self, small_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(small_store, path)
        loaded = load_store(path)
        original = small_store.lookup(
            Triple(
                Resource("AlbertEinstein"),
                TextToken("lectured at"),
                Resource("PrincetonUniversity"),
            )
        )
        reloaded = loaded.lookup(original.triple)
        assert reloaded.provenances == original.provenances

    def test_literal_types_survive(self, small_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(small_store, path)
        loaded = load_store(path)
        record = loaded.lookup(
            Triple(
                Resource("AlbertEinstein"),
                Resource("bornOn"),
                Literal("1879-03-14"),
            )
        )
        # "1879-03-14" auto-types to a date on reload; both forms unify via
        # lexical equality of the literal.
        assert record is not None or loaded.lookup(
            Triple(
                Resource("AlbertEinstein"),
                Resource("bornOn"),
                Literal(__import__("datetime").date(1879, 3, 14)),
            )
        )

    def test_loaded_store_is_frozen_by_default(self, small_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(small_store, path)
        assert load_store(path).is_frozen
        assert not load_store(path, freeze=False).is_frozen

    def test_store_name_preserved(self, small_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(small_store, path)
        assert load_store(path).name == small_store.name


class TestExactFidelity:
    """Regression: save_store used to round confidences to 6 decimals, so a
    reloaded store ranked answers differently than the one it was saved
    from (conf 0.1234567891, count 3 → weight 0.3703703673 in-memory vs
    0.370371 after reload)."""

    def _exact_store(self):
        store = TripleStore("exact")
        aff = Resource("affiliation")
        store.add(
            Triple(Resource("A"), aff, Resource("U1")),
            confidence=0.1234567891,
            count=3,
        )
        # A competitor whose weight falls between the exact and the rounded
        # weight of the first triple: rounding used to flip their order.
        store.add(
            Triple(Resource("B"), aff, Resource("U2")),
            confidence=0.3703703690,
            count=1,
        )
        return store.freeze()

    def test_confidence_round_trips_bit_exact(self, tmp_path):
        store = self._exact_store()
        path = tmp_path / "exact.jsonl"
        save_store(store, path)
        loaded = load_store(path)
        for record in store.records():
            reloaded = loaded.lookup(record.triple)
            assert reloaded.confidence == record.confidence  # ==, not approx

    def test_weights_identical_after_reload(self, tmp_path):
        store = self._exact_store()
        path = tmp_path / "exact.jsonl"
        save_store(store, path)
        loaded = load_store(path)
        assert list(loaded.weights()) == list(store.weights())

    def test_topk_answer_order_survives_reload(self, tmp_path):
        from repro.core.parser import parse_query

        store = self._exact_store()
        path = tmp_path / "exact.jsonl"
        save_store(store, path)
        loaded = load_store(path)
        query = parse_query("?x affiliation ?y")
        original = TopKProcessor(store).query(query, 5)
        reloaded = TopKProcessor(loaded).query(query, 5)
        assert fingerprint(reloaded) == fingerprint(original)

    def test_small_store_weights_and_answers_survive(self, small_store, tmp_path):
        from repro.core.parser import parse_query

        store = small_store.freeze()
        path = tmp_path / "store.jsonl"
        save_store(store, path)
        loaded = load_store(path)
        assert list(loaded.weights()) == list(store.weights())
        query = parse_query("AlbertEinstein ?p ?y")
        original = TopKProcessor(store).query(query, 10)
        reloaded = TopKProcessor(loaded).query(query, 10)
        assert fingerprint(reloaded) == fingerprint(original)


class TestProvenanceCap:
    """Regression: load_store appended extra provenance samples directly,
    bypassing the MAX_PROVENANCES cap TripleStore.add enforces."""

    def test_hand_edited_file_cannot_exceed_cap(self, tmp_path):
        path = tmp_path / "inflated.jsonl"
        prov = [
            {"origin": "openie", "source": f"doc-{i}"}
            for i in range(MAX_PROVENANCES * 3)
        ]
        lines = [
            json.dumps({"format": "trinit-xkg-jsonl", "version": 1,
                        "name": "x", "triples": 1}),
            json.dumps({"s": ["r", "A"], "p": ["r", "p"], "o": ["r", "B"],
                        "count": 1, "conf": 0.5, "prov": prov}),
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = load_store(path)
        record = loaded.lookup(
            Triple(Resource("A"), Resource("p"), Resource("B"))
        )
        assert len(record.provenances) == MAX_PROVENANCES

    def test_duplicate_extra_provenances_deduped(self, tmp_path):
        path = tmp_path / "dupes.jsonl"
        prov = [{"origin": "openie", "source": "doc-1"}] * 4
        lines = [
            json.dumps({"format": "trinit-xkg-jsonl", "version": 1,
                        "name": "x", "triples": 1}),
            json.dumps({"s": ["r", "A"], "p": ["r", "p"], "o": ["r", "B"],
                        "count": 1, "conf": 0.5, "prov": prov}),
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = load_store(path)
        record = loaded.lookup(
            Triple(Resource("A"), Resource("p"), Resource("B"))
        )
        assert record.provenances == [Provenance("openie", "doc-1")]


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_store(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(PersistenceError):
            load_store(path)

    def test_wrong_format_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(PersistenceError):
            load_store(path)

    def test_bad_json_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(PersistenceError):
            load_store(path)

    def test_bad_triple_line_reports_line_number(self, small_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(small_store, path)
        content = path.read_text().splitlines()
        content[1] = json.dumps({"s": ["r", "A"]})  # missing p/o
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(PersistenceError) as exc:
            load_store(path)
        assert ":2" in str(exc.value)

    def test_triple_count_mismatch(self, small_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(small_store, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one triple
        with pytest.raises(PersistenceError):
            load_store(path)
