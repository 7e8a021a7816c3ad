"""Bidirectional term ↔ integer-id dictionary.

Dictionary encoding keeps the index structures compact (ints instead of term
objects) and makes term identity checks O(1).  Ids are assigned densely in
insertion order, so a store built twice from the same input assigns identical
ids.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.terms import Term
from repro.errors import DictionaryError
from repro.util.lazy import LazilyBuilt


class TermDictionary:
    """Assigns stable dense integer ids to terms.

    The dictionary is append-only: terms are never removed, so ids stay
    valid for the lifetime of the store that owns them.

    Beside the term table sits the **tie-key column**: :meth:`sort_key`
    is ``decode(id).sort_key()`` computed on first use and kept per id, so
    ranking code orders tied answers without decoding them.  Ids are
    append-only, so an entry is never invalidated — not by an ingest (new
    ids, new entries) and not by a compaction that kept every id
    (:meth:`adopt_sort_keys`).  Entries are immutable and each is
    published by a single dict store: concurrent readers (``ask_many``
    threads) see an id's key either absent or complete, and two threads
    that both miss store equal values.
    """

    def __init__(self):
        self._term_to_id: dict[Term, int] = {}
        self._id_to_term: list[Term] = []
        self._sort_keys: dict[int, tuple[int, str]] = {}

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_id

    def __iter__(self) -> Iterator[Term]:
        return iter(self._id_to_term)

    def encode(self, term: Term) -> int:
        """Return the id for ``term``, assigning a fresh one if unseen."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def id_of(self, term: Term) -> int | None:
        """Return the id for ``term`` or None when it was never added."""
        return self._term_to_id.get(term)

    def require_id(self, term: Term) -> int:
        """Return the id for ``term``; raise :class:`DictionaryError` if absent."""
        existing = self._term_to_id.get(term)
        if existing is None:
            raise DictionaryError(f"Unknown term: {term!r}")
        return existing

    def decode(self, term_id: int) -> Term:
        """Return the term for ``term_id``; raise on out-of-range ids."""
        if 0 <= term_id < len(self._id_to_term):
            return self._id_to_term[term_id]
        raise DictionaryError(f"Unknown term id: {term_id}")

    def sort_key(self, term_id: int) -> tuple[int, str]:
        """``decode(term_id).sort_key()``, computed once per id."""
        key = self._sort_keys.get(term_id)
        if key is None:
            key = self._sort_keys[term_id] = self.decode(term_id).sort_key()
        return key

    def adopt_sort_keys(self, other: "TermDictionary") -> None:
        """Start from the tie keys ``other`` has computed; only valid when
        every id of ``other`` names the same term here (a compaction that
        kept ids).  Costs the keys computed, not the dictionary."""
        self._sort_keys = dict(other._sort_keys)

    def ids_of_kind(self, kind: str) -> list[int]:
        """All ids whose term has the given kind ('resource', 'token', ...)."""
        return [i for i, term in enumerate(self._id_to_term) if term.kind == kind]


class LazyTermDictionary(TermDictionary, LazilyBuilt):
    """A dictionary whose term table decodes on first use.

    Snapshot loading used to decode every stored term up front — a cost a
    cold open pays even when the session never runs a query.  This variant
    defers the decode to the first dictionary access: ``populate`` (a
    closure over the snapshot's terms section) fills the table exactly once
    (:class:`~repro.util.lazy.LazilyBuilt`), so concurrent first touches
    (``ask_many`` threads) observe either nothing or the complete id
    assignment, never a prefix.
    """

    def __init__(self, populate: Callable[["TermDictionary"], None]):
        super().__init__()
        self._populate = populate
        self._init_lazy()

    @property
    def is_materialized(self) -> bool:
        """True once the term table has been decoded."""
        return self._built

    def _build(self) -> None:
        self._populate(self)
        self._populate = None  # free the closed-over terms blob

    def __len__(self) -> int:
        self._ensure()
        return super().__len__()

    def __contains__(self, term: Term) -> bool:
        self._ensure()
        return super().__contains__(term)

    def __iter__(self) -> Iterator[Term]:
        self._ensure()
        return super().__iter__()

    def encode(self, term: Term) -> int:
        self._ensure()
        return super().encode(term)

    def id_of(self, term: Term) -> int | None:
        self._ensure()
        return super().id_of(term)

    def require_id(self, term: Term) -> int:
        self._ensure()
        return super().require_id(term)

    def decode(self, term_id: int) -> Term:
        self._ensure()
        return super().decode(term_id)

    def ids_of_kind(self, kind: str) -> list[int]:
        self._ensure()
        return super().ids_of_kind(kind)
