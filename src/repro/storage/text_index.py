"""Fuzzy matching between query text tokens and stored terms.

A query token like ``'won nobel for'`` should match the stored extraction
phrase ``'won a nobel for'`` even though the normalised surface forms differ
— and a token like ``'born in'`` should match the canonical KG predicate
``bornIn`` through its camel-case surface form.  The :class:`TokenMatcher`
indexes, per SPO slot, every distinct stored token phrase *and* every
resource's surface words by their stemmed content-token *match key*, and
answers: given a query token and a slot, which stored terms does it denote,
and how similar are they?

Similarity grades (all deterministic):

* identical normalised form → 1.0
* identical match key (same content stems) → 0.95
* one key a contiguous subsequence of the other →
  ``0.6 + 0.3 · |shorter| / |longer|``
* matches against a *resource* surface form are further scaled by 0.95 —
  translating free text into the canonical vocabulary is almost, but not
  quite, as reliable as matching the phrase itself.

The similarity multiplies into the answer score exactly like a relaxation
weight — matching a vaguer phrase attenuates the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.terms import Resource, Term, TextToken
from repro.errors import StorageError
from repro.storage.store import TripleStore
from repro.util.lazy import LazilyBuilt
from repro.util.text import camel_to_words, is_subsequence, match_key

#: Slots, mirroring statistics.SUBJECT/PREDICATE/OBJECT.
SUBJECT, PREDICATE, OBJECT = 0, 1, 2

#: Attenuation applied when a token matches a canonical resource rather
#: than a stored phrase.
RESOURCE_MATCH_FACTOR = 0.95


@dataclass(frozen=True)
class TokenMatch:
    """A stored term matching a query token, with its similarity.

    ``token`` is the term to substitute into the pattern: a stored
    :class:`TextToken` phrase or a canonical :class:`Resource`.
    """

    token: Term
    similarity: float

    def sort_key(self):
        return (-self.similarity, self.token.kind, self.token.lexical())


class TokenMatcher(LazilyBuilt):
    """Index of stored phrases and resource surfaces, per slot.

    The index is a grow-only function of the statements in id order, so
    ``previous=`` — a matcher over the same statements minus a suffix
    (the engine's last read view) — lets a built predecessor be extended
    by that suffix instead of sweeping the store again.  An unbuilt
    predecessor is ignored: the successor stays lazy and keeps no
    reference to it.  A built index is never written to again.
    """

    def __init__(
        self,
        store: TripleStore,
        *,
        include_resources: bool = True,
        previous: "TokenMatcher | None" = None,
    ):
        if not store.is_frozen:
            raise StorageError("TokenMatcher requires a frozen store")
        self.store = store
        self.include_resources = include_resources
        if (
            previous is not None
            and previous.include_resources == include_resources
            and previous.is_built
        ):
            self._extend(previous)
            self._init_lazy(built=True)
        else:
            self._init_lazy()

    @staticmethod
    def _surface(term: Term) -> str:
        if isinstance(term, Resource):
            return camel_to_words(term.name)
        return term.lexical()

    def _key_for(self, term: Term, slot: int) -> tuple[str, ...]:
        return match_key(self._surface(term), predicate=(slot == PREDICATE))

    def _build(self) -> None:
        # First use only (LazilyBuilt._ensure), and only for a matcher
        # with no built predecessor: the sweep is "extend an empty index
        # with every statement", so a lazily loaded snapshot store pays
        # for the text index only when a query actually expands tokens.
        self._extend(None)

    def _extend(self, previous: "TokenMatcher | None") -> None:
        """Index the statements ``previous`` does not cover (all, from None).

        Walks the backend's id columns and decodes each distinct per-slot
        term exactly once — no :class:`StoredTriple` records are
        materialised.  Copy-on-write against ``previous``: a slot without
        new terms shares its dicts, a slot with new terms gets shallow
        copies of them, and only the lists / sets the new terms land in
        are copied.  ``_seen`` (term ids indexed so far, per slot) is part
        of the built state, so "the first statement in id order wins a
        norm" holds across extensions exactly as within one sweep.
        """
        store = self.store
        covered = len(store)
        if previous is None:
            # slot -> exact norm -> term (the term that normalises to it)
            by_norm: list[dict[str, Term]] = [{}, {}, {}]
            # slot -> match key -> list of terms
            by_key: list[dict[tuple[str, ...], list[Term]]] = [{}, {}, {}]
            # slot -> single stem -> set of match keys containing it
            by_stem: list[dict[str, set[tuple[str, ...]]]] = [{}, {}, {}]
            seen: list[set[int]] = [set(), set(), set()]
            start = 0
        else:
            by_norm = list(previous._by_norm)
            by_key = list(previous._by_key)
            by_stem = list(previous._by_stem)
            seen = previous._seen
            start = previous._covered
            if start < covered:
                seen = [set(ids) for ids in seen]
        decode = store.dictionary.decode
        slot_ids = store.backend.slot_ids
        # slot -> the new (term, norm, match key) entries, in id order
        arrived: list[list[tuple[Term, str, tuple[str, ...]]]] = [[], [], []]
        for tid in range(start, covered):
            for slot, term_id in enumerate(slot_ids(tid)):
                if term_id in seen[slot]:
                    continue
                seen[slot].add(term_id)
                term = decode(term_id)
                if isinstance(term, TextToken):
                    norm = term.norm
                elif self.include_resources and isinstance(term, Resource):
                    norm = " ".join(self._surface(term).lower().split())
                else:
                    continue
                arrived[slot].append((term, norm, self._key_for(term, slot)))
        for slot, entries in enumerate(arrived):
            if not entries:
                continue
            norms = by_norm[slot] = dict(by_norm[slot])
            keys = by_key[slot] = dict(by_key[slot])
            stems = by_stem[slot] = dict(by_stem[slot])
            touched = {key for _term, _norm, key in entries if key}
            new_keys = [key for key in touched if key not in keys]
            for stem_token in {stem for key in new_keys for stem in key}:
                stems[stem_token] = set(stems.get(stem_token, ()))
            for key in new_keys:
                for stem_token in key:
                    stems[stem_token].add(key)
            for key in touched:
                keys[key] = list(keys.get(key, ()))
            for term, norm, key in entries:
                norms.setdefault(norm, term)
                if key:
                    keys[key].append(term)
            # Deterministic candidate order within identical keys: phrases
            # before resources, then lexical.
            for key in touched:
                keys[key].sort(key=lambda t: (t.kind != "token", t.lexical()))
        self._by_norm = by_norm
        self._by_key = by_key
        self._by_stem = by_stem
        self._seen = seen
        self._covered = covered

    def phrases_in_slot(self, slot: int) -> list[TextToken]:
        """All distinct stored token phrases for a slot, lexically ordered."""
        self._ensure()
        phrases = [
            term
            for term in self._by_norm[slot].values()
            if isinstance(term, TextToken)
        ]
        return sorted(phrases, key=lambda t: t.norm)

    def _factor(self, term: Term) -> float:
        return RESOURCE_MATCH_FACTOR if isinstance(term, Resource) else 1.0

    def matches(self, query_token: TextToken, slot: int) -> list[TokenMatch]:
        """Stored terms matching ``query_token`` in ``slot``, best first."""
        if slot not in (SUBJECT, PREDICATE, OBJECT):
            raise StorageError(f"Slot must be 0, 1 or 2, got {slot}")
        self._ensure()
        results: dict[Term, TokenMatch] = {}

        def offer(term: Term, similarity: float) -> None:
            similarity *= self._factor(term)
            existing = results.get(term)
            if existing is None or existing.similarity < similarity:
                results[term] = TokenMatch(term, similarity)

        exact = self._by_norm[slot].get(query_token.norm)
        if exact is not None:
            offer(exact, 1.0)

        query_key = self._key_for(query_token, slot)
        if query_key:
            for term in self._by_key[slot].get(query_key, ()):
                offer(term, 0.95)
            # Candidate keys sharing at least one stem; verified by a
            # contiguous-subsequence check in either direction.
            candidate_keys: set[tuple[str, ...]] = set()
            for stem_token in set(query_key):
                candidate_keys |= self._by_stem[slot].get(stem_token, set())
            for key in candidate_keys:
                if key == query_key:
                    continue
                short, long_ = sorted((query_key, key), key=len)
                if not is_subsequence(short, long_):
                    continue
                similarity = 0.6 + 0.3 * len(short) / len(long_)
                for term in self._by_key[slot][key]:
                    offer(term, similarity)

        return sorted(results.values(), key=TokenMatch.sort_key)
