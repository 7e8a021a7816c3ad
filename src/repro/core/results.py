"""Answers, derivations, and answer sets.

An :class:`Answer` is a binding of the query's projection variables, scored
by the maximum over all of its derivations.  A :class:`Derivation` records
*how* one way of obtaining the answer matched the (possibly rewritten) query:
which stored triples matched which patterns, which query-level rule
applications rewrote the query, which pattern-level rules and token
expansions were used.  Explanations (Section 5) are rendered from this
record, so every answer is explainable without re-running the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.core.query import Query
from repro.core.terms import Term, Variable
from repro.core.triples import TriplePattern
from repro.errors import StorageError, TopKError
from repro.relax.rules import RelaxationRule, RuleApplication
from repro.storage.store import StoredTriple
from repro.storage.text_index import TokenMatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (driver imports us)
    from repro.topk.driver import TopKDriver

#: A hashable binding: ((variable, term), ...) sorted by variable name.
BindingKey = tuple[tuple[Variable, Term], ...]


def binding_key(binding: Mapping[Variable, Term]) -> BindingKey:
    """Canonical hashable form of a variable binding."""
    return tuple(sorted(binding.items(), key=lambda kv: kv[0].name))


@dataclass(frozen=True)
class PatternMatchInfo:
    """How a single evaluated pattern was matched.

    Attributes
    ----------
    pattern:
        The pattern as evaluated against the store (after rewriting, token
        expansion, and pattern-level relaxation).
    records:
        The stored triple(s) that matched — one for a plain pattern, several
        when a pattern-level rule expanded the pattern into a sub-join.
    score:
        The per-pattern score including all multipliers.
    rule:
        Pattern-level relaxation rule used, if any.
    token_matches:
        Token expansions applied (query phrase → stored phrase).
    """

    pattern: TriplePattern
    records: tuple[StoredTriple, ...]
    score: float
    rule: RelaxationRule | None = None
    token_matches: tuple[TokenMatch, ...] = ()


@dataclass(frozen=True)
class Derivation:
    """One complete way an answer was obtained."""

    matches: tuple[PatternMatchInfo, ...]
    rewriting: tuple[RuleApplication, ...] = ()
    rewriting_weight: float = 1.0

    def rules_used(self) -> list[RelaxationRule]:
        """Every distinct rule involved, query-level first."""
        rules: list[RelaxationRule] = []
        for app in self.rewriting:
            if app.rule not in rules:
                rules.append(app.rule)
        for match in self.matches:
            if match.rule is not None and match.rule not in rules:
                rules.append(match.rule)
        return rules

    def triples_used(self) -> list[StoredTriple]:
        """Every stored triple contributing, in pattern order."""
        return [record for match in self.matches for record in match.records]

    def token_matches_used(self) -> list[TokenMatch]:
        return [tm for match in self.matches for tm in match.token_matches]

    @property
    def uses_relaxation(self) -> bool:
        return bool(self.rewriting) or any(m.rule is not None for m in self.matches)

    @property
    def uses_xkg(self) -> bool:
        """True when any contributing triple is an Open IE extension triple."""
        return any(
            record.triple.is_token_triple or
            any(p.is_extraction for p in record.provenances)
            for record in self.triples_used()
        )


@dataclass(frozen=True)
class Answer:
    """A scored projection-variable binding with its best derivation."""

    binding: BindingKey
    score: float
    derivation: Derivation
    num_derivations: int = 1

    def value(self, variable: Variable | str) -> Term:
        """The term bound to ``variable`` (by Variable or bare name)."""
        name = variable.name if isinstance(variable, Variable) else variable
        for var, term in self.binding:
            if var.name == name:
                return term
        raise KeyError(f"No binding for variable ?{name}")

    def as_dict(self) -> dict[Variable, Term]:
        return dict(self.binding)

    def render(self) -> str:
        parts = ", ".join(f"{var.n3()}={term.n3()}" for var, term in self.binding)
        return f"{parts}  (score {self.score:.4f})"


@dataclass
class QueryStats:
    """Work counters filled in by the top-k processor (efficiency bench).

    ``answers_emitted`` and ``resumes`` are the streaming counters: how many
    answers an :class:`AnswerStream` has handed out, and how many times a
    suspended driver was continued.  An eager :meth:`TopKProcessor.query`
    run leaves both at zero.

    ``segments_touched``, ``postings_materialized`` and ``posting_pulls``
    are the segment-parallel counters: how many physical storage segments
    the query's posting cursors fanned out over, how many merged posting
    heads the batched pulls actually materialised, and how many batched
    ``pull`` calls did that materialising (fed from
    ``MergedPostings.materialized``).
    The ratio ``postings_materialized / posting_pulls`` is the observed
    per-query posting-drain depth the adaptive merge batching responds to.

    ``delta_hits`` counts materialised posting heads that came from the
    store's mutable delta segment (live ingestion) rather than a frozen
    segment — the observable share of a query answered by not-yet-
    compacted data.

    ``blocks_decoded`` and ``block_cache_hits`` are the block-kernel
    counters (:mod:`repro.topk.kernels`): how many posting blocks the
    query's cursors decoded and scored in one kernel call each, and how
    many prepared head blocks were served from the engine's hot-block
    cache instead of being re-translated from segment postings.
    """

    sorted_accesses: int = 0
    cursors_opened: int = 0
    relaxations_considered: int = 0
    relaxations_invoked: int = 0
    rewritings_enumerated: int = 0
    rewritings_processed: int = 0
    candidates_formed: int = 0
    elapsed_seconds: float = 0.0
    answers_emitted: int = 0
    resumes: int = 0
    segments_touched: int = 0
    postings_materialized: int = 0
    posting_pulls: int = 0
    delta_hits: int = 0
    blocks_decoded: int = 0
    block_cache_hits: int = 0

    def copy(self) -> "QueryStats":
        return replace(self)

    def merge(self, *others: "QueryStats") -> "QueryStats":
        """Field-wise sum with ``others``, as a new :class:`QueryStats`.

        This is what makes cumulative statistics across ``next_k`` calls
        well-defined: merging every per-call delta reproduces the stream's
        cumulative counters exactly.
        """
        merged = self.copy()
        for other in others:
            for spec in fields(self):
                setattr(
                    merged,
                    spec.name,
                    getattr(merged, spec.name) + getattr(other, spec.name),
                )
        return merged

    def diff(self, before: "QueryStats") -> "QueryStats":
        """Counters accumulated since ``before`` was :meth:`copy`-ed.

        The per-call statistics of a ``next_k`` call are the diff between
        the cumulative stats after and before it; ``before.merge(diff)``
        round-trips back to the cumulative values.
        """
        delta = QueryStats()
        for spec in fields(self):
            setattr(
                delta,
                spec.name,
                getattr(self, spec.name) - getattr(before, spec.name),
            )
        return delta


@dataclass
class AnswerSet:
    """Ranked answers for one query, plus processing statistics."""

    query: Query
    answers: list[Answer] = field(default_factory=list)
    k: int = 10
    stats: QueryStats = field(default_factory=QueryStats)

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[Answer]:
        return iter(self.answers)

    def __getitem__(self, index: int) -> Answer:
        return self.answers[index]

    @property
    def is_empty(self) -> bool:
        return not self.answers

    def top(self) -> Answer | None:
        return self.answers[0] if self.answers else None

    def bindings(self) -> list[dict[Variable, Term]]:
        return [answer.as_dict() for answer in self.answers]

    def terms_for(self, variable: Variable | str) -> list[Term]:
        """The ranked terms bound to one projection variable."""
        return [answer.value(variable) for answer in self.answers]

    def render_table(self) -> str:
        """Plain-text result table (used by the demo interface)."""
        if not self.answers:
            return "(no answers)"
        return _render_answer_table(self.answers)


def _render_answer_table(answers: Sequence[Answer]) -> str:
    headers = [var.n3() for var, _t in answers[0].binding] + ["score"]
    rows = [
        [term.n3() for _v, term in answer.binding] + [f"{answer.score:.4f}"]
        for answer in answers
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


class AnswerStream:
    """Resumable, score-ordered answers for one query.

    Obtained from :meth:`TriniT.stream`; each :meth:`next_k` call *continues*
    the suspended top-k computation — cursors, rank-join state and the
    rewriting frontier all persist between calls, so asking for ten more
    answers costs only the additional work, never a recomputation.

    Emitted answers are final: the driver settles a rank prefix before
    handing it out (every combination that could still tie into it has been
    formed), so the concatenation of all ``next_k`` batches is byte-identical
    to the eager ``ask(k=total)`` answer list — bindings, scores and order.

    Statistics come in two flavours: :attr:`stats` accumulates over the
    stream's whole life, :attr:`last_stats` holds the delta of the most
    recent :meth:`next_k` call (``QueryStats.merge`` over all per-call
    deltas reproduces the cumulative values).
    """

    def __init__(self, driver: "TopKDriver") -> None:
        self._driver = driver
        self._emitted: list[Answer] = []
        self._requested = 0
        self._exhausted = False
        self._last_stats = QueryStats()

    # -- introspection ------------------------------------------------------

    @property
    def query(self) -> Query:
        return self._driver.query

    @property
    def exhausted(self) -> bool:
        """True once the stream can never produce another answer."""
        return self._exhausted

    @property
    def stats(self) -> QueryStats:
        """Cumulative statistics over every ``next_k`` call so far."""
        return self._driver.stats

    @property
    def last_stats(self) -> QueryStats:
        """Per-call statistics of the most recent ``next_k``."""
        return self._last_stats

    def __len__(self) -> int:
        """Number of answers emitted so far."""
        return len(self._emitted)

    # -- pagination ---------------------------------------------------------

    def next_k(self, n: int) -> list[Answer]:
        """The next ``n`` answers in score order (fewer when exhausted).

        Returns ``[]`` once the stream is exhausted.  Raises
        :class:`~repro.errors.StorageError` when the engine's store has been
        closed under the stream.
        """
        if n < 1:
            raise TopKError(f"n must be >= 1, got {n}")
        if self._driver.store.closed:
            raise StorageError("Cannot continue a stream over a closed store")
        if self._exhausted:
            self._last_stats = QueryStats()
            return []
        before = self._driver.stats.copy()
        emitted = len(self._emitted)
        target = emitted + n
        self._requested = max(self._requested, target)
        self._driver.advance(target)
        batch = self._driver.ranked_window(emitted, target)
        self._emitted.extend(batch)
        if len(batch) < n:
            self._exhausted = True
        self._driver.stats.answers_emitted += len(batch)
        self._last_stats = self._driver.stats.diff(before)
        return batch

    def collected(self) -> AnswerSet:
        """Everything emitted so far as an :class:`AnswerSet`.

        ``k`` is the cumulative number of answers requested; ``stats`` are
        a snapshot of the stream's cumulative statistics (later ``next_k``
        calls do not mutate an already-collected set's counters).
        """
        return AnswerSet(
            query=self._driver.query,
            answers=list(self._emitted),
            k=max(self._requested, 1),
            stats=self._driver.stats.copy(),
        )

    def __iter__(self) -> Iterator[Answer]:
        """Iterate answers, fetching lazily; re-iteration replays from rank 1."""
        index = 0
        while True:
            while index >= len(self._emitted):
                if self._exhausted:
                    return
                self.next_k(1)
            yield self._emitted[index]
            index += 1
