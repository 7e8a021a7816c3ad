"""Text renderings of the demo's two screens (Figures 5 and 6).

:class:`DemoSession` wraps an engine and produces deterministic plain-text
"screenshots": the query screen shows the triple-pattern form, the user's
relaxation rules and the ranked answers (Figure 5); the explanation screen
shows one answer's provenance (Figure 6).  The CLI and the fig5/fig6 benches
render through this module, so the paper's screens are regenerable
artifacts.
"""

from __future__ import annotations

import textwrap

from repro.core.engine import TriniT
from repro.core.parser import parse_pattern
from repro.core.query import Query
from repro.core.results import Answer, AnswerSet, AnswerStream
from repro.core.terms import Variable
from repro.core.triples import Triple
from repro.errors import TrinitError

_WIDTH = 74


def _box(title: str, body_lines: list[str]) -> str:
    top = f"+-- {title} " + "-" * max(0, _WIDTH - len(title) - 6) + "+"
    bottom = "+" + "-" * (_WIDTH - 2) + "+"
    inner = _WIDTH - 4
    framed = [top]
    for line in body_lines:
        # Word-wrap long lines (continuations indented) rather than
        # truncating: explanations must stay readable in full.
        wrapped = textwrap.wrap(
            line,
            width=inner,
            subsequent_indent="    ",
            drop_whitespace=False,
            break_long_words=False,
        ) or [""]
        for chunk in wrapped:
            framed.append(f"| {chunk[:inner].ljust(inner)} |")
    framed.append(bottom)
    return "\n".join(framed)


class DemoSession:
    """One interactive TriniT session with rendered screens.

    Queries run through the engine's streaming API: the session keeps the
    suspended :class:`AnswerStream` of the last query, so ``:more`` (the
    :meth:`more` action) fetches the next batch by *resuming* the top-k
    computation instead of re-running it with a larger k.
    """

    def __init__(self, engine: TriniT, k: int = 10):
        self.engine = engine
        self.k = k
        self.user_rules: list[str] = []
        self.last_answers: AnswerSet | None = None
        self._stream: AnswerStream | None = None

    # -- user actions ------------------------------------------------------------

    def add_user_rule(self, rule_text: str) -> str:
        """Register an interactively supplied relaxation rule."""
        rule = self.engine.add_rule(rule_text)
        self.user_rules.append(rule.n3())
        return rule.n3()

    def ingest(self, statement: str, confidence: float = 1.0) -> str:
        """Absorb one ground statement live (``:ingest <s> <p> <o> [conf]``).

        The statement uses the query syntax for its terms (resources or
        quoted text phrases, no variables) and lands in the engine's
        mutable delta segment — the very next query sees it, and the
        engine compacts in the background once its threshold is crossed.
        """
        pattern = parse_pattern(statement)
        terms = (pattern.s, pattern.p, pattern.o)
        if any(isinstance(term, Variable) for term in terms):
            raise TrinitError(
                "Ingest needs a ground statement — variables cannot be stored"
            )
        self.engine.ingest(
            [Triple(*terms)], confidence=confidence
        )
        rendered = " ".join(term.n3() for term in terms)
        return (
            f"ingested {rendered} (confidence {confidence:g}; delta "
            f"{self.engine.store.delta_size} statements, generation "
            f"{self.engine.generation})"
        )

    def run(self, query_text: str, k: int | None = None) -> AnswerSet:
        """Run a query, keeping its stream open for :meth:`more`."""
        k = k if k is not None else self.k
        self._stream = self.engine.stream(query_text)
        self._stream.next_k(k)
        self.last_answers = self._stream.collected()
        return self.last_answers

    def more(self, n: int | None = None) -> list[Answer]:
        """The next batch of answers for the last query (``:more``).

        Resumes the suspended stream; returns the new answers only (empty
        once the query is exhausted).  ``last_answers`` grows to the full
        collected set, so ``:explain <rank>`` reaches the new answers too.
        """
        if self._stream is None:
            raise TrinitError("No query to continue — run one first")
        batch = self._stream.next_k(n if n is not None else self.k)
        self.last_answers = self._stream.collected()
        return batch

    # -- screens ------------------------------------------------------------

    def render_query_screen(self, query_text: str, k: int | None = None) -> str:
        """The Figure 5 analogue: query form, user rules, ranked answers."""
        k = k if k is not None else self.k
        query = self.engine.parse(query_text)
        answers = self.run(query_text, k)
        body: list[str] = ["TriniT - Exploratory Querying of Extended Knowledge Graphs", ""]
        body.append("Triple patterns:")
        for index, pattern in enumerate(query.patterns, start=1):
            body.append(f"  [{index}]  S: {pattern.s.n3():<24} "
                        f"P: {pattern.p.n3():<20} O: {pattern.o.n3()}")
        body.append(f"Results requested: {k}")
        body.append("")
        body.append("User relaxation rules:")
        if self.user_rules:
            for rule in self.user_rules:
                body.append(f"  - {rule}")
        else:
            body.append("  (none - automatic relaxation only)")
        body.append("")
        body.append("Answers:")
        if answers.is_empty:
            body.append("  (no answers)")
        else:
            for rank, answer in enumerate(answers, start=1):
                binding = ", ".join(
                    f"{var.n3()}={term.n3()}" for var, term in answer.binding
                )
                marker = "*" if answer.derivation.uses_relaxation else " "
                body.append(f"  {rank:>2}.{marker} {binding}  [{answer.score:.4f}]")
            body.append("")
            body.append("  (* = obtained through relaxation; select an answer")
            body.append("   and press 'e' for its explanation)")
            if self._stream is not None and not self._stream.exhausted:
                body.append("  (:more fetches the next answers without recomputing)")
        return _box("Query Interface", body)

    def render_more_screen(self, n: int | None = None) -> str:
        """The ``:more`` screen: the next batch, ranks continuing."""
        batch = self.more(n)
        body: list[str] = []
        if not batch:
            body.append("(no more answers - query exhausted)")
        else:
            first_rank = len(self.last_answers) - len(batch) + 1
            body.append(f"Answers {first_rank}..{len(self.last_answers)}:")
            for offset, answer in enumerate(batch):
                binding = ", ".join(
                    f"{var.n3()}={term.n3()}" for var, term in answer.binding
                )
                marker = "*" if answer.derivation.uses_relaxation else " "
                body.append(
                    f"  {first_rank + offset:>2}.{marker} {binding}"
                    f"  [{answer.score:.4f}]"
                )
            stats = self._stream.last_stats
            body.append("")
            body.append(
                f"  (resumed: {stats.sorted_accesses} sorted accesses, "
                f"{stats.candidates_formed} candidates for this batch)"
            )
        return _box("More Answers", body)

    def render_stats_screen(self) -> str:
        """The ``:stats`` screen: work counters of the last query's stream.

        Shows the cumulative :class:`~repro.core.results.QueryStats` over
        every batch of the suspended stream — including the storage
        counters (segments read from, posting heads the batched pulls
        actually materialised) that make the storage layer's laziness
        observable from the shell.
        """
        if self._stream is None:
            raise TrinitError("No query statistics yet — run a query first")
        stats = self._stream.stats
        backend = self.engine.store.backend
        body = [
            f"Query: {self._stream.query.n3()}",
            "",
            f"  answers emitted        {stats.answers_emitted}",
            f"  stream resumes         {stats.resumes}",
            f"  rewritings             {stats.rewritings_processed} processed"
            f" / {stats.rewritings_enumerated} enumerated",
            f"  relaxations            {stats.relaxations_invoked} invoked"
            f" / {stats.relaxations_considered} considered",
            f"  cursors opened         {stats.cursors_opened}",
            f"  sorted accesses        {stats.sorted_accesses}",
            f"  random accesses        {stats.random_accesses}",
            f"  candidates formed      {stats.candidates_formed}",
            "",
            f"  storage segments       {backend.segment_count()}"
            f" ({self.engine.store.backend_name} backend)",
            f"  segments touched       {stats.segments_touched}",
            f"  postings materialized  {stats.postings_materialized}",
            f"  posting pulls          {stats.posting_pulls}",
            f"  delta hits             {stats.delta_hits}",
            f"  blocks decoded         {stats.blocks_decoded}",
            "",
            f"  live delta             {self.engine.store.delta_size}"
            f" statements (generation {self.engine.generation})",
            f"  snapshot identity      {self.engine.snapshot_identity()}",
            "",
            f"  elapsed                {stats.elapsed_seconds * 1000:.1f} ms",
        ]
        return _box("Query Statistics", body)

    def render_explanation_screen(self, answer: Answer, query: Query | None = None) -> str:
        """The Figure 6 analogue: one answer's provenance."""
        explanation = self.engine.explain(answer, query)
        return _box("Answer Explanation", explanation.render().splitlines())

    def render_suggestion_screen(self, query_text: str) -> str:
        """Query suggestions for the last/given query."""
        query = self.engine.parse(query_text)
        suggestions = self.engine.suggest(query, self.last_answers)
        body = [f"Suggestions for: {query.n3()}", ""]
        if not suggestions:
            body.append("(no suggestions)")
        for suggestion in suggestions:
            body.append(f"[{suggestion.kind}] ({suggestion.score:.2f})")
            body.append(f"  {suggestion.text}")
        return _box("Query Suggestions", body)
