"""TriniT — exploratory querying of extended knowledge graphs.

A faithful reproduction of *"Exploratory Querying of Extended Knowledge
Graphs"* (Yahya, Berberich, Ramanath, Weikum — PVLDB 9(13), 2016) and the
system machinery it demonstrates: extended knowledge graphs that combine a
curated KG with Open IE token triples, an extended triple-pattern query
language, weighted query relaxation, query-likelihood answer scoring, and
adaptive top-k query processing with incremental merging — plus answer
explanation and query suggestion.

Quickstart::

    from repro import TriniT

    engine = TriniT.from_triples(kg_triples, extension_triples)
    answers = engine.ask("SELECT ?x WHERE AlbertEinstein affiliation ?x")
    print(answers.render_table())

Session lifecycle, streaming and batch querying::

    with TriniT.open("xkg.snapd") as engine:
        stream = engine.stream("?x 'works at' ?y")
        first = stream.next_k(10)     # anytime: resumes, never recomputes
        more = stream.next_k(10)
        results = engine.ask_many(["?x bornIn ?y", "?x type city"], k=5)
"""

from repro.core import (
    Answer,
    AnswerSet,
    AnswerStream,
    EngineConfig,
    QueryStats,
    Explanation,
    Literal,
    Provenance,
    Query,
    QuerySuggester,
    Resource,
    Suggestion,
    Term,
    TextToken,
    TriniT,
    Triple,
    TriplePattern,
    Variable,
    parse_pattern,
    parse_query,
    parse_rule,
    term_from_text,
)
from repro.errors import TrinitError
from repro.relax import RelaxationRule, RuleSet
from repro.storage import (
    TripleStore,
    load_snapshot,
    load_store,
    save_snapshot,
    save_store,
)
from repro.topk import ProcessorConfig, TopKDriver, TopKProcessor

__version__ = "1.0.0"

__all__ = [
    "TriniT",
    "EngineConfig",
    "ProcessorConfig",
    "TopKDriver",
    "TopKProcessor",
    "TripleStore",
    "save_store",
    "load_store",
    "save_snapshot",
    "load_snapshot",
    "Term",
    "Resource",
    "Literal",
    "TextToken",
    "Variable",
    "term_from_text",
    "Triple",
    "TriplePattern",
    "Provenance",
    "Query",
    "parse_query",
    "parse_pattern",
    "parse_rule",
    "Answer",
    "AnswerSet",
    "AnswerStream",
    "QueryStats",
    "Explanation",
    "Suggestion",
    "QuerySuggester",
    "RelaxationRule",
    "RuleSet",
    "TrinitError",
    "__version__",
]
