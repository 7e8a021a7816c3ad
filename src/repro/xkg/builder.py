"""Building the extended knowledge graph.

Section 2 of the paper: run Open IE over the corpus, link S/O phrases to KG
entities where NED is confident, keep everything else as text tokens, and
pour curated facts plus extractions into one store.  Every extraction keeps
its provenance (document, sentence, extractor) and confidence; duplicate
statements accumulate observation counts, which become the tf-like evidence
in answer scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.terms import Resource, Term, TextToken
from repro.core.triples import Provenance, Triple
from repro.errors import ExtractionError
from repro.openie.corpus import Document
from repro.openie.ned import EntityLinker
from repro.openie.reverb import Extraction, ReverbExtractor
from repro.storage.store import TripleStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine uses storage)
    from repro.core.engine import TriniT


@dataclass
class XkgBuildReport:
    """What happened during XKG construction (the §5 statistics)."""

    documents: int = 0
    sentences: int = 0
    extractions: int = 0
    extractions_kept: int = 0
    arguments_linked: int = 0
    arguments_unlinked: int = 0
    kg_triples: int = 0
    extension_triples: int = 0
    distinct_triples: int = 0

    @property
    def extension_ratio(self) -> float:
        """Extension : KG distinct-triple ratio (the paper's 390M : 50M)."""
        if not self.kg_triples:
            return 0.0
        return self.extension_triples / self.kg_triples

    def summary(self) -> str:
        return (
            f"{self.distinct_triples} distinct triples: "
            f"{self.kg_triples} curated + {self.extension_triples} extracted "
            f"(ratio 1:{self.extension_ratio:.1f}); "
            f"{self.extractions} raw extractions from {self.documents} documents, "
            f"{self.arguments_linked} arguments entity-linked"
        )


class XkgBuilder:
    """Builds an XKG store from curated triples and a document corpus.

    Parameters
    ----------
    extractor:
        The Open IE engine (default: :class:`ReverbExtractor`).
    linker:
        NED for S/O argument phrases; None keeps all arguments as tokens.
    min_confidence:
        Extractions below this confidence are dropped before storage.
    """

    def __init__(
        self,
        extractor: ReverbExtractor | None = None,
        linker: EntityLinker | None = None,
        min_confidence: float = 0.35,
    ):
        self.extractor = extractor if extractor is not None else ReverbExtractor()
        self.linker = linker
        self.min_confidence = min_confidence

    def _argument_term(self, phrase: str, context: str, report: XkgBuildReport) -> Term:
        """Resolve an argument phrase: linked resource or text token."""
        if self.linker is not None:
            result = self.linker.link(phrase, context)
            if result.linked:
                report.arguments_linked += 1
                return Resource(result.entity_id)
        report.arguments_unlinked += 1
        return TextToken(phrase)

    def _extracted_statements(
        self, document: Document, report: XkgBuildReport
    ) -> Iterable[tuple[Triple, Provenance, float]]:
        """Kept extractions from one document as storable statements."""
        for sentence in document.sentences:
            report.sentences += 1
            try:
                extractions = self.extractor.extract(sentence.text)
            except Exception as exc:  # pragma: no cover - defensive
                raise ExtractionError(
                    f"Extraction failed on {document.doc_id}: {sentence.text!r}"
                ) from exc
            for extraction in extractions:
                report.extractions += 1
                if extraction.confidence < self.min_confidence:
                    continue
                subject = self._argument_term(
                    extraction.subject, sentence.text, report
                )
                obj = self._argument_term(
                    extraction.object, sentence.text, report
                )
                predicate = TextToken(extraction.relation)
                provenance = Provenance(
                    origin="openie",
                    source=document.doc_id,
                    sentence=sentence.text,
                    extractor="reverb",
                )
                report.extractions_kept += 1
                yield Triple(subject, predicate, obj), provenance, extraction.confidence

    def build(
        self,
        kg_triples: Sequence[Triple],
        documents: Iterable[Document],
        store_name: str = "XKG",
        freeze: bool = True,
    ) -> tuple[TripleStore, XkgBuildReport]:
        """Construct the XKG store.  Returns (store, report)."""
        report = XkgBuildReport()
        store = TripleStore(store_name)
        kg_provenance = Provenance(origin="kg", source="KG")
        store.add_all(kg_triples, kg_provenance)
        report.kg_triples = len(store)

        for document in documents:
            report.documents += 1
            for triple, provenance, confidence in self._extracted_statements(
                document, report
            ):
                store.add(triple, provenance, confidence=confidence)

        report.distinct_triples = len(store)
        report.extension_triples = report.distinct_triples - report.kg_triples
        if freeze:
            store.freeze()
        return store, report

    def extend(
        self,
        engine: "TriniT",
        documents: Iterable[Document],
        report: XkgBuildReport | None = None,
    ) -> XkgBuildReport:
        """Stream extractions from *documents* into a live engine.

        The live-ingestion counterpart of :meth:`build`: instead of
        constructing and freezing a store up front, every kept extraction
        is fed through :meth:`TriniT.ingest`, landing in the engine's
        mutable delta segment where the very next query already sees it.
        The engine compacts in the background once its configured
        threshold is crossed, so the corpus can keep flowing while
        queries run.

        Documents are consumed incrementally (one at a time), so the
        iterable may be an unbounded feed.  Pass a *report* to accumulate
        statistics across several calls; ``kg_triples`` is pinned to the
        engine's pre-existing size on a fresh report so the extension
        ratio stays meaningful.
        """
        if report is None:
            report = XkgBuildReport()
            report.kg_triples = len(engine.store)
        before = len(engine.store)
        for document in documents:
            report.documents += 1
            for triple, provenance, confidence in self._extracted_statements(
                document, report
            ):
                engine.ingest([triple], provenance, confidence=confidence)
        report.distinct_triples = len(engine.store)
        report.extension_triples += len(engine.store) - before
        return report


def build_xkg(
    kg_triples: Sequence[Triple],
    documents: Iterable[Document],
    *,
    linker: EntityLinker | None = None,
    min_confidence: float = 0.35,
    store_name: str = "XKG",
) -> tuple[TripleStore, XkgBuildReport]:
    """Convenience wrapper around :class:`XkgBuilder`."""
    builder = XkgBuilder(linker=linker, min_confidence=min_confidence)
    return builder.build(kg_triples, documents, store_name=store_name)
