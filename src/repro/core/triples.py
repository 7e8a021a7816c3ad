"""Triples, triple patterns, and provenance records.

A :class:`Triple` is an immutable SPO statement over constant terms.  Facts
from the curated KG carry confidence 1.0 and a ``Provenance`` naming the KG;
token triples from Open IE carry the extractor's confidence and the source
document.  A :class:`TriplePattern` is an SPO statement in which any slot may
be a :class:`Variable`; it is the unit the query language, relaxation rules
and index access all operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.terms import Term, TextToken, Variable
from repro.errors import PatternError, TermError

#: Provenance origin for curated-KG facts.
ORIGIN_KG = "kg"
#: Provenance origin for Open IE extractions.
ORIGIN_OPENIE = "openie"


@dataclass(frozen=True, slots=True)
class Provenance:
    """Where a triple came from.

    Attributes
    ----------
    origin:
        ``"kg"`` for curated facts, ``"openie"`` for extractions.
    source:
        Identifier of the concrete source: the KG name, or a document id.
    sentence:
        For extractions, the sentence the triple was extracted from.
    extractor:
        Name of the extraction tool ("reverb"), empty for KG facts.
    """

    origin: str = ORIGIN_KG
    source: str = ""
    sentence: str = ""
    extractor: str = ""

    @property
    def is_kg(self) -> bool:
        return self.origin == ORIGIN_KG

    @property
    def is_extraction(self) -> bool:
        return self.origin == ORIGIN_OPENIE

    def describe(self) -> str:
        """One-line human-readable description used by answer explanations."""
        if self.is_kg:
            return f"curated KG fact ({self.source or 'KG'})"
        where = self.source or "unknown document"
        how = f" by {self.extractor}" if self.extractor else ""
        line = f"extracted{how} from {where}"
        if self.sentence:
            line += f': "{self.sentence}"'
        return line


#: Shared provenance instance for plain KG facts.
KG_PROVENANCE = Provenance(origin=ORIGIN_KG, source="KG")


@dataclass(frozen=True, slots=True)
class Triple:
    """An SPO fact.  All three slots must be constant terms.

    Equality and hashing consider only (s, p, o) — *not* provenance or
    confidence — so the same statement extracted from two documents is one
    distinct triple, as in the paper's "440 million distinct triples".
    The store aggregates observation counts separately.
    """

    s: Term
    p: Term
    o: Term

    def __post_init__(self):
        for slot, term in (("subject", self.s), ("predicate", self.p), ("object", self.o)):
            if not isinstance(term, Term):
                raise TermError(f"Triple {slot} must be a Term, got {type(term).__name__}")
            if term.is_variable:
                raise TermError(f"Triple {slot} may not be a variable: {term}")

    @property
    def is_token_triple(self) -> bool:
        """True when any slot is a free-text token (an XKG extension triple)."""
        return self.s.is_token or self.p.is_token or self.o.is_token

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.s, self.p, self.o)

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()}"

    def __str__(self) -> str:
        return self.n3()

    def sort_key(self):
        return (self.s.sort_key(), self.p.sort_key(), self.o.sort_key())


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """An SPO pattern whose slots are constants or variables.

    At least one slot must be constant *or* the pattern must contain a
    variable — i.e. a pattern of three constants is allowed (an assertion
    check) and a pattern of three variables is allowed only explicitly via
    ``allow_unconstrained`` because it scans the whole store.
    """

    s: Term
    p: Term
    o: Term

    def __post_init__(self):
        for slot, term in (("subject", self.s), ("predicate", self.p), ("object", self.o)):
            if not isinstance(term, Term):
                raise PatternError(
                    f"Pattern {slot} must be a Term, got {type(term).__name__}"
                )

    # -- variable handling ---------------------------------------------------

    def variables(self) -> tuple[Variable, ...]:
        """The distinct variables of the pattern, in S, P, O order."""
        seen: dict[Variable, None] = {}
        for term in (self.s, self.p, self.o):
            if isinstance(term, Variable):
                seen.setdefault(term, None)
        return tuple(seen)

    @property
    def is_fully_bound(self) -> bool:
        return not self.variables()

    @property
    def is_unconstrained(self) -> bool:
        """True when all three slots are variables (a full scan)."""
        return all(t.is_variable for t in (self.s, self.p, self.o))

    @property
    def has_token(self) -> bool:
        """True when any constant slot is a text token."""
        return any(t.is_token for t in (self.s, self.p, self.o))

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.s, self.p, self.o)

    def constants(self) -> tuple[Term, ...]:
        return tuple(t for t in self.terms() if t.is_constant)

    # -- matching / substitution ----------------------------------------------

    def matches(self, triple: Triple) -> bool:
        """Exact match: every constant slot equals the triple's slot.

        Token slots compare by normalised form (TextToken equality); fuzzy
        token matching is the text index's job, not the pattern's.
        """
        return all(
            pat.is_variable or pat == val
            for pat, val in zip(self.terms(), triple.terms())
        )

    def bind(self, triple: Triple) -> dict[Variable, Term] | None:
        """Return the variable binding matching ``triple``, or None.

        A repeated variable must bind consistently: ``?x knows ?x`` only
        matches triples whose subject equals their object.
        """
        binding: dict[Variable, Term] = {}
        for pat, val in zip(self.terms(), triple.terms()):
            if isinstance(pat, Variable):
                bound = binding.get(pat)
                if bound is None:
                    binding[pat] = val
                elif bound != val:
                    return None
            elif pat != val:
                return None
        return binding

    def substitute(self, binding: Mapping[Variable, Term]) -> "TriplePattern":
        """Replace variables present in ``binding``; others stay variables."""

        def sub(term: Term) -> Term:
            if isinstance(term, Variable) and term in binding:
                return binding[term]
            return term

        return TriplePattern(sub(self.s), sub(self.p), sub(self.o))

    def rename_variables(self, mapping: Mapping[str, str]) -> "TriplePattern":
        """Rename variables by name; used when instantiating relaxation rules."""

        def ren(term: Term) -> Term:
            if isinstance(term, Variable) and term.name in mapping:
                return Variable(mapping[term.name])
            return term

        return TriplePattern(ren(self.s), ren(self.p), ren(self.o))

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()}"

    def __str__(self) -> str:
        return self.n3()

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms())

    def signature(self) -> str:
        """Bound-slot signature, e.g. 's_o' for S and O bound: index selection key."""
        parts = [
            name
            for name, term in zip("spo", self.terms())
            if term.is_constant
        ]
        return "_".join(parts) if parts else "scan"
