"""Sampling a Yago-style incomplete KG from the complete world.

Incompleteness has two dimensions, both present in real KGs and both needed
to reproduce the paper's four user scenarios (Figure 2):

* **Vocabulary gaps** — some world relations have *no* KG predicate at all
  (``lecturedAt``, ``housedIn``, ``prizeFor``, ``collaboratedWith``): user
  D's case.  Only the corpus expresses them.
* **Fact gaps** — relations that are in the vocabulary keep only a fraction
  of their world facts (per-relation coverage below).

The mapping also *bakes in the mismatch traps* of Figure 2: people are born
in cities, not countries (user A), and the advisor relation is stored as
``hasStudent`` with advisor as subject (user B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

from repro.core.terms import Literal, Resource
from repro.core.triples import KG_PROVENANCE, Provenance, Triple
from repro.kg.taxonomy import Taxonomy
from repro.kg.world import World, WorldFact
from repro.storage.store import TripleStore
from repro.util.rand import SeededRng


@dataclass(frozen=True)
class RelationMapping:
    """How one world relation appears in the KG.

    ``coverage`` is the fraction of world facts the KG keeps; ``inverted``
    stores the fact with swapped arguments under the KG predicate (the
    hasAdvisor → hasStudent trap).  ``predicate=None`` removes the relation
    from the KG vocabulary entirely.
    """

    predicate: str | None
    coverage: float = 1.0
    inverted: bool = False


#: Default world-relation → KG mapping (the Yago2s analogue).
DEFAULT_MAPPINGS: dict[str, RelationMapping] = {
    "bornInCity": RelationMapping("bornIn", 0.75),
    "bornOnDate": RelationMapping("bornOnDate", 0.80),
    "diedInCity": RelationMapping("diedIn", 0.60),
    "nationality": RelationMapping("citizenOf", 0.50),
    "worksAt": RelationMapping("affiliation", 0.60),
    "educatedAt": RelationMapping("graduatedFrom", 0.60),
    # The KG models advisorship from the advisor's side.
    "hasAdvisor": RelationMapping("hasStudent", 0.70, inverted=True),
    "wonPrize": RelationMapping("wonPrize", 0.70),
    "marriedTo": RelationMapping("marriedTo", 0.50),
    "cityInCountry": RelationMapping("locatedIn", 1.00),
    "orgInCity": RelationMapping("locatedIn", 0.85),
    "memberOfGroup": RelationMapping("member", 1.00),
    "prizeInField": RelationMapping("inField", 0.80),
    "fieldOf": RelationMapping("researchArea", 0.40),
    # Vocabulary gaps: only the corpus knows these.
    "lecturedAt": RelationMapping(None),
    "housedIn": RelationMapping(None),
    "prizeFor": RelationMapping(None),
    "collaboratedWith": RelationMapping(None),
}

TYPE_PREDICATE = "type"
SUBCLASS_PREDICATE = "subclassOf"


@dataclass(frozen=True)
class KgConfig:
    """KG sampling parameters."""

    seed: int = 11
    mappings: dict[str, RelationMapping] = field(
        default_factory=lambda: dict(DEFAULT_MAPPINGS)
    )
    type_coverage: float = 0.95
    kg_name: str = "SyntheticYago"


@dataclass
class GeneratedKg:
    """The sampled KG: triples plus bookkeeping for analysis and eval."""

    config: KgConfig
    triples: list[Triple]
    kept_facts: dict[str, list[WorldFact]]
    dropped_facts: dict[str, list[WorldFact]]
    provenance: Provenance

    def predicate_for(self, relation: str) -> Resource | None:
        """The KG predicate of a world relation, or None if vocabulary-gapped."""
        mapping = self.config.mappings.get(relation)
        if mapping is None or mapping.predicate is None:
            return None
        return Resource(mapping.predicate)

    def coverage_of(self, relation: str) -> float:
        """Realised (not configured) coverage of a relation."""
        kept = len(self.kept_facts.get(relation, ()))
        dropped = len(self.dropped_facts.get(relation, ()))
        total = kept + dropped
        return kept / total if total else 0.0

    def store(self, name: str | None = None, freeze: bool = True) -> TripleStore:
        """Load the KG into a fresh triple store."""
        store = TripleStore(name or self.config.kg_name)
        for triple in self.triples:
            store.add(triple, self.provenance)
        return store.freeze() if freeze else store


class KgGenerator:
    """Generates the KG view of a world."""

    def __init__(self, world: World, config: KgConfig | None = None):
        self.world = world
        self.config = config if config is not None else KgConfig()
        self.taxonomy = Taxonomy()

    def _object_term(self, fact: WorldFact):
        if fact.literal:
            try:
                return Literal(date.fromisoformat(fact.obj))
            except ValueError:
                return Literal(fact.obj)
        return Resource(fact.obj)

    def generate(self) -> GeneratedKg:
        """Sample the KG deterministically from the generator's seed."""
        rng = SeededRng(self.config.seed)
        provenance = Provenance(origin="kg", source=self.config.kg_name)
        triples: list[Triple] = []
        kept: dict[str, list[WorldFact]] = {}
        dropped: dict[str, list[WorldFact]] = {}

        for relation in sorted(self.config.mappings):
            mapping = self.config.mappings[relation]
            facts = self.world.facts_of(relation)
            kept[relation] = []
            dropped[relation] = []
            if mapping.predicate is None:
                dropped[relation] = list(facts)
                continue
            predicate = Resource(mapping.predicate)
            relation_rng = rng.fork(relation)
            for fact in facts:
                if not relation_rng.chance(mapping.coverage):
                    dropped[relation].append(fact)
                    continue
                kept[relation].append(fact)
                obj = self._object_term(fact)
                subject = Resource(fact.subject)
                if mapping.inverted:
                    if fact.literal:
                        raise ValueError(
                            f"Cannot invert literal-valued relation {relation}"
                        )
                    triples.append(Triple(Resource(fact.obj), predicate, subject))
                else:
                    triples.append(Triple(subject, predicate, obj))

        # Type assertions: every entity gets its leaf class (mostly), plus
        # the full subclassOf hierarchy.
        type_predicate = Resource(TYPE_PREDICATE)
        type_rng = rng.fork("types")
        for entity_id in sorted(self.world.entities):
            entity = self.world.entities[entity_id]
            if type_rng.chance(self.config.type_coverage):
                triples.append(
                    Triple(
                        Resource(entity.id),
                        type_predicate,
                        Resource(entity.leaf_class),
                    )
                )
        triples.extend(self.taxonomy.subclass_triples(SUBCLASS_PREDICATE))

        return GeneratedKg(
            config=self.config,
            triples=triples,
            kept_facts=kept,
            dropped_facts=dropped,
            provenance=provenance,
        )
