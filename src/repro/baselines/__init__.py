"""Baseline systems for the evaluation (Section 4's comparison).

The demo paper reports TriniT at NDCG@5 = 0.775 with "the next best
state-of-the-art system" at 0.419; its Related Work names the system
families.  One representative per family is implemented here, all sharing
the :class:`System` protocol used by the evaluation runner:

* :mod:`strict_sparql` — exact triple-pattern evaluation on the curated KG
  (what a SPARQL endpoint gives a user, no relaxation, no XKG);
* :mod:`lm_entity_search` — language-model entity search over virtual entity
  documents built from the annotated corpus (the Balog-style IR family);
* :mod:`slq` — SLQ-style schemaless graph querying: structural matching on
  the KG with string/semantic label transformations but no XKG and no
  structural relaxation;
* :mod:`qars` — QaRS-style relaxation on the KG only: TriniT's relaxation
  machinery without the XKG extension.

:mod:`exhaustive` holds :func:`~repro.baselines.exhaustive.naive_join`, the
backtracking exact-match join the strict and SLQ baselines answer with (and
the top-k equivalence tests check the processor against).
"""

from repro.baselines.base import System
from repro.baselines.strict_sparql import StrictSparqlBaseline
from repro.baselines.lm_entity_search import LmEntitySearchBaseline
from repro.baselines.slq import SlqBaseline
from repro.baselines.qars import QarsBaseline
from repro.baselines.trinit_system import TrinitSystem

__all__ = [
    "System",
    "StrictSparqlBaseline",
    "LmEntitySearchBaseline",
    "SlqBaseline",
    "QarsBaseline",
    "TrinitSystem",
]
