"""Fixtures for the query-service suite.

Every service test runs against a real engine over a **directory
snapshot** (the layout ``python -m repro.serve`` is deployed on).  Rule
mining is off: these tests exercise the network surface, not relaxation.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineConfig, TriniT
from repro.core.terms import Resource
from repro.core.triples import Triple
from repro.serve import QueryService, ServeClient, ServeConfig
from repro.storage.snapshot import save_snapshot
from repro.storage.store import TripleStore

NO_MINING = dict(mine_arg_overlap=False, mine_chains=False, mine_inversions=False)

PREDICATES = ["bornIn", "livesIn", "locatedIn", "type"]

#: Deterministic seed world: enough rows that top-k queries paginate.
SEED_ROWS = [
    (
        f"E{i % 13}",
        PREDICATES[i % 4],
        f"E{(i * 7 + 3) % 13}",
        0.05 + (i % 37) / 40,
    )
    for i in range(160)
]


def build_seed_store() -> TripleStore:
    store = TripleStore("serve", backend="sharded")
    for s, p, o, conf in SEED_ROWS:
        store.add(Triple(Resource(s), Resource(p), Resource(o)), confidence=conf)
    return store.freeze()


@pytest.fixture()
def snapshot_dir(tmp_path):
    store = build_seed_store()
    path = tmp_path / "serve.snapd"
    save_snapshot(store, path)
    store.close()
    return path


def open_engine(snapshot_dir, **overrides) -> TriniT:
    config = dict(parallelism=2, **NO_MINING)
    config.update(overrides)
    return TriniT.open(snapshot_dir, config=EngineConfig(**config))


@pytest.fixture()
def engine(snapshot_dir):
    engine = open_engine(snapshot_dir)
    yield engine
    if not engine.closed:
        engine.close()


@pytest.fixture()
def service(engine):
    service = QueryService(engine, ServeConfig(port=0), owns_engine=False)
    service.start()
    yield service
    service.close()


@pytest.fixture()
def client(service):
    return ServeClient(service.host, service.port)
