"""Shutdown-drain and compaction-vs-live-stream regression tests.

The service must drain in-flight requests — and drop suspended SSE
sessions, whose ``AnswerStream``s pin store generations — **before** an
owned engine is closed; and a compaction landing mid-stream must leave
the suspended stream byte-identical (it keeps serving its pinned
pre-compaction generation while new queries see the new one).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import QueryService, ServeClient, ServeConfig
from repro.serve.http import serialize_answer

from conftest import open_engine

WIDE_QUERY = "?x ?p ?y"


def test_compaction_during_active_sse_stream_is_byte_identical(snapshot_dir):
    # Reference BEFORE any ingestion: compaction writes the next
    # generation into the same snapshot root, so a later open would see
    # the post-compaction world.
    with open_engine(snapshot_dir) as reference_engine:
        reference = [
            serialize_answer(answer, rank)
            for rank, answer in enumerate(
                reference_engine.ask(WIDE_QUERY, k=30), start=1
            )
        ]
    assert len(reference) == 30

    engine = open_engine(snapshot_dir, compaction_threshold=6)
    with QueryService(
        engine, ServeConfig(port=0), owns_engine=True
    ) as service, ServeClient(service.host, service.port) as client:
        first = client.stream(WIDE_QUERY, n=10)
        assert "gen0" in first.meta["snapshot"]

        rows = [[f"Live{i}", "livesIn", f"E{i % 7}"] for i in range(8)]
        client.ingest(rows, confidence=0.6)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            health = client.healthz()
            if health["generation"] >= 1 and health["delta"]["size"] == 0:
                break
            time.sleep(0.05)
        else:
            pytest.fail("compaction did not land within the deadline")

        # The suspended session keeps streaming against its pinned
        # pre-compaction generation: ranks continue byte-identically.
        second = client.resume(first.session, n=10)
        third = client.resume(first.session, n=10)
        assert second.meta["snapshot"] == first.meta["snapshot"]
        got = first.answers + second.answers + third.answers
        assert got == reference
        # ...while a fresh query sees the compacted world.
        assert "gen1" in client.query(WIDE_QUERY, k=5)["snapshot"]
    # owns_engine: close() drained, dropped the session pins, closed it.
    assert engine.closed


def test_shutdown_waits_for_inflight_requests(snapshot_dir):
    engine = open_engine(snapshot_dir)
    direct_ask = engine.ask

    def slow_ask(query, k=None):
        time.sleep(0.6)
        return direct_ask(query, k)

    engine.ask = slow_ask
    service = QueryService(
        engine, ServeConfig(port=0, drain_grace=10.0), owns_engine=True
    ).start()
    client = ServeClient(service.host, service.port)
    outcome: dict = {}

    def fire():
        try:
            outcome["payload"] = client.query(WIDE_QUERY, k=3)
        except BaseException as exc:  # noqa: BLE001 - reported below
            outcome["error"] = exc

    with client:
        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.2)  # the request is mid engine work
        service.close()  # must drain it, not yank the engine from under it
        thread.join(timeout=30)
    assert "error" not in outcome, repr(outcome.get("error"))
    assert len(outcome["payload"]["answers"]) == 3
    assert engine.closed
    with pytest.raises(OSError):
        ServeClient(service.host, service.port, timeout=2.0).healthz()


def test_drain_closes_idle_keepalive_connections(snapshot_dir):
    # A kept-alive connection idling between requests is NOT in-flight:
    # shutdown must not wait out its idle window, it closes the socket
    # under the reader so the drain completes immediately.
    engine = open_engine(snapshot_dir)
    service = QueryService(
        engine,
        ServeConfig(port=0, drain_grace=10.0, keepalive_idle=60.0),
        owns_engine=True,
    ).start()
    client = ServeClient(service.host, service.port)
    assert client.healthz()["status"] == "ok"
    assert client._connection is not None  # parked, idle, kept alive
    started = time.monotonic()
    service.close()
    # Neither the 60s idle window nor the 10s grace was waited out.
    assert time.monotonic() - started < 5.0
    assert engine.closed
    with pytest.raises((ConnectionError, OSError)):
        client.healthz()  # retry-once still fails: the server is gone
    client.close()


def test_close_is_idempotent_and_stop_without_start_is_noop(engine):
    service = QueryService(engine, ServeConfig(port=0))
    service.stop()  # never started: no-op
    service.start()
    with ServeClient(service.host, service.port) as client:
        assert client.healthz()["status"] == "ok"
    service.close()
    service.close()
    assert not engine.closed  # owns_engine=False leaves the engine alone
