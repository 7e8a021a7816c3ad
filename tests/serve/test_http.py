"""Integration tests: the HTTP/SSE surface against a real engine.

The acceptance spine of the serve subsystem: concurrent HTTP clients get
SSE-streamed answers byte-identical to direct ``engine.ask`` prefixes, a
repeated query is a cache hit (observable via ``/metrics``), live ingest
changes the snapshot identity so nothing stale is ever served, and
overload beyond the admission bound sheds 429/503 without deadlocking
the engine pool.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import QueryService, ServeClient, ServeConfig
from repro.serve.client import ServeError
from repro.serve.http import serialize_answer

from conftest import open_engine

#: A query with enough answers to paginate several SSE batches.
WIDE_QUERY = "?x ?p ?y"
NARROW_QUERY = "?x bornIn ?y"


def reference_answers(snapshot_dir, query: str, k: int) -> list[dict]:
    """Direct ``engine.ask`` prefix, serialized exactly like the wire."""
    with open_engine(snapshot_dir) as engine:
        return [
            serialize_answer(answer, rank)
            for rank, answer in enumerate(engine.ask(query, k=k), start=1)
        ]


class TestHealthz:
    def test_names_the_exact_data_served(self, client, service, snapshot_dir):
        health = client.healthz()
        assert health["status"] == "ok"
        assert str(snapshot_dir) in health["snapshot"]
        assert "@gen0+delta0" in health["snapshot"]
        assert health["generation"] == 0
        assert health["delta"] == {"size": 0, "version": 0}
        assert health["backend"] == "sharded"
        assert health["executor_kind"] == service.engine.executor_kind
        assert health["triples"] > 0


class TestQueryRoute:
    def test_answers_byte_identical_to_direct_ask(self, client, snapshot_dir):
        for query, k in ((NARROW_QUERY, 5), (WIDE_QUERY, 12)):
            payload = client.query(query, k=k)
            assert payload["answers"] == reference_answers(snapshot_dir, query, k)
            assert payload["cached"] is False
            assert payload["k"] == k

    def test_repeat_is_a_cache_hit_observable_in_metrics(self, client):
        before = client.metrics()["cache"]
        first = client.query(NARROW_QUERY, k=5)
        second = client.query(NARROW_QUERY, k=5)
        after = client.metrics()["cache"]
        assert first["cached"] is False
        assert second["cached"] is True
        assert after["hits"] == before["hits"] + 1
        assert second["answers"] == first["answers"]
        assert second["stats"] == first["stats"]  # served, not recomputed

    def test_normalized_query_variants_share_an_entry(self, client):
        client.query("?x bornIn ?y", k=5)
        variant = client.query("SELECT ?x ?y WHERE ?x   bornIn   ?y", k=5)
        assert variant["cached"] is True

    def test_different_k_is_a_different_entry(self, client):
        client.query(NARROW_QUERY, k=5)
        other = client.query(NARROW_QUERY, k=6)
        assert other["cached"] is False

    def test_query_stats_aggregate_into_metrics(self, client):
        client.query(WIDE_QUERY, k=10)
        document = client.metrics()
        assert document["query_stats"]["sorted_accesses"] > 0
        assert document["query_stats"]["segments_touched"] > 0
        assert document["answers_streamed"] >= 10

    def test_bad_query_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client.query("?x bornIn")  # two terms: not a triple pattern
        assert info.value.status == 400

    def test_missing_body_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client._request("POST", "/query")
        assert info.value.status == 400

    def test_bad_k_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client.query(NARROW_QUERY, k=0)
        assert info.value.status == 400


class TestStreamRoute:
    def test_sse_batches_concatenate_to_direct_ask_prefix(
        self, client, snapshot_dir
    ):
        reference = reference_answers(snapshot_dir, WIDE_QUERY, 30)
        first = client.stream(WIDE_QUERY, n=10)
        assert first.meta["query"].endswith("?x ?p ?y")
        assert first.session
        second = client.resume(first.session, n=10)
        third = client.resume(first.session, n=10)
        got = first.answers + second.answers + third.answers
        assert got == reference[: len(got)]
        assert [a["rank"] for a in got] == list(range(1, len(got) + 1))
        assert second.meta["emitted"] == len(first.answers)

    def test_end_event_reports_exhaustion(self, client):
        batch = client.stream(NARROW_QUERY, n=200)
        assert batch.end is not None
        assert batch.exhausted
        resumed = client.resume(batch.session, n=5)
        assert resumed.answers == []
        assert resumed.exhausted

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServeError) as info:
            client.resume("deadbeefdeadbeef", n=3)
        assert info.value.status == 404

    def test_missing_q_and_session_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client._request("GET", "/stream?n=3")
        assert info.value.status == 400

    def test_sessions_evicted_past_bound(self, engine):
        config = ServeConfig(port=0, max_sessions=2)
        with QueryService(engine, config) as service:
            client = ServeClient(service.host, service.port)
            first = client.stream(WIDE_QUERY, n=2)
            client.stream(NARROW_QUERY, n=2)
            client.stream(WIDE_QUERY, n=2)
            document = client.metrics()
            assert document["admission"]["sessions"] == 2
            assert document["sessions"]["evicted"] == 1
            with pytest.raises(ServeError) as info:
                client.resume(first.session, n=2)  # the LRU victim
            assert info.value.status == 404

    def test_stream_stats_flow_into_metrics(self, client):
        batch = client.stream(WIDE_QUERY, n=8)
        assert batch.end["stats"]["answers_emitted"] == len(batch.answers)
        document = client.metrics()
        assert document["sessions"]["created"] >= 1
        assert document["answers_streamed"] >= len(batch.answers)


class TestIngestRoute:
    def test_ingest_is_visible_to_the_next_query(self, client):
        health = client.healthz()
        result = client.ingest(
            [["Newton", "bornIn", "Woolsthorpe"]], confidence=0.9
        )
        assert result["ingested"] == 1
        assert result["delta_size"] == 1
        assert result["snapshot"] != health["snapshot"]
        payload = client.query("?x bornIn Woolsthorpe", k=3)
        assert payload["cached"] is False
        assert {"?x": "Newton"} in [a["binding"] for a in payload["answers"]]

    def test_ingest_invalidates_by_identity_change(self, client):
        first = client.query(NARROW_QUERY, k=4)
        assert client.query(NARROW_QUERY, k=4)["cached"] is True
        client.ingest([["Leibniz", "bornIn", "Leipzig"]])
        recomputed = client.query(NARROW_QUERY, k=4)
        assert recomputed["cached"] is False
        assert first["snapshot"] != recomputed["snapshot"]

    def test_dict_rows_and_quoted_tokens(self, client):
        result = client.ingest(
            [{"s": "Euler", "p": "'taught at'", "o": "StPetersburg"}],
            confidence=0.7,
        )
        assert result["ingested"] == 1
        payload = client.query("?x 'taught at' StPetersburg", k=3)
        assert {"?x": "Euler"} in [a["binding"] for a in payload["answers"]]

    def test_variable_in_statement_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client.ingest([["?x", "bornIn", "Ulm"]])
        assert info.value.status == 400

    def test_bad_confidence_is_400(self, client):
        with pytest.raises(ServeError) as info:
            client.ingest([["A", "b", "C"]], confidence=7.0)
        assert info.value.status == 400

    def test_compaction_flushes_the_cache_at_the_quiet_point(
        self, snapshot_dir
    ):
        engine = open_engine(snapshot_dir, compaction_threshold=6)
        config = ServeConfig(port=0)
        with QueryService(engine, config, owns_engine=True) as service:
            client = ServeClient(service.host, service.port)
            client.query(NARROW_QUERY, k=4)
            assert client.query(NARROW_QUERY, k=4)["cached"] is True
            rows = [[f"Fresh{i}", "bornIn", f"E{i % 5}"] for i in range(8)]
            client.ingest(rows, confidence=0.5)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                health = client.healthz()
                # The flush listeners run just after the swap publishes
                # the new generation, so poll for the flush itself too —
                # reading metrics in that window is not a failure.
                if (
                    health["generation"] >= 1
                    and health["delta"]["size"] == 0
                    and client.metrics()["cache"]["flushes"] >= 1
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("compaction did not land within the deadline")
            document = client.metrics()
            assert document["cache"]["flushes"] >= 1
            assert "gen1" in client.healthz()["snapshot"]
            # the grown store serves the new data from frozen storage
            payload = client.query("?x bornIn E1", k=20)
            assert {"?x": "Fresh1"} in [a["binding"] for a in payload["answers"]]

    def test_added_rule_flushes_the_cache_and_moves_the_identity(
        self, client, engine
    ):
        query, rule = "?x worksFor ?y", "?x worksFor ?y => ?x bornIn ?y @ 0.8"
        untouched = client.healthz()["snapshot"]
        assert untouched.endswith("@gen0+delta0")  # the pre-existing format
        before = client.query(query, k=5)
        assert before["answers"] == [] and before["cached"] is False
        assert client.query(query, k=5)["cached"] is True
        engine.add_rule(rule)
        after = client.query(query, k=5)
        assert after["cached"] is False
        assert after["answers"] == [
            serialize_answer(answer, rank)
            for rank, answer in enumerate(engine.ask(query, k=5), start=1)
        ]
        assert after["answers"]
        assert after["snapshot"] == untouched + "+rules1"
        assert client.metrics()["cache"]["flushes"] >= 1
        # re-adding the same rule changes nothing a query can see
        engine.add_rule(rule)
        assert client.query(query, k=5)["cached"] is True


class TestAdmissionOverHttp:
    def test_burst_sheds_429_without_deadlocking(self, snapshot_dir):
        engine = open_engine(snapshot_dir)
        direct_ask = engine.ask
        gate = threading.Event()

        def gated_ask(query, k=None):
            gate.wait(10.0)
            return direct_ask(query, k)

        engine.ask = gated_ask
        config = ServeConfig(
            port=0, max_concurrency=1, queue_depth=1,
            request_timeout=10.0, cache_size=0,
        )
        with QueryService(engine, config, owns_engine=True) as service:
            client = ServeClient(service.host, service.port)
            statuses: list[int] = []
            lock = threading.Lock()

            def fire(i: int):
                try:
                    client.query(f"?x bornIn E{i}", k=3)  # no cache overlap
                    with lock:
                        statuses.append(200)
                except ServeError as error:
                    with lock:
                        statuses.append(error.status)

            first = threading.Thread(target=fire, args=(0,))
            first.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if client.metrics()["admission"]["executing"] == 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("first request never reached the engine")
            # Slot held: one of these queues, the other four shed 429.
            rest = [
                threading.Thread(target=fire, args=(i,)) for i in range(1, 6)
            ]
            for thread in rest:
                thread.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with lock:
                    if statuses.count(429) == 4:
                        break
                time.sleep(0.01)
            gate.set()
            for thread in (first, *rest):
                thread.join(timeout=30)
            assert sorted(statuses) == [200, 200, 429, 429, 429, 429]
            assert client.metrics()["admission"]["shed_queue_full"] == 4
            # no deadlock: the slot cycle still answers fresh queries
            engine.ask = direct_ask
            assert client.query(WIDE_QUERY, k=2)["answers"]

    def test_slow_request_times_out_503_and_slot_recovers(self, snapshot_dir):
        engine = open_engine(snapshot_dir)
        direct_ask = engine.ask
        block = threading.Event()

        def stuck_ask(query, k=None):
            block.wait(5.0)
            return direct_ask(query, k)

        engine.ask = stuck_ask
        config = ServeConfig(
            port=0, max_concurrency=1, queue_depth=2, request_timeout=0.3
        )
        with QueryService(engine, config, owns_engine=True) as service:
            client = ServeClient(service.host, service.port)
            with pytest.raises(ServeError) as info:
                client.query(NARROW_QUERY, k=3)
            assert info.value.status == 503
            document = client.metrics()
            assert document["admission"]["shed_timeout"] >= 1
            assert document["admission"]["orphaned"] >= 1
            engine.ask = direct_ask
            block.set()  # let the orphan finish and return its slot
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if client.metrics()["admission"]["executing"] == 0:
                    break
                time.sleep(0.05)
            assert client.query(NARROW_QUERY, k=3)["answers"]


class TestConcurrentClients:
    def test_mixed_traffic_byte_identical_per_client(
        self, service, snapshot_dir
    ):
        """Eight clients interleave /query and /stream; every answer
        matches the direct-ask reference for its query."""
        references = {
            query: reference_answers(snapshot_dir, query, 24)
            for query in (WIDE_QUERY, NARROW_QUERY, "?x locatedIn ?y")
        }
        errors: list[BaseException] = []

        def hammer(worker: int):
            try:
                client = ServeClient(service.host, service.port)
                queries = list(references)
                query = queries[worker % len(queries)]
                expected = references[query]
                payload = client.query(query, k=12)
                assert payload["answers"] == expected[:12]
                batch = client.stream(query, n=6)
                rest = client.resume(batch.session, n=6)
                got = batch.answers + rest.answers
                assert got == expected[: len(got)]
            except BaseException as exc:  # noqa: BLE001 - collected for report
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[:3]


class TestProtocolEdges:
    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as info:
            client._request("GET", "/nope")
        assert info.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as info:
            client._request("GET", "/query")
        assert info.value.status == 405

    def test_bad_json_body_is_400(self, client, service):
        import http.client as http_client

        connection = http_client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/query", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()

    def test_metrics_prometheus_exposition(self, client):
        client.query(NARROW_QUERY, k=3)
        text = client.metrics(format="prometheus")
        assert "# TYPE trinit_requests_total counter" in text
        assert 'trinit_requests_total{route="query",status="200"}' in text
        assert "trinit_cache{" in text
        assert "trinit_admission{" in text


class TestKeepAlive:
    def _get(self, connection, path):
        connection.request("GET", path)
        response = connection.getresponse()
        header = response.getheader("Connection", "")
        response.read()
        return response.status, header.strip().lower()

    def test_connection_reused_across_requests(self, service):
        import http.client as http_client

        connection = http_client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            sock = None
            for _ in range(5):
                status, header = self._get(connection, "/healthz")
                assert status == 200
                assert header == "keep-alive"
                if sock is None:
                    sock = connection.sock
                else:  # same socket the whole way: no reconnects
                    assert connection.sock is sock
        finally:
            connection.close()

    def test_request_budget_closes_connection(self, engine):
        import http.client as http_client

        config = ServeConfig(port=0, keepalive_requests=2)
        with QueryService(engine, config, owns_engine=False) as service:
            connection = http_client.HTTPConnection(
                service.host, service.port, timeout=10
            )
            try:
                _status, header = self._get(connection, "/healthz")
                assert header == "keep-alive"
                _status, header = self._get(connection, "/healthz")
                assert header == "close"  # budget spent — server says so
            finally:
                connection.close()

    def test_idle_timeout_closes_connection(self, engine):
        import http.client as http_client

        config = ServeConfig(port=0, keepalive_idle=0.2)
        with QueryService(engine, config, owns_engine=False) as service:
            connection = http_client.HTTPConnection(
                service.host, service.port, timeout=10
            )
            try:
                _status, header = self._get(connection, "/healthz")
                assert header == "keep-alive"
                time.sleep(0.7)  # past the idle bound: server closed it
                with pytest.raises(
                    (ConnectionError, http_client.HTTPException, OSError)
                ):
                    self._get(connection, "/healthz")
            finally:
                connection.close()

    def test_http10_defaults_to_close(self, service):
        import socket

        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            raw = b""
            while b"\r\n\r\n" not in raw:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
            head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1").lower()
            assert "connection: close" in head

    def test_client_reuses_and_recovers_stale_socket(self, engine):
        config = ServeConfig(port=0, keepalive_idle=0.2)
        with QueryService(engine, config, owns_engine=False) as service:
            with ServeClient(service.host, service.port) as client:
                client.healthz()
                kept = client._connection
                assert kept is not None  # connection parked for reuse
                client.healthz()
                assert client._connection is kept  # and actually reused
                time.sleep(0.7)  # server's idle reaper closes the socket
                health = client.healthz()  # invalidate + retry once
                assert health["status"] == "ok"

    def test_sse_response_drops_the_connection(self, client):
        client.healthz()
        assert client._connection is not None
        batch = client.stream(NARROW_QUERY, n=3)
        assert len(batch.answers) == 3
        # SSE is EOF-framed: the server closed, nothing parked for reuse.
        assert client._connection is None
        resumed = client.resume(batch.session, n=2)
        assert [a["rank"] for a in resumed.answers] == [4, 5]
