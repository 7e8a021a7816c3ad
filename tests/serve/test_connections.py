"""Connection threads: request-parser bounds, budgets and shutdown.

Each connection is served start to finish by its own thread, so the
bounds an event loop used to give for free are explicit here: a silent
connection is closed after ``keepalive_idle``, the number of connection
threads is capped, and ``close()`` leaves no service thread behind.
"""

from __future__ import annotations

import select
import socket
import threading
import time

import pytest

from repro.serve import QueryService, ServeClient, ServeConfig
from repro.serve import http as serve_http
from repro.serve.client import ServeError

NARROW_QUERY = "?x bornIn ?y"


def read_until_eof(sock: socket.socket) -> bytes:
    raw = b""
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return raw
        raw += chunk


def raw_exchange(service: QueryService, request: bytes) -> bytes:
    with socket.create_connection((service.host, service.port), timeout=10) as sock:
        sock.sendall(request)
        return read_until_eof(sock)


def post_query(service: QueryService, body: bytes) -> bytes:
    return raw_exchange(
        service,
        b"POST /query HTTP/1.1\r\nConnection: close\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
        + body,
    )


def serve_threads() -> list[threading.Thread]:
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith("trinit-serve")
    ]


class TestRequestParser:
    def test_negative_content_length_is_400(self, service):
        raw = raw_exchange(
            service,
            b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400 "), raw[:80]
        assert b"Content-Length" in raw


class TestQueryK:
    @pytest.mark.parametrize("k", [b"1e400", b"true", b"2.5", b'"3"'])
    def test_k_must_be_a_json_integer(self, service, k):
        raw = post_query(service, b'{"query": "?x bornIn ?y", "k": ' + k + b"}")
        assert raw.startswith(b"HTTP/1.1 400 "), raw[:120]
        assert b"k must be an integer" in raw

    def test_integer_k_is_served(self, service):
        raw = post_query(service, b'{"query": "?x bornIn ?y", "k": 3}')
        assert raw.startswith(b"HTTP/1.1 200 "), raw[:120]


class TestBudgets:
    def test_sse_batch_past_the_budget_ends_in_a_timeout_event(self, engine):
        direct_stream = engine.stream

        def slow_stream(query):
            stream = direct_stream(query)
            next_k = stream.next_k

            def slow_next_k(n):
                time.sleep(0.3)
                return next_k(n)

            stream.next_k = slow_next_k
            return stream

        engine.stream = slow_stream
        config = ServeConfig(port=0, request_timeout=0.2)
        with QueryService(engine, config) as service:
            with ServeClient(service.host, service.port) as client:
                batch = client.stream(NARROW_QUERY, n=3)
                # The rank that overran is written; then the batch stops.
                assert [a["rank"] for a in batch.answers] == [1]
                assert batch.end is None
                assert batch.error["reason"] == "timeout"
                admission = client.metrics()["admission"]
                assert admission["orphaned"] == 1
                assert admission["executing"] == 0

    def test_silent_connection_is_closed_after_keepalive_idle(self, engine):
        config = ServeConfig(port=0, keepalive_idle=0.3)
        with QueryService(engine, config) as service:
            with socket.create_connection(
                (service.host, service.port), timeout=10
            ) as sock:
                started = time.monotonic()
                assert read_until_eof(sock) == b""  # closed, nothing sent
                assert time.monotonic() - started < 5.0

    def test_dripped_request_head_is_cut_at_keepalive_idle(self, engine):
        # A header byte every keepalive_idle / 2 keeps each receive inside
        # the idle timeout; the head as a whole gets keepalive_idle.
        config = ServeConfig(port=0, keepalive_idle=0.4)
        with QueryService(engine, config) as service:
            with socket.create_connection(
                (service.host, service.port), timeout=10
            ) as sock:
                started = time.monotonic()
                sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Drip: ")
                raw = None
                while raw is None and time.monotonic() - started < 4.0:
                    try:
                        if select.select([sock], [], [], 0.2)[0]:
                            raw = read_until_eof(sock)
                        else:
                            sock.sendall(b"x")
                    except ConnectionError:  # closed under the next drip
                        raw = b""
                elapsed = time.monotonic() - started
            assert raw is not None, "the dripping client kept its connection"
            assert elapsed < 2.0
            assert raw == b"" or raw.startswith(b"HTTP/1.1 408 "), raw[:80]
            with ServeClient(service.host, service.port) as client:
                assert client.metrics()["requests"].get("bad:408") == 1

    def test_dripped_request_body_is_cut_at_keepalive_idle(self, engine):
        # The body shares the head's deadline: a body byte every
        # keepalive_idle / 2 cannot hold the connection thread past it.
        body = b'{"query": "?x bornIn ?y", "k": 3, "explain": false}\n'
        config = ServeConfig(port=0, keepalive_idle=0.4)
        with QueryService(engine, config) as service:
            with socket.create_connection(
                (service.host, service.port), timeout=10
            ) as sock:
                started = time.monotonic()
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nContent-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
                )
                raw, dripped = None, 0
                while raw is None and time.monotonic() - started < 4.0:
                    try:
                        if select.select([sock], [], [], 0.2)[0]:
                            raw = read_until_eof(sock)
                        elif dripped < len(body):
                            sock.sendall(body[dripped : dripped + 1])
                            dripped += 1
                    except ConnectionError:  # closed under the next drip
                        raw = b""
                elapsed = time.monotonic() - started
            assert raw is not None, "the dripping client kept its connection"
            assert elapsed < 2.0
            assert raw == b"" or raw.startswith(b"HTTP/1.1 408 "), raw[:80]
            with ServeClient(service.host, service.port) as client:
                assert client.metrics()["requests"].get("bad:408") == 1

    def test_request_head_in_a_few_writes_is_served(self, engine):
        config = ServeConfig(port=0, keepalive_idle=1.0)
        with QueryService(engine, config) as service:
            with socket.create_connection(
                (service.host, service.port), timeout=10
            ) as sock:
                for piece in (
                    b"GET /heal",
                    b"thz HTTP/1.1\r\nHost: test\r\n",
                    b"Connection: close\r\n",
                    b"\r\n",
                ):
                    sock.sendall(piece)
                    time.sleep(0.1)
                raw = read_until_eof(sock)
            assert raw.startswith(b"HTTP/1.1 200 "), raw[:80]

    def test_request_body_in_a_later_write_is_served(self, engine):
        # A body that follows its head within the deadline is served, and
        # the next request on the connection waits keepalive_idle again,
        # not the 0.6 s that were left of the deadline at the last receive.
        body = b'{"query": "?x bornIn ?y", "k": 3}'
        config = ServeConfig(port=0, keepalive_idle=1.0)
        with QueryService(engine, config) as service:
            with socket.create_connection(
                (service.host, service.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nContent-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
                )
                for piece in (body[:9], body[9:]):
                    time.sleep(0.4)
                    sock.sendall(piece)
                raw = b""
                while b"\r\n\r\n" not in raw:
                    raw += sock.recv(4096)
                head, _sep, rest = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 "), head[:80]
                length = int(head.lower().partition(b"content-length:")[2].split()[0])
                while len(rest) < length:
                    rest += sock.recv(4096)
                time.sleep(0.8)
                sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                raw = read_until_eof(sock)
            assert raw.startswith(b"HTTP/1.1 200 "), raw[:80]

    def test_connections_past_the_cap_get_503(self, engine, monkeypatch):
        monkeypatch.setattr(serve_http, "MAX_CONNECTIONS", 2)
        config = ServeConfig(port=0, keepalive_idle=60.0)
        with QueryService(engine, config) as service:
            address = (service.host, service.port)
            held = [socket.create_connection(address, timeout=10) for _ in range(2)]
            try:
                with socket.create_connection(address, timeout=10) as third:
                    raw = read_until_eof(third)
                assert raw.startswith(b"HTTP/1.1 503 "), raw[:80]
            finally:
                for sock in held:
                    sock.close()
            # Once the held connections are gone, new ones are served.
            deadline = time.monotonic() + 10.0
            while True:
                with ServeClient(service.host, service.port) as client:
                    try:
                        document = client.metrics()
                        break
                    except (ServeError, ConnectionError):  # still refused
                        if time.monotonic() > deadline:
                            raise
                time.sleep(0.02)
            # The third connection, plus any retry refused above.
            assert document["requests"]["unknown:503"] >= 1


class TestSessions:
    def test_idle_session_expires_after_session_ttl(self, engine):
        config = ServeConfig(port=0, session_ttl=0.2)
        with QueryService(engine, config) as service, ServeClient(
            service.host, service.port
        ) as client:
            batch = client.stream(NARROW_QUERY, n=2)
            time.sleep(0.4)
            with pytest.raises(ServeError) as info:
                client.resume(batch.session, n=2)
            assert info.value.status == 404
            assert client.metrics()["sessions"]["evicted"] == 1


class TestConnectionThreads:
    def test_a_freed_connection_thread_serves_the_next_connection(self, service):
        with ServeClient(service.host, service.port) as client:
            for _ in range(3):  # each SSE response closes its connection
                client.stream(NARROW_QUERY, n=1)
                deadline = time.monotonic() + 10.0
                while service._idle == 0:  # the thread is back in the pool
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
        assert len(service._workers) == 1


class TestShutdown:
    def test_close_leaves_no_service_thread(self, engine):
        service = QueryService(engine, ServeConfig(port=0)).start()
        parked = ServeClient(service.host, service.port)
        try:
            parked.healthz()  # a kept-alive connection, idle at close
            with ServeClient(service.host, service.port) as client:
                batch = client.stream(NARROW_QUERY, n=2)
                client.resume(batch.session, n=2)
                client.query(NARROW_QUERY, k=3)
            assert serve_threads()
            service.close()
            assert serve_threads() == []
        finally:
            parked.close()
