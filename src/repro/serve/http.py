"""The query service: stdlib HTTP/1.1 + SSE over one TriniT engine.

:class:`QueryService` maps network clients onto the engine's session
surface.  It is deliberately built on stdlib ``socket`` with hand-rolled
HTTP/1.1 request parsing and Server-Sent-Events framing — the project
has zero runtime dependencies and a query server does not need a
framework: five routes, one content type, HTTP/1.1 keep-alive with a
bounded per-connection request budget and idle timeout (SSE responses
are EOF-framed and always close).

Routes
------
``POST /query``
    Eager top-k: body ``{"query": "...", "k": 10}``; answers as JSON.
    Served from the :class:`~repro.serve.cache.ResultCache` when the
    same normalized query + k was answered against the same snapshot
    identity (``"cached": true`` in the response marks a hit).
``GET /stream?q=...&n=10``
    SSE: a ``meta`` event naming the new session, ``n`` ``answer``
    events in score order, an ``end`` event.  The computation suspends
    between requests — ``GET /stream?session=<id>&n=10`` *resumes* the
    same :class:`~repro.core.results.AnswerStream` (ranks continue, the
    concatenation across requests is byte-identical to one eager ask).
``POST /ingest``
    Live writes: ground statements in the query term syntax; visible to
    the next query, compaction per the engine's threshold.
``GET /healthz``
    Liveness + the exact data being served (snapshot identity,
    generation, delta state).
``GET /metrics``
    Prometheus text exposition; ``?format=json`` for the JSON document.

Thread model: one accept thread, and one thread per connection that does
everything for that connection's requests — it parses each request,
checks the cache, runs the engine call (blocking Python, behind the
:class:`~repro.serve.admission.AdmissionController`, so a burst sheds
429/503 instead of piling work onto the engine) and writes the response
to the socket it owns.  At most :data:`MAX_CONNECTIONS` connections are
served at once.  A connection thread that is done with its connection
waits for the next one, so a new connection — every SSE response closes
its own — starts no thread.  Shutdown **drains**: in-flight requests
(including mid-SSE writes against compaction-pinned store generations)
get a bounded grace period before the engine is closed under them.
"""

from __future__ import annotations

import contextlib
import json
import queue
import secrets
import socket
import threading
import time
from dataclasses import dataclass, field, fields
from http import HTTPStatus
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.engine import TriniT
from repro.core.parser import parse_pattern, parse_query
from repro.core.results import Answer, AnswerStream, QueryStats
from repro.core.terms import Variable
from repro.core.triples import Triple
from repro.errors import StorageError, TrinitError
from repro.serve.admission import AdmissionController, Overloaded, overran
from repro.serve.cache import ResultCache
from repro.serve.metrics import ServerMetrics

#: Request-line / header-block / body size bounds (hand-rolled parser).
MAX_REQUEST_LINE = 16 * 1024
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Connections served at once (one connection thread each); the accept
#: thread answers 503 past it.
MAX_CONNECTIONS = 128

_SSE_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream; charset=utf-8\r\n"
    b"Cache-Control: no-cache\r\n"
    b"Connection: close\r\n\r\n"
)


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs (engine knobs live in ``EngineConfig``).

    Attributes
    ----------
    host, port:
        Bind address; port ``0`` picks an ephemeral port (tests), the
        bound port is readable as :attr:`QueryService.port` after start.
    default_k:
        Answers per ``/query`` and per ``/stream`` batch when the client
        does not say.
    max_concurrency:
        Execution slots — requests running engine work at once, each on
        its own connection thread.
    queue_depth:
        Requests allowed to *wait* for a slot beyond the executing ones;
        arrivals past it are shed with 429.
    request_timeout:
        Per-request budget in seconds covering queue wait + engine work.
        No slot within it → 503.  Engine work that overruns it cannot be
        cancelled: the request keeps its slot and gets its 503 when the
        work returns.  ``None`` disables.
    cache_size, cache_ttl:
        Result-cache LRU bound and entry TTL (``0`` disables the cache,
        ``None`` TTL means age never expires entries).
    session_ttl:
        Idle seconds after which a suspended stream session is evicted
        (it pins a store generation — idle sessions must not pin
        retired generations forever).
    max_sessions:
        Live session bound; creating past it evicts the least recently
        used session.
    drain_grace:
        Shutdown drain bound in seconds: how long ``stop()`` waits for
        in-flight requests to finish before closing anyway.
    keepalive_requests:
        Requests served per connection before the server answers
        ``Connection: close`` (bounds how long one client can hold a
        connection thread); ``1`` disables reuse entirely.
    keepalive_idle:
        Seconds a connection may wait for the first byte of a request —
        its first one's or the next kept-alive one's — before the server
        closes it, and then the budget for the rest of that request:
        request line, headers and body must all arrive within it (past
        it: 408 and close).  Idle connections are not in-flight:
        draining never waits on them.
    """

    host: str = "127.0.0.1"
    port: int = 8399
    default_k: int = 10
    max_concurrency: int = 8
    queue_depth: int = 16
    request_timeout: float | None = 30.0
    cache_size: int = 256
    cache_ttl: float | None = 300.0
    session_ttl: float = 600.0
    max_sessions: int = 256
    drain_grace: float = 5.0
    keepalive_requests: int = 100
    keepalive_idle: float = 5.0


def serialize_answer(answer: Answer, rank: int) -> dict:
    """The wire form of one answer — shared by server, client and bench.

    Everything a client needs to render a result row; the test suite
    compares these dicts between SSE batches and direct ``engine.ask``
    prefixes, so the serialisation itself is part of the byte-identity
    contract (scores ride as full-precision floats through ``json``).
    """
    return {
        "rank": rank,
        "binding": {var.n3(): term.n3() for var, term in answer.binding},
        "score": answer.score,
        "relaxed": answer.derivation.uses_relaxation,
        "derivations": answer.num_derivations,
    }


def _stats_dict(stats: QueryStats) -> dict:
    return {spec.name: getattr(stats, spec.name) for spec in fields(QueryStats)}


class _BadRequest(TrinitError):
    """Malformed HTTP or payload — answered 400."""


class _RequestTimeout(TrinitError):
    """A request begun but not received whole within its deadline —
    answered 408, and the connection closed."""


@dataclass
class _Request:
    method: str
    path: str
    params: dict[str, str]
    headers: dict[str, str]
    body: bytes
    version: str = "HTTP/1.1"
    #: Whether the response may keep the connection open — the handshake
    #: of client wish (``Connection`` header, HTTP version default) and
    #: server policy (per-connection budget, drain state); the SSE
    #: handler forces it off (event streams are terminated by EOF).
    keep_alive: bool = False

    def wants_keepalive(self) -> bool:
        token = self.headers.get("connection", "").strip().lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


class _RequestReader:
    """The head lines and the body of one request, read within one deadline.

    Both are cut from what the socket reader already holds (``peek``);
    only a line or body not all there waits for a receive, and each
    receive waits only for what is left until the deadline, so a client
    dripping a request byte by byte cannot stretch it past that.
    """

    def __init__(self, reader, conn: socket.socket, held: bytes, deadline: float):
        self._reader = reader
        self._conn = conn
        self._deadline = deadline
        self._held = held  # the reader's buffer, as last peeked…
        self._pos = 0  # …and how much of it was returned so far
        self._waited = False  # whether a receive changed the timeout

    def readline(self, limit: int) -> bytes:
        """``reader.readline(limit)`` that gives up at the deadline."""
        line = b""
        while True:
            held, pos = self._held, self._pos
            end = pos + limit - len(line)
            stop = held.find(b"\n", pos, end)
            if stop >= 0 or len(held) >= end:
                self._pos = end = stop + 1 if stop >= 0 else end
                return line + held[pos:end]
            line += held[pos:]
            self._reader.read(len(held))
            self._held, self._pos = self._receive(), 0
            if not self._held:
                return line  # EOF

    def read(self, size: int) -> bytes:
        """``reader.read(size)`` that gives up at the deadline."""
        data = bytearray()
        while True:
            held, pos = self._held, self._pos
            self._pos = end = min(len(held), pos + size - len(data))
            data += held[pos:end]
            if len(data) == size:
                return bytes(data)
            self._reader.read(len(held))
            self._held, self._pos = self._receive(), 0
            if not self._held:
                return bytes(data)  # EOF

    def _receive(self) -> bytes:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise _RequestTimeout
        self._waited = True
        self._conn.settimeout(remaining)
        try:
            return self._reader.peek(1)
        except TimeoutError:
            raise _RequestTimeout from None

    def finish(self, idle: float) -> None:
        """Take what was read off the reader; put back the ``idle``
        timeout the next request's first byte waits under."""
        self._reader.read(self._pos)
        if self._waited:
            self._conn.settimeout(idle)


def _read_request(reader, conn: socket.socket, budget: float) -> _Request | None:
    """Parse one request off a buffered socket reader; ``None`` at EOF.

    The wait for the request's first byte is bounded by the socket's
    timeout; from that byte on, the request line, every header and the
    body must arrive within ``budget`` seconds in total
    (:class:`_RequestTimeout`).
    """
    held = reader.peek(1)
    if not held:
        return None
    head = _RequestReader(reader, conn, held, time.monotonic() + budget)
    line = head.readline(MAX_REQUEST_LINE + 1)
    if not line.endswith(b"\n"):
        if len(line) > MAX_REQUEST_LINE:
            raise _BadRequest("Request line too long")
        raise _BadRequest("Truncated request line")
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(f"Malformed request line: {line!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        line = head.readline(MAX_HEADER_BYTES + 1)
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise _BadRequest("Header block too large")
        if not line.endswith(b"\n"):
            raise _BadRequest("Truncated header block")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"Malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        if not (length.isascii() and length.isdigit()):
            raise _BadRequest(f"Bad Content-Length: {length!r}")
        length = int(length)
        if length > MAX_BODY_BYTES:
            raise _BadRequest("Request body too large")
        body = head.read(length)
        if len(body) < length:
            raise _BadRequest("Truncated request body")
    head.finish(budget)
    split = urlsplit(target)
    params = {
        key: values[-1]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return _Request(method, unquote(split.path), params, headers, body, version)


def _respond(
    conn: socket.socket,
    status: int,
    payload,
    *,
    content_type: str = "application/json",
    keep_alive: bool = False,
) -> int:
    """Write one complete response; returns ``status``."""
    if isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: {content_type}; charset=utf-8\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    )
    conn.sendall(head.encode("latin-1") + body)
    return status


def _event(event: str, payload: dict) -> bytes:
    data = json.dumps(payload, ensure_ascii=False)
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")


@dataclass(eq=False)
class _Session:
    """One suspended stream with its bookkeeping (``lock`` serialises batches)."""

    sid: str
    stream: AnswerStream
    normalized: str
    snapshot: str
    last_used: float
    emitted: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class QueryService:
    """One engine behind an HTTP/SSE front — start, serve, drain, stop.

    Thread model: :meth:`start` binds the port and starts one accept
    thread; each accepted connection is handed to a connection thread,
    which runs every request on it start to finish (see the module
    docstring).  Sessions and connection bookkeeping live under one
    service lock.

    Parameters
    ----------
    engine:
        The engine to serve.  The service subscribes to
        :meth:`TriniT.on_store_swap` to flush the result cache whenever a
        compaction or an added rule publishes a new engine state.
    config:
        See :class:`ServeConfig`.
    owns_engine:
        When true, :meth:`close` also closes the engine (the
        ``python -m repro.serve`` entrypoint opens and owns it; tests
        that share an engine across services pass False).
    """

    def __init__(
        self,
        engine: TriniT,
        config: ServeConfig | None = None,
        *,
        owns_engine: bool = False,
    ):
        self.engine = engine
        self.config = config if config is not None else ServeConfig()
        self.owns_engine = owns_engine
        self.cache = ResultCache(self.config.cache_size, self.config.cache_ttl)
        self.admission = AdmissionController(
            self.config.max_concurrency,
            self.config.queue_depth,
            self.config.request_timeout,
        )
        self.metrics = ServerMetrics()
        engine.on_store_swap(self._store_swapped)
        self._routes = {
            ("POST", "/query"): ("query", self._handle_query),
            ("GET", "/stream"): ("stream", self._handle_stream),
            ("POST", "/ingest"): ("ingest", self._handle_ingest),
            ("GET", "/healthz"): ("healthz", self._handle_healthz),
            ("GET", "/metrics"): ("metrics", self._handle_metrics),
        }
        # A condition, so the drain can wait for the last in-flight request.
        self._lock = threading.Condition()
        self._sessions: dict[str, _Session] = {}
        self._connections: set[socket.socket] = set()
        # Connection threads, and how many of them wait for a connection.
        self._workers: list[threading.Thread] = []
        self._idle = 0
        self._handoff: queue.SimpleQueue[socket.socket | None] = queue.SimpleQueue()
        self._inflight = 0
        self._draining = False
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._stopped = threading.Event()
        self._closed = False
        self.host = self.config.host
        self.port: int | None = None

    # -- publish hook --------------------------------------------------------

    def _store_swapped(self, engine: TriniT) -> None:
        # Runs on whatever thread compacted or added a rule, right after
        # the new view became current: entries keyed on the superseded
        # snapshot identity can never match again, reclaim them now.
        self.cache.flush()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "QueryService":
        """Bind the port and start accepting; returns once listening."""
        host, port = self.config.host, self.config.port
        with self._lock:
            if self._acceptor is not None:
                raise TrinitError("Service already started")
            try:
                family, _type, _proto, _name, address = socket.getaddrinfo(
                    host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
                )[0]
                listener = socket.create_server(
                    address[:2], family=family, backlog=128
                )
            except OSError as exc:
                raise TrinitError(f"Could not start query service: {exc}") from None
            self.port = listener.getsockname()[1]
            self._listener = listener
            self._acceptor = threading.Thread(
                target=self._accept, args=(listener,),
                name="trinit-serve-accept", daemon=True,
            )
            self._acceptor.start()
        return self

    def stop(self, drain_grace: float | None = None) -> None:
        """Drain and stop the server (idempotent; callable from any thread).

        Stops accepting, then waits up to ``drain_grace`` (default: the
        config's) for in-flight requests — including SSE batches writing
        from streams that pin pre-compaction store generations — to
        finish.  Then it drops the suspended sessions so their pins
        release, shuts every connection's socket (idle kept-alive ones
        wake and exit) and joins the connection threads; a thread still
        inside engine work is waited for, since it cannot be cancelled.
        Only after that may :meth:`close` shut the engine down; closing
        the engine with requests still dispatching would yank mmap-backed
        stores out from under them mid-write.
        """
        grace = self.config.drain_grace if drain_grace is None else drain_grace
        with self._lock:
            listener, self._listener = self._listener, None
            if listener is None:
                return
            self._draining = True
            acceptor = self._acceptor
        _shut(listener)
        listener.close()
        acceptor.join()
        with self._lock:
            self._lock.wait_for(lambda: not self._inflight, grace)
            connections = list(self._connections)
            workers = list(self._workers)
            # Sessions go last: each holds the AnswerStream whose weakref
            # finalizer unpins its store generation — dropping them here
            # is what lets close() retire pinned pre-compaction stores.
            self._sessions.clear()
        for conn in connections:
            _shut(conn)
        for _worker in workers:
            self._handoff.put(None)
        for worker in workers:
            worker.join()
        self._stopped.set()

    def close(self) -> None:
        """Stop serving, close an owned engine."""
        if self._closed:
            return
        self._closed = True
        self.stop()
        if self.owns_engine:
            self.engine.close()

    def __enter__(self) -> "QueryService":
        return self if self.port is not None else self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling -------------------------------------------------

    def _is_draining(self) -> bool:
        with self._lock:
            return self._draining

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _peer = listener.accept()
            except OSError:
                if self._is_draining():
                    return  # stop() shut the listener
                time.sleep(0.05)  # e.g. out of descriptors: retry shortly
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self.config.keepalive_idle)
            worker = None
            with self._lock:
                admitted = len(self._connections) < MAX_CONNECTIONS
                if admitted:
                    self._connections.add(conn)
                    if self._idle:
                        self._idle -= 1
                    else:
                        worker = threading.Thread(
                            target=self._work, name="trinit-serve-conn", daemon=True
                        )
                        self._workers.append(worker)
            if admitted:
                self._handoff.put(conn)
                if worker is not None:
                    worker.start()
                continue
            with contextlib.suppress(OSError):
                _respond(conn, 503, {"error": "Too many open connections"})
            conn.close()
            self.metrics.observe_request("unknown", 503)

    def _work(self) -> None:
        """A connection thread: serve handed-off connections until ``None``."""
        while True:
            conn = self._handoff.get()
            if conn is None:
                return
            self._handle_connection(conn)
            with self._lock:
                self._idle += 1

    def _handle_connection(self, conn: socket.socket) -> None:
        # HTTP/1.1 keep-alive: serve up to ``keepalive_requests`` requests
        # over one connection.  Each request is counted in-flight only
        # while it is being dispatched — a kept-alive connection waiting
        # idle for its next request never blocks the shutdown drain
        # (the drain shuts idle sockets under their readers instead).
        reader = conn.makefile("rb")
        try:
            served = 0
            while self._serve_one(conn, reader, served):
                served += 1
        finally:
            with self._lock:
                self._connections.discard(conn)
            reader.close()
            _shut(conn, socket.SHUT_WR)
            conn.close()

    def _serve_one(self, conn: socket.socket, reader, served: int) -> bool:
        """Read and answer one request; True to keep the connection."""
        started = time.perf_counter()
        route, status = "empty", 0
        try:
            try:
                request = _read_request(reader, conn, self.config.keepalive_idle)
            except _BadRequest as exc:
                route = "bad"
                status = _respond(conn, 400, {"error": str(exc)})
                return False
            except _RequestTimeout:
                route = "bad"
                error = "Request not received within keepalive_idle"
                status = _respond(conn, 408, {"error": error})
                return False
            if request is None:  # client closed without a request
                return False
            started = time.perf_counter()
            route, status = "unknown", 500
            with self._lock:
                request.keep_alive = (
                    served + 1 < self.config.keepalive_requests
                    and not self._draining
                    and request.wants_keepalive()
                )
                self._inflight += 1
            try:
                route, status = self._dispatch(request, conn)
            finally:
                with self._lock:
                    self._inflight -= 1
                    self._lock.notify_all()
            return request.keep_alive
        except (ConnectionError, TimeoutError):
            # The client went away, or sent no request head within
            # keepalive_idle: nothing to answer.
            status = 0
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            try:
                error = f"{type(exc).__name__}: {exc}"
                status = _respond(conn, 500, {"error": error})
            except OSError:
                status = 0
        finally:
            if route != "empty" and status:
                self.metrics.observe_request(
                    route, status, time.perf_counter() - started
                )
        return False

    # -- routing -------------------------------------------------------------

    def _dispatch(self, request: _Request, conn: socket.socket) -> tuple[str, int]:
        entry = self._routes.get((request.method, request.path))
        if entry is None:
            if any(path == request.path for _m, path in self._routes):
                status, error = 405, f"Method not allowed: {request.method}"
            else:
                status, error = 404, f"No such route: {request.path}"
            return "bad", _respond(
                conn, status, {"error": error}, keep_alive=request.keep_alive
            )
        route, handler = entry
        if self._is_draining() and route not in ("healthz", "metrics"):
            return route, _respond(conn, 503, {"error": "Service is draining"})
        try:
            return route, handler(request, conn)
        except Overloaded as exc:
            status, payload = exc.status, {"error": str(exc), "reason": exc.reason}
        except _BadRequest as exc:
            status, payload = 400, {"error": str(exc)}
        except TrinitError as exc:
            # Parse/query errors are the client's fault; a closed store
            # under a live stream means the service is going away.
            status = 503 if isinstance(exc, StorageError) else 400
            payload = {"error": f"{type(exc).__name__}: {exc}"}
            if status == 503:
                request.keep_alive = False
        return route, _respond(conn, status, payload, keep_alive=request.keep_alive)

    def _json_body(self, request: _Request) -> dict:
        if not request.body:
            raise _BadRequest("Expected a JSON body")
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"Bad JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise _BadRequest("JSON body must be an object")
        return body

    @staticmethod
    def _positive_int(value, name: str, maximum: int = 10_000) -> int:
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise _BadRequest(f"{name} must be an integer") from None
        if not 1 <= value <= maximum:
            raise _BadRequest(f"{name} must be in 1..{maximum}, got {value}")
        return value

    # -- POST /query ---------------------------------------------------------

    def _handle_query(self, request: _Request, conn: socket.socket) -> int:
        body = self._json_body(request)
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise _BadRequest('Body needs a non-empty "query" string')
        k = body.get("k", self.config.default_k)
        if type(k) is not int:  # a JSON integer: not a float, not a bool
            raise _BadRequest(f"k must be an integer, got {k!r}")
        k = self._positive_int(k, "k")
        query = parse_query(text)
        normalized = query.n3()
        engine = self.engine
        identity = engine.snapshot_identity()
        key = (normalized, k, identity)
        cached = self.cache.get(key)
        if cached is not None:
            payload = dict(cached)
            payload["cached"] = True
            return _respond(conn, 200, payload, keep_alive=request.keep_alive)
        answers = self.admission.run(lambda: engine.ask(query, k))
        self.metrics.record_query_stats(answers.stats)
        self.metrics.count_answers(len(answers))
        payload = {
            "query": normalized,
            "k": k,
            "snapshot": identity,
            "cached": False,
            "answers": [
                serialize_answer(answer, rank)
                for rank, answer in enumerate(answers, start=1)
            ],
            "stats": _stats_dict(answers.stats),
        }
        self.cache.put(key, payload)
        return _respond(conn, 200, payload, keep_alive=request.keep_alive)

    # -- GET /stream ---------------------------------------------------------

    def _handle_stream(self, request: _Request, conn: socket.socket) -> int:
        n = self._positive_int(
            request.params.get("n", self.config.default_k), "n"
        )
        sid = request.params.get("session")
        now = time.monotonic()
        if sid is not None:
            self._trim_sessions(now)
            with self._lock:
                session = self._sessions.get(sid)
            if session is None:
                return _respond(
                    conn,
                    404,
                    {"error": f"Unknown or expired session {sid!r}"},
                    keep_alive=request.keep_alive,
                )
            self.metrics.count_session("resumed")
        else:
            text = request.params.get("q")
            if not text or not text.strip():
                raise _BadRequest('Need "q" (new stream) or "session" (resume)')
            query = parse_query(text)
            engine = self.engine
            identity = engine.snapshot_identity()
            stream = self.admission.run(lambda: engine.stream(query))
            session = _Session(
                secrets.token_hex(8), stream, query.n3(), identity, now
            )
            with self._lock:
                self._sessions[session.sid] = session
            self._trim_sessions(now)
            self.metrics.count_session("created")

        # SSE responses are framed by connection close, not Content-Length
        # — the event stream always ends the connection.
        request.keep_alive = False
        with session.lock:
            session.last_used = time.monotonic()
            self._stream_batch(session, n, conn)
        session.last_used = time.monotonic()
        return 200

    def _stream_batch(self, session: _Session, n: int, conn: socket.socket) -> None:
        """Admit one resume, then SSE the next ``n`` answers as they settle.

        Answers are pulled one rank at a time (``next_k(1)`` resumes are
        incremental — the driver keeps its cursors and rank-join state
        between calls) and each is written to the socket as it settles,
        so the first answer goes out while later ranks are still to be
        computed.  The budget is checked after each rank: a batch that
        overruns it ends with an ``error`` event (``"reason":
        "timeout"``) and counts as orphaned.
        """
        stream = session.stream
        budget = self.admission.timeout
        self.admission.acquire(budget)
        deadline = None if budget is None else time.monotonic() + budget
        emitted_here, error, late = 0, None, False
        try:
            conn.sendall(_SSE_HEAD + _event("meta", {
                "session": session.sid,
                "query": session.normalized,
                "snapshot": session.snapshot,
                "emitted": session.emitted,
                "n": n,
            }))
            before = stream.stats.copy()
            while emitted_here < n and not late:
                try:
                    batch = stream.next_k(1)
                except Exception as exc:  # noqa: BLE001 - an SSE error event
                    error = exc
                    break
                if not batch:
                    break
                session.emitted += 1
                emitted_here += 1
                conn.sendall(_event(
                    "answer", serialize_answer(batch[0], session.emitted)
                ))
                late = overran(deadline)
        finally:
            self.admission.release(orphaned=late)
        delta = stream.stats.diff(before)
        self.metrics.record_query_stats(delta)
        self.metrics.count_answers(emitted_here)
        if late:
            conn.sendall(_event("error", {
                "error": f"batch exceeded the {budget:g}s budget",
                "reason": "timeout", "session": session.sid,
            }))
        elif error is not None:
            conn.sendall(_event("error", {
                "error": f"{type(error).__name__}: {error}",
                "session": session.sid,
            }))
        else:
            conn.sendall(_event("end", {
                "session": session.sid,
                "batch": emitted_here,
                "emitted": session.emitted,
                "exhausted": stream.exhausted,
                "stats": _stats_dict(delta),
            }))

    def _trim_sessions(self, now: float) -> None:
        """Evict idle-expired sessions, then the LRU ones past the bound.

        A session streaming a batch (its lock held) is never evicted.
        """
        with self._lock:
            idle = sorted(
                (s for s in self._sessions.values() if not s.lock.locked()),
                key=lambda session: session.last_used,
            )
            for session in idle:  # oldest first: the expired ones lead
                if (
                    now - session.last_used <= self.config.session_ttl
                    and len(self._sessions) <= self.config.max_sessions
                ):
                    break
                del self._sessions[session.sid]
                self.metrics.count_session("evicted")

    # -- POST /ingest --------------------------------------------------------

    def _handle_ingest(self, request: _Request, conn: socket.socket) -> int:
        body = self._json_body(request)
        rows = body.get("triples")
        if not isinstance(rows, list) or not rows:
            raise _BadRequest('Body needs a non-empty "triples" list')
        confidence = body.get("confidence", 1.0)
        if not isinstance(confidence, (int, float)) or not 0 < confidence <= 1:
            raise _BadRequest(f"confidence must be in (0, 1], got {confidence!r}")
        triples = [self._parse_ingest_row(row) for row in rows]
        engine = self.engine
        ids = self.admission.run(
            lambda: engine.ingest(triples, confidence=float(confidence))
        )
        self.metrics.count_ingested(len(ids))
        store = engine.store
        return _respond(
            conn,
            200,
            {
                "ingested": len(ids),
                "delta_size": store.delta_size,
                "generation": engine.generation,
                "snapshot": engine.snapshot_identity(),
            },
            keep_alive=request.keep_alive,
        )

    @staticmethod
    def _parse_ingest_row(row) -> Triple:
        if isinstance(row, dict):
            row = [row.get("s"), row.get("p"), row.get("o")]
        if not isinstance(row, list) or len(row) != 3 or not all(
            isinstance(part, str) and part.strip() for part in row
        ):
            raise _BadRequest(
                'Each triple must be ["s", "p", "o"] (or {"s","p","o"}) of '
                "non-empty term strings in the query syntax"
            )
        pattern = parse_pattern(" ".join(row))
        terms = (pattern.s, pattern.p, pattern.o)
        if any(isinstance(term, Variable) for term in terms):
            raise _BadRequest(
                f"Ingest needs ground statements, got a variable in {row!r}"
            )
        return Triple(*terms)

    # -- GET /healthz --------------------------------------------------------

    def _handle_healthz(self, request: _Request, conn: socket.socket) -> int:
        engine = self.engine
        store = engine.store
        with self._lock:
            draining = self._draining
            sessions = len(self._sessions)
            inflight = self._inflight
        return _respond(
            conn,
            200,
            {
                "status": "draining" if draining else "ok",
                "snapshot": engine.snapshot_identity(),
                "generation": engine.generation,
                "delta": {
                    "size": store.delta_size,
                    "version": store.delta_version,
                },
                "triples": len(store),
                "backend": store.backend_name,
                "executor_kind": engine.executor_kind,
                "sessions": sessions,
                "inflight": inflight,
            },
            keep_alive=request.keep_alive,
        )

    # -- GET /metrics --------------------------------------------------------

    def _handle_metrics(self, request: _Request, conn: socket.socket) -> int:
        cache_stats = self.cache.stats()
        admission_stats = self.admission.stats()
        with self._lock:
            admission_stats["sessions"] = len(self._sessions)
        if request.params.get("format") == "json":
            document = self.metrics.snapshot(cache_stats, admission_stats)
            return _respond(conn, 200, document, keep_alive=request.keep_alive)
        return _respond(
            conn,
            200,
            self.metrics.render_prometheus(cache_stats, admission_stats),
            content_type="text/plain; version=0.0.4",
            keep_alive=request.keep_alive,
        )


def _shut(sock: socket.socket, how: int = socket.SHUT_RDWR) -> None:
    """``shutdown`` that tolerates an already-dead socket; wakes its readers."""
    with contextlib.suppress(OSError):
        sock.shutdown(how)
