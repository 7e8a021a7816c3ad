"""The query service: stdlib HTTP/1.1 + SSE over one TriniT engine.

:class:`QueryService` maps network clients onto the engine's session
surface.  It is deliberately built on ``asyncio.start_server`` with
hand-rolled HTTP/1.1 request parsing and Server-Sent-Events framing —
the project has zero runtime dependencies and a query server does not
need a framework: five routes, one content type, HTTP/1.1 keep-alive
with a bounded per-connection request budget and idle timeout (SSE
responses are EOF-framed and always close).

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

Engine work (an ask, a ``next_k`` resume, an ingest) is blocking Python:
each request runs it on the service's thread pool behind the
:class:`~repro.serve.admission.AdmissionController`, so a burst sheds
429/503 instead of piling unbounded work onto the engine.  Shutdown
**drains**: in-flight requests (including mid-SSE writes against
compaction-pinned store generations) get a bounded grace period before
the engine is closed under them.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.engine import TriniT
from repro.core.parser import parse_pattern, parse_query
from repro.core.results import Answer, AnswerStream, QueryStats
from repro.core.terms import Variable
from repro.core.triples import Triple
from repro.errors import StorageError, TrinitError
from repro.serve.admission import AdmissionController, Overloaded
from repro.serve.cache import ResultCache
from repro.serve.metrics import ServerMetrics

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request-line / header-block / body size bounds (hand-rolled parser).
MAX_REQUEST_LINE = 16 * 1024
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024


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
        Execution slots — requests running engine work at once; also the
        service executor's thread count.
    queue_depth:
        Requests allowed to *wait* for a slot beyond the executing ones;
        arrivals past it are shed with 429.
    request_timeout:
        Per-request budget in seconds covering queue wait + engine work;
        exceeded → 503 (the engine thread finishes in the background
        without its slot being leaked).  ``None`` disables.
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
        connection slot); ``1`` disables reuse entirely.
    keepalive_idle:
        Seconds an idle kept-alive connection may wait for its next
        request before the server closes it.  Idle connections are not
        in-flight: draining never waits on them.
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


class _Session:
    """One suspended stream with its bookkeeping (loop-confined fields)."""

    __slots__ = (
        "sid", "stream", "normalized", "snapshot", "created",
        "last_used", "emitted", "lock",
    )

    def __init__(self, sid: str, stream: AnswerStream, normalized: str,
                 snapshot: str, now: float):
        self.sid = sid
        self.stream = stream
        self.normalized = normalized
        self.snapshot = snapshot
        self.created = now
        self.last_used = now
        self.emitted = 0
        self.lock = asyncio.Lock()


class QueryService:
    """One engine behind an HTTP/SSE front — start, serve, drain, stop.

    Thread model: the service runs its own event loop on a dedicated
    thread (:meth:`start`/:meth:`stop`, or :meth:`run` to serve on the
    calling thread).  Engine work runs on a service-owned
    ``ThreadPoolExecutor`` sized to ``max_concurrency``; session and
    in-flight bookkeeping stays loop-confined.

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
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="trinit-serve",
        )
        engine.on_store_swap(self._store_swapped)
        self._sessions: dict[str, _Session] = {}
        self._connections: set = set()
        self._inflight = 0
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._start_error: BaseException | None = None
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
        """Serve on a background thread; returns once the port is bound."""
        if self._thread is not None:
            raise TrinitError("Service already started")
        self._thread = threading.Thread(
            target=self._serve_thread, name="trinit-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._start_error is not None:
            error = self._start_error
            self._thread.join()
            self._thread = None
            self._start_error = None
            raise TrinitError(f"Could not start query service: {error}")
        return self

    def run(self) -> None:
        """Serve on the calling thread until interrupted (the CLI mode)."""
        if self._thread is not None:
            raise TrinitError("Service already started")
        self._thread = threading.current_thread()
        try:
            self._serve_thread()
            if self._start_error is not None:
                raise TrinitError(
                    f"Could not start query service: {self._start_error}"
                )
        finally:
            self._thread = None

    def _serve_thread(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                server = loop.run_until_complete(
                    asyncio.start_server(
                        self._handle_connection,
                        self.config.host,
                        self.config.port,
                    )
                )
            except OSError as exc:
                self._start_error = exc
                return
            self._server = server
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            self._ready.set()
            self._loop = None
            asyncio.set_event_loop(None)
            loop.close()
            self._stopped.set()

    def stop(self, drain_grace: float | None = None) -> None:
        """Drain and stop the server (idempotent; callable from any thread).

        Stops accepting, then waits up to ``drain_grace`` (default: the
        config's) for in-flight requests — including SSE batches writing
        from streams that pin pre-compaction store generations — to
        finish, then drops the suspended sessions so their pins release.
        Only after that may :meth:`close` shut the engine down; closing
        the engine with requests still dispatching would yank mmap-backed
        stores out from under them mid-write.
        """
        loop = self._loop
        if loop is None or self._thread is None:
            return
        grace = self.config.drain_grace if drain_grace is None else drain_grace
        future = asyncio.run_coroutine_threadsafe(self._shutdown(grace), loop)
        try:
            future.result(timeout=grace + 10.0)
        except TimeoutError:  # pragma: no cover - drain bound blew too
            future.cancel()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(loop.stop)
        if self._thread is not threading.current_thread():
            self._thread.join(timeout=grace + 10.0)
        self._thread = None

    async def _shutdown(self, grace: float) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while self._inflight and loop.time() < deadline:
            await asyncio.sleep(0.02)
        # Kept-alive connections waiting idle for a next request are not
        # in-flight; close them under their readers so their handler
        # loops exit before the event loop does.
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
        # Sessions go last: each holds the AnswerStream whose weakref
        # finalizer unpins its store generation — dropping them here is
        # what lets close() retire pinned pre-compaction stores.
        self._sessions.clear()

    def close(self) -> None:
        """Stop serving, release the executor, close an owned engine."""
        if self._closed:
            return
        self._closed = True
        self.stop()
        self._executor.shutdown(wait=True)
        if self.owns_engine:
            self.engine.close()

    def __enter__(self) -> "QueryService":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        # HTTP/1.1 keep-alive: serve up to ``keepalive_requests`` requests
        # over one connection.  Each request is counted in-flight only
        # while it is being dispatched — a kept-alive connection waiting
        # idle for its next request never blocks the shutdown drain
        # (the drain closes idle connections under their readers instead).
        self._connections.add(writer)
        try:
            served = 0
            while await self._serve_one(reader, writer, served):
                served += 1
        finally:
            self._connections.discard(writer)
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _serve_one(self, reader, writer, served: int) -> bool:
        """Read and answer one request; True to keep the connection."""
        started = time.perf_counter()
        route, status = "unknown", 500
        keep = False
        try:
            try:
                if served == 0:
                    request = await self._read_request(reader)
                else:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        self.config.keepalive_idle,
                    )
            except asyncio.TimeoutError:  # idle keep-alive expired
                route, status = "empty", 0
                return False
            except _BadRequest as exc:
                route = "bad"
                status = await self._respond(writer, 400, {"error": str(exc)})
                return False
            if request is None:  # client closed without a request
                route, status = "empty", 0
                return False
            started = time.perf_counter()
            request.keep_alive = (
                served + 1 < self.config.keepalive_requests
                and not self._draining
                and request.wants_keepalive()
            )
            self._inflight += 1
            try:
                route, status = await self._dispatch(request, writer)
            finally:
                self._inflight -= 1
            keep = request.keep_alive
        except (ConnectionError, asyncio.IncompleteReadError):
            status = 0  # client went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            try:
                status = await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except (ConnectionError, RuntimeError):
                pass
        finally:
            if route not in ("empty",) and status:
                self.metrics.observe_request(
                    route, status, time.perf_counter() - started
                )
        return keep

    async def _read_request(self, reader) -> _Request | None:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _BadRequest("Truncated request line") from None
        except asyncio.LimitOverrunError:
            raise _BadRequest("Request line too long") from None
        if len(line) > MAX_REQUEST_LINE:
            raise _BadRequest("Request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"Malformed request line: {line!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            try:
                line = await reader.readuntil(b"\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                raise _BadRequest("Truncated header block") from None
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                raise _BadRequest("Header block too large")
            if line == b"\r\n":
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"Malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                length = int(length)
            except ValueError:
                raise _BadRequest(f"Bad Content-Length: {length!r}") from None
            if length > MAX_BODY_BYTES:
                raise _BadRequest("Request body too large")
            if length:
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    raise _BadRequest("Truncated request body") from None
        split = urlsplit(target)
        params = {
            key: values[-1]
            for key, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        return _Request(
            method, unquote(split.path), params, headers, body, version
        )

    # -- responses -----------------------------------------------------------

    async def _respond(
        self,
        writer,
        status: int,
        payload,
        *,
        content_type: str = "application/json",
        extra_headers: tuple[tuple[str, str], ...] = (),
        keep_alive: bool = False,
    ) -> int:
        if isinstance(payload, bytes):
            body = payload
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}; charset=utf-8",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in extra_headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        return status

    async def _start_sse(self, writer) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream; charset=utf-8\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

    async def _send_event(self, writer, event: str, payload: dict) -> None:
        data = json.dumps(payload, ensure_ascii=False)
        writer.write(f"event: {event}\ndata: {data}\n\n".encode("utf-8"))
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, request: _Request, writer) -> tuple[str, int]:
        route_map = {
            ("POST", "/query"): ("query", self._handle_query),
            ("GET", "/stream"): ("stream", self._handle_stream),
            ("POST", "/ingest"): ("ingest", self._handle_ingest),
            ("GET", "/healthz"): ("healthz", self._handle_healthz),
            ("GET", "/metrics"): ("metrics", self._handle_metrics),
        }
        entry = route_map.get((request.method, request.path))
        keep = request.keep_alive
        if entry is None:
            known_path = any(path == request.path for _m, path in route_map)
            if known_path:
                return "bad", await self._respond(
                    writer,
                    405,
                    {"error": f"Method not allowed: {request.method}"},
                    keep_alive=keep,
                )
            return "bad", await self._respond(
                writer,
                404,
                {"error": f"No such route: {request.path}"},
                keep_alive=keep,
            )
        route, handler = entry
        if self._draining and route not in ("healthz", "metrics"):
            return route, await self._respond(
                writer, 503, {"error": "Service is draining"}
            )
        try:
            return route, await handler(request, writer)
        except Overloaded as exc:
            return route, await self._respond(
                writer,
                exc.status,
                {"error": str(exc), "reason": exc.reason},
                keep_alive=keep,
            )
        except _BadRequest as exc:
            return route, await self._respond(
                writer, 400, {"error": str(exc)}, keep_alive=keep
            )
        except TrinitError as exc:
            # Parse/query errors are the client's fault; a closed store
            # under a live stream means the service is going away.
            status = 503 if isinstance(exc, StorageError) else 400
            if status == 503:
                request.keep_alive = False
            return route, await self._respond(
                writer,
                status,
                {"error": f"{type(exc).__name__}: {exc}"},
                keep_alive=request.keep_alive,
            )

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

    async def _handle_query(self, request: _Request, writer) -> int:
        body = self._json_body(request)
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise _BadRequest('Body needs a non-empty "query" string')
        k = self._positive_int(
            body.get("k", self.config.default_k), "k"
        )
        query = parse_query(text)
        normalized = query.n3()
        engine = self.engine
        identity = engine.snapshot_identity()
        key = (normalized, k, identity)
        cached = self.cache.get(key)
        if cached is not None:
            payload = dict(cached)
            payload["cached"] = True
            return await self._respond(
                writer, 200, payload, keep_alive=request.keep_alive
            )
        loop = asyncio.get_running_loop()
        answers = await self.admission.run(
            loop, self._executor, lambda: engine.ask(query, k)
        )
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
        return await self._respond(
            writer, 200, payload, keep_alive=request.keep_alive
        )

    # -- GET /stream ---------------------------------------------------------

    async def _handle_stream(self, request: _Request, writer) -> int:
        n = self._positive_int(
            request.params.get("n", self.config.default_k), "n"
        )
        sid = request.params.get("session")
        loop = asyncio.get_running_loop()
        now = loop.time()
        self._sweep_sessions(now)
        if sid is not None:
            session = self._sessions.get(sid)
            if session is None:
                return await self._respond(
                    writer,
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
            stream = await self.admission.run(
                loop, self._executor, lambda: engine.stream(query)
            )
            sid = secrets.token_hex(8)
            session = _Session(sid, stream, query.n3(), identity, now)
            self._sessions[sid] = session
            self.metrics.count_session("created")
            self._cap_sessions()

        # SSE responses are framed by connection close, not Content-Length
        # — the event stream always ends the connection.
        request.keep_alive = False
        async with session.lock:
            session.last_used = loop.time()
            await self._stream_batch(session, n, writer, loop)
        session.last_used = loop.time()
        return 200

    async def _stream_batch(self, session, n: int, writer, loop) -> None:
        """Admit one resume, then SSE the next ``n`` answers as they settle.

        The asyncio facade over the blocking driver: an executor thread
        pulls answers one rank at a time (``next_k(1)`` resumes are
        incremental — the driver keeps its cursors and rank-join state
        between calls) and posts each onto an ``asyncio.Queue`` that the
        event loop drains into ``answer`` events, so the first answer
        reaches the socket while later ranks are still being computed.
        """
        stream = session.stream
        budget = self.admission.timeout
        await self.admission.acquire(budget)
        held = True
        queue: asyncio.Queue = asyncio.Queue()
        stop_pulling = threading.Event()
        done = object()

        def pull():
            before = stream.stats.copy()
            error = None
            try:
                for _ in range(n):
                    if stop_pulling.is_set():
                        break
                    batch = stream.next_k(1)
                    if not batch:
                        break
                    loop.call_soon_threadsafe(queue.put_nowait, batch[0])
            except Exception as exc:  # noqa: BLE001 - reported via the queue
                error = exc
            delta = stream.stats.diff(before)
            loop.call_soon_threadsafe(queue.put_nowait, (done, delta, error))

        try:
            await self._start_sse(writer)
            await self._send_event(
                writer,
                "meta",
                {
                    "session": session.sid,
                    "query": session.normalized,
                    "snapshot": session.snapshot,
                    "emitted": session.emitted,
                    "n": n,
                },
            )
            future = loop.run_in_executor(self._executor, pull)
            deadline = loop.time() + budget if budget is not None else None
            emitted_here = 0
            error = None
            while True:
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - loop.time())
                try:
                    item = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    # Budget spent mid-batch: tell the puller to stop at
                    # the next rank boundary and hand the slot to the
                    # future's completion callback (threads cannot be
                    # cancelled; the concurrency bound must keep
                    # counting the straggler).
                    stop_pulling.set()
                    held = False
                    self.admission.release_when_done(loop, future)
                    await self._send_event(
                        writer,
                        "error",
                        {"error": f"batch exceeded the {budget:g}s budget",
                         "reason": "timeout", "session": session.sid},
                    )
                    return
                if isinstance(item, tuple) and item[0] is done:
                    _, delta, error = item
                    break
                session.emitted += 1
                emitted_here += 1
                await self._send_event(
                    writer, "answer", serialize_answer(item, session.emitted)
                )
            self.metrics.record_query_stats(delta)
            self.metrics.count_answers(emitted_here)
            if error is not None:
                await self._send_event(
                    writer,
                    "error",
                    {"error": f"{type(error).__name__}: {error}",
                     "session": session.sid},
                )
                return
            await self._send_event(
                writer,
                "end",
                {
                    "session": session.sid,
                    "batch": emitted_here,
                    "emitted": session.emitted,
                    "exhausted": stream.exhausted,
                    "stats": _stats_dict(delta),
                },
            )
        finally:
            if held:
                self.admission.release()

    def _sweep_sessions(self, now: float) -> None:
        ttl = self.config.session_ttl
        expired = [
            sid
            for sid, session in self._sessions.items()
            if now - session.last_used > ttl and not session.lock.locked()
        ]
        for sid in expired:
            del self._sessions[sid]
            self.metrics.count_session("evicted")

    def _cap_sessions(self) -> None:
        while len(self._sessions) > self.config.max_sessions:
            victim = min(
                (
                    session
                    for session in self._sessions.values()
                    if not session.lock.locked()
                ),
                key=lambda session: session.last_used,
                default=None,
            )
            if victim is None:
                return
            del self._sessions[victim.sid]
            self.metrics.count_session("evicted")

    # -- POST /ingest --------------------------------------------------------

    async def _handle_ingest(self, request: _Request, writer) -> int:
        body = self._json_body(request)
        rows = body.get("triples")
        if not isinstance(rows, list) or not rows:
            raise _BadRequest('Body needs a non-empty "triples" list')
        confidence = body.get("confidence", 1.0)
        if not isinstance(confidence, (int, float)) or not 0 < confidence <= 1:
            raise _BadRequest(f"confidence must be in (0, 1], got {confidence!r}")
        triples = [self._parse_ingest_row(row) for row in rows]
        engine = self.engine
        loop = asyncio.get_running_loop()
        ids = await self.admission.run(
            loop,
            self._executor,
            lambda: engine.ingest(triples, confidence=float(confidence)),
        )
        self.metrics.count_ingested(len(ids))
        store = engine.store
        return await self._respond(
            writer,
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

    async def _handle_healthz(self, request: _Request, writer) -> int:
        engine = self.engine
        store = engine.store
        return await self._respond(
            writer,
            200,
            {
                "status": "draining" if self._draining else "ok",
                "snapshot": engine.snapshot_identity(),
                "generation": engine.generation,
                "delta": {
                    "size": store.delta_size,
                    "version": store.delta_version,
                },
                "triples": len(store),
                "backend": store.backend_name,
                "executor_kind": engine.executor_kind,
                "sessions": len(self._sessions),
                "inflight": self._inflight,
            },
            keep_alive=request.keep_alive,
        )

    # -- GET /metrics --------------------------------------------------------

    async def _handle_metrics(self, request: _Request, writer) -> int:
        cache_stats = self.cache.stats()
        admission_stats = self.admission.stats()
        admission_stats["sessions"] = len(self._sessions)
        if request.params.get("format") == "json":
            return await self._respond(
                writer,
                200,
                self.metrics.snapshot(cache_stats, admission_stats),
                keep_alive=request.keep_alive,
            )
        return await self._respond(
            writer,
            200,
            self.metrics.render_prometheus(cache_stats, admission_stats),
            content_type="text/plain; version=0.0.4",
            keep_alive=request.keep_alive,
        )
