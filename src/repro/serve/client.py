"""A tiny blocking HTTP/SSE client for the query service.

Used by the integration tests and the traffic bench's ``--server`` mode;
also a worked example of the wire protocol for real clients.  Built on
``http.client`` only.  The client keeps one persistent connection and
reuses it while the server answers ``Connection: keep-alive``; when a
kept-alive socket turns out stale (the server's idle timeout or request
budget closed it between requests), the request is retried exactly once
on a fresh connection.  SSE responses are EOF-framed — the server closes
after the event stream, so the connection is dropped there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from urllib.parse import urlencode

from repro.errors import TrinitError


class ServeError(TrinitError):
    """A non-2xx response from the query service."""

    def __init__(self, status: int, payload):
        message = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


@dataclass
class StreamBatch:
    """One ``GET /stream`` response, parsed.

    ``answers`` are the batch's ``answer`` event payloads (rank, binding,
    score, …) in emission order; ``session`` is what the next request
    passes to resume; ``meta``/``end`` carry the framing events' payloads
    (``end`` is ``None`` when the batch ended with an ``error`` event,
    which is then in ``error``).
    """

    session: str
    answers: list[dict] = field(default_factory=list)
    meta: dict | None = None
    end: dict | None = None
    error: dict | None = None

    @property
    def exhausted(self) -> bool:
        return bool(self.end and self.end.get("exhausted"))


def parse_sse(body: str) -> list[tuple[str, dict]]:
    """Parse an SSE byte stream into ``(event, data)`` pairs.

    Minimal by design: the service emits one ``event:`` line and one
    ``data:`` line (JSON) per event, blank-line separated — exactly the
    subset this parses.
    """
    events: list[tuple[str, dict]] = []
    event, data_lines = None, []
    for line in body.split("\n"):
        line = line.rstrip("\r")
        if not line:
            if event is not None or data_lines:
                data = "\n".join(data_lines)
                events.append((event or "message", json.loads(data) if data else {}))
            event, data_lines = None, []
            continue
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:"):].strip())
        # Comment lines (":" prefix) and unknown fields are ignored per spec.
    if event is not None or data_lines:
        data = "\n".join(data_lines)
        events.append((event or "message", json.loads(data) if data else {}))
    return events


class ServeClient:
    """Blocking client: one method per route.

    >>> client = ServeClient("127.0.0.1", service.port)
    >>> client.query("?x bornIn Ulm", k=5)["answers"]
    >>> first = client.stream("?x bornIn ?y", n=10)
    >>> rest = client.resume(first.session, n=10)   # ranks continue
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: HTTPConnection | None = None

    def close(self) -> None:
        """Drop the kept-alive connection (idempotent)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None):
        headers = {}
        encoded = None
        if body is not None:
            encoded = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            reused = self._connection is not None
            connection = self._connection or HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._connection = None
            try:
                connection.request(method, path, body=encoded, headers=headers)
                response = connection.getresponse()
                status = response.status
                content_type = response.getheader("Content-Type", "")
                keep = (
                    response.getheader("Connection", "").strip().lower()
                    == "keep-alive"
                )
                raw = response.read()
            except (ConnectionError, HTTPException, OSError):
                # A stale kept-alive socket (closed server-side between
                # requests) fails on write or on the status line; retry
                # exactly once on a fresh connection.  A fresh
                # connection's failure is real — propagate it.
                connection.close()
                if reused and attempt == 0:
                    continue
                raise
            if keep:
                # Threads sharing a client each park their connection:
                # keep the newest, close the one it replaces.
                parked, self._connection = self._connection, connection
                if parked is not None:
                    parked.close()
            else:
                connection.close()
            break
        if "json" in content_type:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        else:
            payload = raw.decode("utf-8")
        if status >= 400:
            raise ServeError(status, payload)
        return status, content_type, payload

    # -- routes --------------------------------------------------------------

    def query(self, query: str, k: int | None = None) -> dict:
        """``POST /query`` — the eager top-k answer document."""
        body = {"query": query}
        if k is not None:
            body["k"] = k
        _status, _ctype, payload = self._request("POST", "/query", body)
        return payload

    def stream(self, query: str, n: int | None = None) -> StreamBatch:
        """``GET /stream?q=…`` — open a session, fetch the first batch."""
        return self._stream_request({"q": query}, n)

    def resume(self, session: str, n: int | None = None) -> StreamBatch:
        """``GET /stream?session=…`` — the next batch, ranks continuing."""
        return self._stream_request({"session": session}, n)

    def _stream_request(self, params: dict, n: int | None) -> StreamBatch:
        if n is not None:
            params["n"] = n
        _status, content_type, body = self._request(
            "GET", f"/stream?{urlencode(params)}"
        )
        if "text/event-stream" not in content_type:
            raise TrinitError(f"Expected an SSE response, got {content_type!r}")
        batch = StreamBatch(session="")
        for event, data in parse_sse(body):
            if event == "meta":
                batch.meta = data
                batch.session = data.get("session", "")
            elif event == "answer":
                batch.answers.append(data)
            elif event == "end":
                batch.end = data
            elif event == "error":
                batch.error = data
        return batch

    def ingest(
        self, triples: list, confidence: float | None = None
    ) -> dict:
        """``POST /ingest`` — ground statements in the query term syntax."""
        body: dict = {"triples": triples}
        if confidence is not None:
            body["confidence"] = confidence
        _status, _ctype, payload = self._request("POST", "/ingest", body)
        return payload

    def healthz(self) -> dict:
        _status, _ctype, payload = self._request("GET", "/healthz")
        return payload

    def metrics(self, format: str = "json"):
        """``GET /metrics`` — a dict (json) or the Prometheus text."""
        path = "/metrics?format=json" if format == "json" else "/metrics"
        _status, _ctype, payload = self._request("GET", path)
        return payload
