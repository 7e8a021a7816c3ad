"""The query service front-end: a stdlib HTTP/SSE server over one engine.

The engine (:class:`repro.core.engine.TriniT`) has everything a server
needs — an ``open()``/``close()`` lifecycle, resumable
:class:`~repro.core.results.AnswerStream` pagination, concurrent
``ask_many`` and live ``ingest()``/compaction — but no network surface.
This package is that surface, built on nothing but the standard library
(``asyncio`` streams, hand-rolled HTTP/1.1 and Server-Sent-Events
framing; the project has zero runtime dependencies and keeps it that
way):

* :mod:`repro.serve.http` — :class:`QueryService`: request routing for
  ``POST /query`` (eager ask), ``GET /stream`` (SSE answers with
  resumable session ids), ``POST /ingest``, ``GET /healthz`` and
  ``GET /metrics``;
* :mod:`repro.serve.cache` — :class:`ResultCache`: a bounded LRU+TTL
  result cache keyed on (normalized query, k, snapshot identity),
  flushed whenever the engine publishes a compaction or an added rule;
* :mod:`repro.serve.admission` — :class:`AdmissionController`:
  semaphore-based admission with a bounded wait queue and per-request
  timeouts, shedding 429/503 instead of piling work onto the engine;
* :mod:`repro.serve.metrics` — :class:`ServerMetrics`: server counters,
  latency percentile rings and cumulative
  :class:`~repro.core.results.QueryStats` (via its ``merge()``/``diff()``
  algebra) rendered as JSON and Prometheus text exposition;
* :mod:`repro.serve.client` — :class:`ServeClient`: the tiny blocking
  HTTP/SSE client the tests and the traffic bench drive the server with.

``python -m repro.serve <snapshot>`` boots a server from the command
line (see :mod:`repro.serve.__main__`).
"""

from repro.serve.admission import AdmissionController, Overloaded
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, StreamBatch
from repro.serve.http import QueryService, ServeConfig
from repro.serve.metrics import LatencyRing, ServerMetrics

__all__ = [
    "AdmissionController",
    "LatencyRing",
    "Overloaded",
    "QueryService",
    "ResultCache",
    "ServeClient",
    "ServeConfig",
    "ServerMetrics",
    "StreamBatch",
]
