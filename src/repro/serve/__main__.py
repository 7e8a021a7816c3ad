"""``python -m repro.serve`` — boot the query service from the shell.

Opens an engine over a persisted store (snapshot directory or JSONL, like
``TriniT.open``), wraps it in a
:class:`~repro.serve.http.QueryService`, and serves until interrupted.
Engine flags mirror :class:`~repro.core.engine.EngineConfig`; service
flags mirror :class:`~repro.serve.http.ServeConfig`::

    python -m repro.serve xkg.snapd --port 8399 --compaction-threshold 1000 \\
        --cache-size 512 --max-concurrency 8
"""

from __future__ import annotations

import argparse
import sys

from repro.core.engine import EngineConfig, TriniT
from repro.serve.http import QueryService, ServeConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve exploratory top-k querying over HTTP/SSE.",
    )
    parser.add_argument("snapshot", help="store to serve (snapshot directory or JSONL)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8399, help="0 = ephemeral")
    parser.add_argument(
        "--k", type=int, default=10, dest="default_k",
        help="default answers per /query and per /stream batch",
    )
    engine = parser.add_argument_group("engine (EngineConfig)")
    engine.add_argument(
        "--compaction-threshold", type=int, default=None,
        help="fold the live delta into a new generation past this many statements",
    )
    service = parser.add_argument_group("service (ServeConfig)")
    service.add_argument("--max-concurrency", type=int, default=8)
    service.add_argument("--queue-depth", type=int, default=16)
    service.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request budget (queue wait + engine work); 0 = unbounded",
    )
    service.add_argument("--cache-size", type=int, default=256)
    service.add_argument(
        "--cache-ttl", type=float, default=300.0,
        help="result-cache entry TTL in seconds; 0 = no age expiry",
    )
    service.add_argument("--session-ttl", type=float, default=600.0)
    service.add_argument("--max-sessions", type=int, default=256)
    service.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="shutdown: seconds to wait for in-flight requests",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    engine_config = EngineConfig(compaction_threshold=args.compaction_threshold)
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        default_k=args.default_k,
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        request_timeout=args.timeout or None,
        cache_size=args.cache_size,
        cache_ttl=args.cache_ttl or None,
        session_ttl=args.session_ttl,
        max_sessions=args.max_sessions,
        drain_grace=args.drain_grace,
    )
    engine = TriniT.open(args.snapshot, config=engine_config)
    service = QueryService(engine, serve_config, owns_engine=True)
    print(
        f"serving {engine.snapshot_identity()} "
        f"({len(engine.store)} triples, executor={engine.executor_kind})",
        file=sys.stderr,
    )
    try:
        service.start()
        print(f"listening on {service.address}", file=sys.stderr)
        service._stopped.wait()
        return 0
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
        return 0
    finally:
        service.close()


if __name__ == "__main__":
    raise SystemExit(main())
