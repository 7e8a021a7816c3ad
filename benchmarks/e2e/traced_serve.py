"""``python -m repro.serve`` with the span tracer installed.

    python traced_serve.py <trace-out.json> <snapshot> [repro.serve flags]

The traced half of ``serve_http`` starts its server child through this
file.  The load generator sends ``SIGUSR1`` when its warm-up pass ends and
again when its window ends; ``SIGINT`` drains and stops the service as
usual, after which the spans are summarised (set-up before the first mark,
window between the two) and written out.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
sys.path.insert(0, str(HERE.parent))

from e2e import trace  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.serve.__main__ import main as serve_main

    out = Path(argv[0])
    tracer = trace.Tracer(trace.ENGINE_HOOKS + trace.SERVE_HOOKS)
    marks: list[int] = []
    signal.signal(signal.SIGUSR1, lambda *_: marks.append(len(tracer.spans)))
    with tracer:
        code = serve_main(argv[1:])
    begin, end = (marks + [len(tracer.spans)] * 2)[:2]
    out.write_text(json.dumps({
        "setup": trace.summarize(tracer.spans[:begin]),
        "window": trace.summarize(tracer.spans[begin:end]),
        "spans": tracer.spans[begin:end][:20000],
        "unresolved": tracer.unresolved,
        "dead": tracer.dead_names(),
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
