"""Save/load for triple stores: JSONL statements + binary snapshots.

Two formats share :func:`load_store`:

* **JSONL** (written by :func:`save_store`): the first line is a header
  object (``{"format": ..., "name": ..., "triples": N}``); every following
  line is one distinct triple::

      {"s": ["r", "AlbertEinstein"], "p": ["t", "won nobel for"],
       "o": ["t", "discovery of the photoelectric effect"],
       "count": 3, "conf": 0.82,
       "prov": [{"origin": "openie", "source": "doc-17", ...}]}

  Term encoding is a two-element array ``[kind_tag, lexical]`` with tags
  ``r`` (resource), ``l`` (literal), ``t`` (token) — see
  :mod:`repro.storage.termcodec`.  Confidences are written with full float
  precision (``repr`` round-trip), so a reloaded store's weights — and
  therefore its answer rankings — are bit-identical to the saved one.

* **Binary snapshot directory** (written by :func:`repro.storage.snapshot.
  save_snapshot`): the frozen segment arrays, mapped back without
  re-ingestion.  :func:`load_store` hands every directory to
  :func:`~repro.storage.snapshot.load_snapshot`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.triples import Triple
from repro.errors import PersistenceError
from repro.storage.backend import StorageBackend, make_backend
from repro.storage.store import TripleStore
from repro.storage.termcodec import (
    decode_provenance,
    decode_term,
    encode_provenance,
    encode_term,
)

FORMAT_NAME = "trinit-xkg-jsonl"
FORMAT_VERSION = 1


def save_store(store: TripleStore, path: str | Path) -> int:
    """Write ``store`` to ``path``; returns the number of triples written.

    The store need not be frozen; what is saved is the distinct-triple level
    (statements, counts, confidences, provenance samples).  Confidences are
    serialised exactly (shortest round-trip ``repr``), never rounded: a
    truncated confidence would shift reloaded weights and reorder answers.
    """
    path = Path(path)
    lines_written = 0
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": store.name,
            "triples": len(store),
        }
        handle.write(json.dumps(header) + "\n")
        for record in store.records():
            payload = {
                "s": encode_term(record.triple.s),
                "p": encode_term(record.triple.p),
                "o": encode_term(record.triple.o),
                "count": record.count,
                "conf": record.confidence,
                "prov": [encode_provenance(p) for p in record.provenances],
            }
            handle.write(json.dumps(payload, ensure_ascii=False) + "\n")
            lines_written += 1
    return lines_written


def load_store(
    path: str | Path,
    freeze: bool = True,
    backend: str | StorageBackend | None = None,
) -> TripleStore:
    """Load a store previously written by :func:`save_store` or
    :func:`repro.storage.snapshot.save_snapshot`.

    A directory is a snapshot and is returned as mapped (zero-copy,
    segmentation as saved); snapshots are inherently frozen, so
    ``freeze=False`` is rejected for them.  A file is JSONL — or a
    pre-directory single-file snapshot, which
    :func:`~repro.storage.snapshot.load_snapshot` rejects by version.
    ``backend`` accepts what ``TripleStore(backend=...)`` does (``None``,
    ``"sharded"`` or a fresh ``ShardedBackend(n)``; any other name raises
    :class:`~repro.errors.StorageError`) and only shapes a JSONL load,
    which is re-ingested.
    """
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"No such file: {path}")
    fresh = make_backend(backend)  # rejects unknown names on every path

    from repro.storage.snapshot import is_snapshot, load_snapshot

    if path.is_dir() or is_snapshot(path):
        if not freeze:
            raise PersistenceError(
                "Snapshot stores are always frozen; freeze=False is not "
                "supported for snapshots"
            )
        return load_snapshot(path)

    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise PersistenceError(f"Empty store file: {path}")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise PersistenceError(f"Bad header in {path}: {exc}") from exc
        if header.get("format") != FORMAT_NAME:
            raise PersistenceError(
                f"Not a {FORMAT_NAME} file: format={header.get('format')!r}"
            )
        store = TripleStore(name=header.get("name", "XKG"), backend=fresh)
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                triple = Triple(
                    decode_term(payload["s"]),
                    decode_term(payload["p"]),
                    decode_term(payload["o"]),
                )
                provenances = [
                    decode_provenance(p) for p in payload.get("prov", [])
                ] or [None]
                store.add(
                    triple,
                    provenance=provenances[0],
                    confidence=float(payload.get("conf", 1.0)),
                    count=int(payload.get("count", 1)),
                )
                # Extra provenance samples beyond the first go through the
                # same capped path TripleStore.add uses, so no file can
                # inflate a record past MAX_PROVENANCES.
                record = store.lookup(triple)
                for extra in provenances[1:]:
                    record.add_provenance(extra)
            except (KeyError, ValueError, TypeError) as exc:
                raise PersistenceError(
                    f"Bad triple at {path}:{line_number}: {exc}"
                ) from exc
    expected = header.get("triples")
    if expected is not None and expected != len(store):
        raise PersistenceError(
            f"Header declares {expected} triples but file contains {len(store)}"
        )
    return store.freeze() if freeze else store
