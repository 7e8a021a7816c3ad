"""One-shot, thread-safe lazy construction.

Two structures defer an expensive build to first use so a cold
snapshot open stays cheap (the text index, the snapshot term
dictionary).  They share this mixin rather than each hand-rolling the
double-checked-locking pattern: call :meth:`_init_lazy` in ``__init__``,
implement :meth:`_build`, and guard every public accessor with
:meth:`_ensure`.  Concurrent first touches (the query service's executor
threads) observe either nothing or the completed build, never a prefix; a
build that raises leaves the flag unset, so the next touch retries
(``_build`` assigns its containers at the end).  There is no way back to "unbuilt": a structure
that went stale is replaced by a new instance in the engine's next read
view, never rebuilt under its readers.  A successor that derives its
containers from a built predecessor is born built
(``_init_lazy(built=True)``, after assigning them) and never runs
:meth:`_build` at all.
"""

from __future__ import annotations

import threading


class LazilyBuilt:
    """Mixin: defer :meth:`_build` to the first :meth:`_ensure` call."""

    _built = False

    def _init_lazy(self, built: bool = False) -> None:
        self._built = built
        self._build_lock = threading.Lock()

    def _build(self) -> None:  # pragma: no cover - always overridden
        raise NotImplementedError

    @property
    def is_built(self) -> bool:
        with self._build_lock:
            return self._built

    def _ensure(self) -> None:
        # xkg: allow[lock-discipline] double-checked locking: the unlocked read only skips work after a completed build; the locked re-check decides
        if self._built:
            return
        with self._build_lock:
            if self._built:
                return
            self._build()
            self._built = True
