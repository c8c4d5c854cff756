"""Zero-copy shared payloads for large read-only task parameters.

A huge sweep whose every task needs the same big object — a
50k-item replica catalog, a recorded trace's line list — pays for that
object *per task* when it rides ``SweepSpec.fixed``: the pool pickles
it into every chunk.  A :class:`SharedPayload` is a tiny handle that
travels instead; workers resolve it back to the value through the
cheapest channel available:

1. **Fork inheritance** (true zero-copy): the publishing process keeps
   the value in a module-level registry; fork-started pool workers
   inherit the registry copy-on-write and resolve the handle with a
   dict lookup — the value never crosses a pipe at all.
2. **Shared memory** (pickle-once): under a spawn start method — or in
   any process that did not inherit the registry — the handle carries
   the name of a ``multiprocessing.shared_memory`` segment holding one
   pickled copy of the value, written lazily the first time the handle
   itself is pickled.  Every worker attaches and unpickles from the
   same segment instead of receiving a private copy per chunk.
3. **Inline bytes** (fallback): where shared memory is unavailable
   (locked-down sandboxes), the pickled value rides inside the handle —
   still once per *chunk* rather than once per task, and the sweep
   keeps working.

Handles resolve to the **same object** within a process (per-process
attach cache), compare and hash by token, and encode into artifact
headers as ``{"shared": label}`` — deliberately content-free, because
pickled bytes are not stable across Python versions and artifact
headers must stay byte-stable enough to commit.

Payload values must be treated as **read-only** everywhere: with fork
inheritance a worker mutation stays invisible locally, but in-process
(serial) execution would mutate the published original.  Publish only
what no task mutates — the same rule :func:`~repro.engine.worker_cache`
already imposes.
"""

from __future__ import annotations

import os
import pickle
from typing import Any

from repro.common.errors import StoreError

#: published values, keyed by token — the publisher's (and, after a
#: fork, every inheriting worker's) zero-copy channel.
_PUBLISHED: dict[str, Any] = {}

#: values this process resolved from a remote channel, so repeated
#: ``get()`` calls return the same object.
_ATTACHED: dict[str, Any] = {}

#: tokens issued by this process (monotonic suffix keeps them unique
#: even after a release frees a registry slot).
_ISSUED = 0

#: shared-memory segments this process created, unlinked at exit so a
#: sweep that never calls release() cannot leak /dev/shm space.
_OWNED_SEGMENTS: dict[str, Any] = {}


def _cleanup_owned_segments() -> None:
    for segment in _OWNED_SEGMENTS.values():
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
    _OWNED_SEGMENTS.clear()


class SharedPayload:
    """A pickle-cheap handle to one published read-only value.

    Create with :meth:`publish`; pass anywhere a task parameter goes
    (``SweepSpec.fixed`` is the usual seat).  :class:`~repro.engine.spec.RunTask`
    resolves handles just before calling the task function, so the task
    itself receives the plain value and never sees the handle.
    """

    __slots__ = ("token", "label", "_shm_name", "_size", "_inline")

    def __init__(
        self,
        token: str,
        label: str,
        shm_name: str | None = None,
        size: int = 0,
        inline: bytes | None = None,
    ) -> None:
        self.token = token
        self.label = label
        self._shm_name = shm_name
        self._size = size
        self._inline = inline

    @classmethod
    def publish(cls, value: Any, label: str = "shared-payload") -> "SharedPayload":
        """Register ``value`` in this process and return its handle."""
        global _ISSUED
        _ISSUED += 1
        token = f"{label}:{os.getpid()}:{_ISSUED}"
        _PUBLISHED[token] = value
        return cls(token=token, label=label)

    def get(self) -> Any:
        """The payload value, resolved through the cheapest channel."""
        try:
            return _PUBLISHED[self.token]
        except KeyError:
            pass
        try:
            return _ATTACHED[self.token]
        except KeyError:
            pass
        value = _ATTACHED[self.token] = self._load_remote()
        return value

    def _load_remote(self) -> Any:
        if self._shm_name is not None:
            from multiprocessing import shared_memory

            try:
                segment = shared_memory.SharedMemory(name=self._shm_name)
            except OSError as exc:
                raise StoreError(
                    f"shared payload {self.label!r} lost its memory segment "
                    f"{self._shm_name!r} (publisher released it or exited): {exc}"
                ) from exc
            try:
                return pickle.loads(bytes(segment.buf[: self._size]))
            finally:
                segment.close()
        if self._inline is not None:
            return pickle.loads(self._inline)
        raise StoreError(
            f"shared payload {self.label!r} is unresolvable in this process: "
            "it was never materialized for transport (resolve handles only "
            "in the publishing process tree or after pickling them)"
        )

    def _materialize(self) -> None:
        """Back the handle with a transport channel before it travels.

        Called on first pickle.  Prefers one shared-memory segment (all
        workers attach to the same bytes); falls back to carrying the
        pickled value inline when shared memory cannot be created.
        """
        if self._shm_name is not None or self._inline is not None:
            return
        value = _PUBLISHED.get(self.token)
        if value is None:
            # a re-pickled foreign handle: it already carried transport
            # state when it arrived, so there is nothing to build here.
            return
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
            segment.buf[: len(data)] = data
        except (ImportError, OSError, PermissionError):
            self._inline = data
            return
        if not _OWNED_SEGMENTS:
            import atexit

            atexit.register(_cleanup_owned_segments)
        _OWNED_SEGMENTS[self.token] = segment
        self._shm_name = segment.name
        self._size = len(data)

    def release(self) -> None:
        """Drop the published value and any shared-memory segment.

        Safe to call more than once; handles already shipped to live
        workers fall back to their inline bytes or fail loudly with
        :class:`StoreError` on next resolve.
        """
        _PUBLISHED.pop(self.token, None)
        _ATTACHED.pop(self.token, None)
        segment = _OWNED_SEGMENTS.pop(self.token, None)
        if segment is not None:
            try:
                segment.close()
                segment.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._shm_name = None
        self._size = 0

    def describe(self) -> dict[str, str]:
        """The handle's artifact-header form: label only, content-free."""
        return {"shared": self.label}

    def __getstate__(self) -> dict[str, Any]:
        self._materialize()
        return {
            "token": self.token,
            "label": self.label,
            "shm_name": self._shm_name,
            "size": self._size,
            # never ship inline bytes alongside a working segment
            "inline": self._inline if self._shm_name is None else None,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.token = state["token"]
        self.label = state["label"]
        self._shm_name = state["shm_name"]
        self._size = state["size"]
        self._inline = state["inline"]

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, SharedPayload) and other.token == self.token

    def __hash__(self) -> int:
        return hash(self.token)

    def __repr__(self) -> str:
        channel = (
            "registry"
            if self.token in _PUBLISHED
            else "shm"
            if self._shm_name is not None
            else "inline"
            if self._inline is not None
            else "unmaterialized"
        )
        return f"SharedPayload({self.label!r}, token={self.token!r}, via={channel})"
