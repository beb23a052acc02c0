"""Pluggable checkpoint storage behind the session service.

Between HTTP requests a session is durably its engine checkpoint
(canonical JSON bytes from
:func:`repro.core.serialization.checkpoint_to_bytes`).  The service
reads and writes those bytes through the tiny :class:`SessionStore`
protocol, so deployments can swap the backend without touching request
handling.

The shipped backend, :class:`SpilloverSessionStore`, is a two-tier
store sized for "thousands of mostly-idle sessions on one box":

* a hot in-memory LRU tier holding up to ``byte_budget`` bytes of
  checkpoints (unbounded when ``None``), and
* a cold on-disk tier (``spill_dir``): least-recently-used checkpoints
  are moved to ``<spill_dir>/<session_id>.ckpt.json`` when the hot tier
  overflows, and moved back transparently on access.

With a ``spill_dir`` the store doubles as crash recovery — a new store
pointed at the same directory readopts every spilled checkpoint, which
is what lets a restarted service resume mid-flight sessions
(fault-injection suite).

Next to each hot checkpoint the store may also keep an in-memory object
tied to exactly those bytes: the service keeps the suspended
:class:`~repro.core.engine.SearchEngine` that wrote them, so a hot
decision wakes that engine instead of decoding the checkpoint.  The
object is never counted against the byte budget and lives only as long
as its checkpoint stays hot: spilling, flushing, replacing or deleting
the checkpoint drops it, and :meth:`SessionStore.take_pending` removes
it, so only the next ``put`` can bring one back.

All methods are thread-safe; the asyncio service itself is
single-threaded, but tests and benchmarks poke stores from helper
threads.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

from repro.exceptions import ConfigurationError
from repro.obs.logging import get_logger
from repro.obs.metrics import counter, gauge

__all__ = ["SessionStore", "SpilloverSessionStore", "SPILL_SUFFIX"]

_log = get_logger("service")

#: Suffix of on-disk spilled checkpoints (``<session_id>.ckpt.json``).
SPILL_SUFFIX = ".ckpt.json"

_PUTS = counter("service.store.puts")
_HITS_HOT = counter("service.store.hits.memory")
_HITS_COLD = counter("service.store.hits.disk")
_MISSES = counter("service.store.misses")
_EVICTIONS = counter("service.store.evictions")
_RESTORES = counter("service.store.restores")
_HOT_BYTES = gauge("service.store.memory.bytes")
_HOT_ENTRIES = gauge("service.store.memory.entries")
_COLD_ENTRIES = gauge("service.store.disk.entries")


@runtime_checkable
class SessionStore(Protocol):
    """What the service needs from checkpoint storage — nothing more."""

    def put(
        self, session_id: str, payload: bytes, *, pending: Any = None
    ) -> None:
        """Store (or replace) the checkpoint bytes for a session.

        *pending* is an optional in-memory object tied to exactly these
        bytes; a store may drop it at any time.
        """
        ...

    def get(self, session_id: str) -> bytes | None:
        """Fetch checkpoint bytes, or ``None`` when unknown/lost."""
        ...

    def take_pending(self, session_id: str) -> Any:
        """Remove and return the object stored with the current
        checkpoint, or ``None``; the bytes stay."""
        ...

    def delete(self, session_id: str) -> None:
        """Drop a session's checkpoint (idempotent)."""
        ...

    def __contains__(self, session_id: str) -> bool: ...

    def ids(self) -> list[str]:
        """All stored session ids (both tiers), sorted."""
        ...

    def stats(self) -> dict[str, int]:
        """Occupancy snapshot for ``/healthz`` and tests."""
        ...


class SpilloverSessionStore:
    """In-memory LRU of checkpoint bytes with disk spillover.

    Parameters
    ----------
    byte_budget:
        Maximum total bytes held in memory; the least recently used
        checkpoints spill to disk beyond it.  ``None`` disables
        eviction.  A budget without a ``spill_dir`` is a configuration
        error — eviction would silently destroy sessions.
    spill_dir:
        Directory for evicted checkpoints; created if missing.  Any
        ``*.ckpt.json`` files already present are adopted (crash
        recovery).

    A single oversized checkpoint larger than the whole budget is
    written straight to disk rather than rejected.
    """

    def __init__(
        self,
        *,
        byte_budget: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        if byte_budget is not None and byte_budget <= 0:
            raise ConfigurationError("byte_budget must be positive or None")
        if byte_budget is not None and spill_dir is None:
            raise ConfigurationError(
                "a byte_budget needs a spill_dir to evict into; "
                "evicting to nowhere would destroy sessions"
            )
        self._budget = byte_budget
        self._dir = Path(spill_dir) if spill_dir is not None else None
        self._lock = threading.Lock()
        self._hot: OrderedDict[str, bytes] = OrderedDict()
        self._hot_bytes = 0
        # Suspended engines of hot entries (never counted against the
        # byte budget, never spilled).
        self._pending: dict[str, Any] = {}
        self._cold: set[str] = set()
        # Per-instance lifetime counts (the module counters are
        # process-global and shared across stores; /healthz wants this
        # store's numbers).
        self._evictions = 0
        self._restores = 0
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            for path in sorted(self._dir.glob(f"*{SPILL_SUFFIX}")):
                self._cold.add(path.name[: -len(SPILL_SUFFIX)])
            if self._cold:
                _log.info(
                    "adopted %d spilled checkpoint(s) from %s",
                    len(self._cold),
                    self._dir,
                )
        self._refresh_gauges_locked()

    # -- SessionStore protocol ------------------------------------------
    def put(
        self, session_id: str, payload: bytes, *, pending: Any = None
    ) -> None:
        with self._lock:
            self._drop_locked(session_id)
            self._hot[session_id] = payload
            self._hot_bytes += len(payload)
            if pending is not None:
                self._pending[session_id] = pending
            _PUTS.inc()
            self._shrink_locked()
            self._refresh_gauges_locked()

    def get(self, session_id: str) -> bytes | None:
        with self._lock:
            payload = self._hot.get(session_id)
            if payload is not None:
                self._hot.move_to_end(session_id)
                _HITS_HOT.inc()
                return payload
            if session_id in self._cold:
                payload = self._read_spill_locked(session_id)
                if payload is None:
                    _MISSES.inc()
                    return None
                # Promote back to the hot tier (it is now the most
                # recently used) and re-balance.
                self._cold.discard(session_id)
                self._spill_path(session_id).unlink(missing_ok=True)
                self._hot[session_id] = payload
                self._hot_bytes += len(payload)
                _HITS_COLD.inc()
                _RESTORES.inc()
                self._restores += 1
                self._shrink_locked()
                self._refresh_gauges_locked()
                return payload
            _MISSES.inc()
            return None

    def take_pending(self, session_id: str) -> Any:
        with self._lock:
            return self._pending.pop(session_id, None)

    def delete(self, session_id: str) -> None:
        with self._lock:
            self._drop_locked(session_id)
            self._refresh_gauges_locked()

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._hot or session_id in self._cold

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(set(self._hot) | self._cold)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "memory_entries": len(self._hot),
                "memory_bytes": self._hot_bytes,
                "disk_entries": len(self._cold),
                "byte_budget": self._budget or 0,
                "evictions": self._evictions,
                "restores": self._restores,
                "engines": len(self._pending),
            }

    def flush_to_disk(self, session_id: str | None = None) -> int:
        """Demote hot entries to the spill directory; returns how many.

        With a ``session_id``, demotes just that entry (no-op if it is
        already cold or unknown); without one, demotes everything —
        an operator hook for graceful drains, and the fault suite's way
        of guaranteeing a checkpoint is on disk before damaging it.
        Requires a ``spill_dir``.
        """
        if self._dir is None:
            raise ConfigurationError(
                "flush_to_disk requires a spill_dir"
            )
        with self._lock:
            victims = (
                [session_id]
                if session_id is not None
                else list(self._hot)
            )
            flushed = 0
            for victim in victims:
                payload = self._hot.get(victim)
                if payload is None:
                    continue
                self._write_spill_locked(victim, payload)
                del self._hot[victim]
                self._hot_bytes -= len(payload)
                self._pending.pop(victim, None)
                self._cold.add(victim)
                flushed += 1
            self._refresh_gauges_locked()
            return flushed

    # -- internals ------------------------------------------------------
    def _spill_path(self, session_id: str) -> Path:
        assert self._dir is not None
        return self._dir / f"{session_id}{SPILL_SUFFIX}"

    def _write_spill_locked(self, session_id: str, payload: bytes) -> None:
        """Write a spill file atomically: the bytes go to ``<name>.tmp``,
        are fsynced, and are renamed onto the final name, so a kill at
        any point leaves the previous file or the whole new one, never
        a torn checkpoint.  The adopt glob never matches ``.tmp``."""
        final = self._spill_path(session_id)
        tmp = final.with_name(final.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _read_spill_locked(self, session_id: str) -> bytes | None:
        try:
            return self._spill_path(session_id).read_bytes()
        except OSError:
            _log.warning(
                "spilled checkpoint for %s unreadable", session_id
            )
            self._cold.discard(session_id)
            return None

    def _drop_locked(self, session_id: str) -> None:
        payload = self._hot.pop(session_id, None)
        if payload is not None:
            self._hot_bytes -= len(payload)
        self._pending.pop(session_id, None)
        if session_id in self._cold:
            self._cold.discard(session_id)
            self._spill_path(session_id).unlink(missing_ok=True)

    def _shrink_locked(self) -> None:
        if self._budget is None:
            return
        while self._hot_bytes > self._budget and self._hot:
            # Spill before dropping the hot copy: a failed write leaves
            # the session whole in memory.
            victim, payload = next(iter(self._hot.items()))
            self._write_spill_locked(victim, payload)
            del self._hot[victim]
            self._hot_bytes -= len(payload)
            self._pending.pop(victim, None)
            self._cold.add(victim)
            _EVICTIONS.inc()
            self._evictions += 1

    def _refresh_gauges_locked(self) -> None:
        _HOT_BYTES.set(self._hot_bytes)
        _HOT_ENTRIES.set(len(self._hot))
        _COLD_ENTRIES.set(len(self._cold))
