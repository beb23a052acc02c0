"""Session flight recorder: an append-only JSONL journal of engine
transitions.

A finished :class:`~repro.core.engine.SearchResult` keeps spans and
counters but discards the *decision history* — which views the user
saw, what they decided, and what the engine's state digests were at
each suspension point.  :class:`SessionJournal` records exactly that:
the :class:`~repro.core.engine.SearchEngine` appends one record per
transition (session start, emitted view, submitted decision,
checkpoint, resume, terminal result), so every logged session can be

* **audited** — ``python -m repro inspect <journal>`` renders a
  human-readable timeline; and
* **replayed** — ``python -m repro replay <journal>`` re-executes the
  run from the recorded inputs and diffs live state digests against
  the recorded ones (see :mod:`repro.obs.replay`), turning every
  logged session into a regression test.

Format
------
One JSON object per line (JSONL).  Record ``0`` is a header carrying
the format discriminator, the schema version and the writer's numeric
platform (:func:`host_platform`; absent from older journals); every
record is::

    {"seq": N, "type": "...", "ts": <unix seconds>,
     "payload": {...}, "chain": "<sha256 hex>"}

``seq`` is a strictly monotonic sequence number and ``chain`` is a
running hash chain — ``chain_N = sha256(chain_{N-1} + canonical(record
without chain))`` over the canonical JSON encoding (sorted keys, no
whitespace) — so truncation, reordering, and in-place edits are all
detectable by :func:`read_journal`.

The journal is **append-only**: checkpoints embed the writer's cursor
(``seq``, ``chain``, byte ``offset``) and :meth:`SessionJournal.resume`
verifies the file still ends exactly at that cursor before appending —
a resumed run extends the history, it never rewrites it.  A writer
still in memory (a woken engine's) reopens with
:meth:`SessionJournal.reopen`, which checks only the file's tail.

This module never imports :mod:`repro.core` at module level (the
engine imports it); the record builders are duck-typed over the engine
objects they receive.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import JournalError
from repro.obs.logging import get_logger
from repro.obs.metrics import counter

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_SCHEMA_VERSION",
    "JournalRecord",
    "SessionJournal",
    "read_journal",
    "journal_summary",
    "canonical_json",
    "sha256_hex",
    "array_digest",
    "rng_state_digest",
    "indices_digest",
    "view_payload",
    "host_platform",
]

_log = get_logger("obs.journal")

#: Discriminator stored in every journal header record.
JOURNAL_FORMAT = "repro.session-journal"
#: Bumped on incompatible record-layout changes; readers reject others.
JOURNAL_SCHEMA_VERSION = 1

#: Seed of the hash chain (the "chain" preceding record 0).
_GENESIS = "repro.session-journal:genesis"

_RECORDS = counter("journal.records")
_JOURNALS = counter("journal.sessions")


# ----------------------------------------------------------------------
# Canonical encoding and digests
# ----------------------------------------------------------------------
def canonical_json(value: Any) -> str:
    """The one true byte encoding of a record (sorted keys, compact)."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def sha256_hex(text: str) -> str:
    """SHA-256 hex digest of a UTF-8 string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jsonify(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays to JSON-native types."""
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def array_digest(array: np.ndarray) -> str:
    """Order- and dtype-sensitive digest of an array's exact bytes."""
    arr = np.ascontiguousarray(array)
    header = f"{arr.dtype.str}|{arr.shape}|".encode("utf-8")
    return hashlib.sha256(header + arr.tobytes()).hexdigest()


def rng_state_digest(state: dict[str, Any]) -> str:
    """Digest of a ``Generator.bit_generator.state`` dictionary."""
    return sha256_hex(canonical_json(_jsonify(state)))


def indices_digest(indices: Any) -> str:
    """Digest of an index set (sorted, so order never matters)."""
    values = sorted(int(i) for i in np.asarray(indices).ravel())
    return sha256_hex(canonical_json(values))


@functools.cache
def host_platform() -> dict[str, Any]:
    """The numeric platform that fixes this process's floating-point bits.

    A reordered floating-point sum rounds differently, and the BLAS
    build, its CPU kernel and numpy's SIMD dispatch choose the order of
    the kernel sums behind every KDE grid.  This stamp names that stack:
    numpy's version, the BLAS and LAPACK name, version and build
    configuration from numpy's build info, the SIMD baseline and the
    dispatched targets found on this CPU, and the machine architecture.
    Installation paths are left out; they do not move any bits.

    Computed once per process; treat the returned dict as read-only.
    numpy releases without structured build info (before 1.25) yield
    only the numpy version and the machine.
    """
    stamp: dict[str, Any] = {
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    try:
        info = np.show_config(mode="dicts")
    except TypeError:
        return stamp
    deps = info.get("Build Dependencies", {})
    for lib in ("blas", "lapack"):
        entry = deps.get(lib, {})
        stamp[lib] = {
            "name": entry.get("name"),
            "version": entry.get("version"),
            "config": entry.get("openblas configuration"),
        }
    simd = info.get("SIMD Extensions", {})
    stamp["simd"] = {
        "baseline": list(simd.get("baseline", [])),
        "dispatched": list(simd.get("found", [])),
    }
    return stamp


def _chain_digest(previous: str, record: dict[str, Any]) -> str:
    """The running hash chain: previous link + record-minus-chain."""
    return sha256_hex(previous + canonical_json(record))


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JournalRecord:
    """One validated journal line."""

    seq: int
    type: str
    ts: float
    payload: dict[str, Any]
    chain: str


_PROFILE_STATS = (
    "query_density",
    "peak_density",
    "median_density",
    "mean_density",
    "query_percentile",
    "peak_to_median",
    "mean_point_density",
)


def _profile_stats_payload(stats: Any) -> dict[str, float | str]:
    """The seven-float summary a human reads off a density profile.

    A non-finite value is not JSON, so it is recorded as its ``str``
    (``"inf"``): ``peak_to_median`` is infinite when the median cell of
    a binned grid is empty.
    """
    payload: dict[str, float | str] = {}
    for name in _PROFILE_STATS:
        value = float(getattr(stats, name))
        payload[name] = value if math.isfinite(value) else str(value)
    return payload


def view_payload(event: Any, state: Any) -> dict[str, Any]:
    """Digest-heavy snapshot of one emitted ``ViewRequest``.

    Shared between the writer (:meth:`SessionJournal.record_view`) and
    the replay diff (:func:`repro.obs.replay.replay_journal`), so both
    sides compare exactly the same fields.
    """
    view = event.view
    return {
        "step": int(event.step),
        "major": int(event.major_index),
        "minor": int(event.minor_index),
        "live_count": int(view.n_points),
        "live_digest": array_digest(view.live_indices),
        "basis_digest": array_digest(view.subspace.basis),
        "density_digest": array_digest(view.profile.grid.density),
        "rng_digest": rng_state_digest(state.rng_state_at_view),
        "stats": _profile_stats_payload(view.profile.statistics),
    }


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class SessionJournal:
    """Append-only flight-recorder writer for one engine session.

    Construct with :meth:`create` (fresh file) or :meth:`resume`
    (append after a checkpoint cursor), hand the instance to a
    :class:`~repro.core.engine.SearchEngine` via its ``journal``
    parameter, and :meth:`close` when done (also a context manager).
    """

    def __init__(self, path: Path, handle: Any, seq: int, chain: str) -> None:
        self._path = path
        self._handle = handle  # binary append handle
        self._seq = seq
        self._chain = chain
        self._offset = handle.tell()
        self._context: dict[str, Any] = {}
        # (byte length, chain link before it) of the last record this
        # writer appended: all :meth:`reopen` needs to check the tail.
        self._tail: tuple[int, str] | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        provenance: dict[str, Any] | None = None,
    ) -> "SessionJournal":
        """Start a fresh journal at *path* (truncates an existing file).

        Parameters
        ----------
        path:
            Destination JSONL file (parents are created).
        provenance:
            Optional dataset-provenance record (e.g. ``{"kind":
            "case1", "seed": 7, "n_points": 2000}``) stored in the
            header so ``replay`` can rebuild the dataset without being
            handed one.

        The header also carries the writer's :func:`host_platform`
        stamp, which tells ``replay`` whether the recorded KDE-grid
        bytes can be reproduced exactly on the replaying host.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "wb")
        journal = cls(path, handle, seq=-1, chain=_GENESIS)
        journal._append(
            "journal_header",
            {
                "format": JOURNAL_FORMAT,
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "provenance": _jsonify(provenance),
                "platform": _jsonify(host_platform()),
            },
        )
        _JOURNALS.inc()
        return journal

    @classmethod
    def resume(cls, path: str | Path, cursor: dict[str, Any]) -> "SessionJournal":
        """Reopen *path* for appending after a checkpoint *cursor*.

        The cursor (from :meth:`cursor`, embedded in checkpoints by
        :func:`repro.core.serialization.checkpoint_to_dict`) pins the
        byte offset, sequence number, and chain link the file must end
        with.  A shorter file is truncated/corrupt; a **longer** file
        means the session already continued elsewhere — appending would
        fork its history — so both raise :class:`JournalError`.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from exc
        try:
            offset = int(cursor["offset"])
            seq = int(cursor["seq"])
            chain = str(cursor["chain"])
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"malformed journal cursor: {exc}") from exc
        _check_ends_at(path, len(data), offset)
        records = _parse_records(data, path)
        if not records or records[-1].seq != seq or records[-1].chain != chain:
            raise JournalError(
                f"journal {path} does not end at the checkpoint cursor "
                f"(seq {records[-1].seq if records else 'none'}, "
                f"expected {seq})"
            )
        handle = open(path, "ab")
        return cls(path, handle, seq=seq, chain=chain)

    def reopen(self) -> "SessionJournal":
        """A new writer appending after this closed writer's cursor.

        The in-memory twin of :meth:`resume`: this writer knows the
        last record it appended, so only the file's tail is checked —
        its length equals the cursor offset, and its last line is that
        record (same ``seq`` and ``chain``, and the chain link
        recomputes from the line's content).  Earlier bytes are not
        read; :meth:`resume` and :func:`read_journal` check the whole
        chain.  A writer that appended nothing falls back to
        :meth:`resume`.  Raises :class:`JournalError` like
        :meth:`resume` does.
        """
        if self._tail is None:
            return type(self).resume(self._path, self.cursor())
        length, previous = self._tail
        path = self._path
        start = self._offset - length
        begin = max(start - 1, 0)  # the newline ending the record before
        try:
            with open(path, "rb") as handle:
                handle.seek(0, 2)
                _check_ends_at(path, handle.tell(), self._offset)
                handle.seek(begin)
                tail = handle.read(self._offset - begin)
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from exc
        line = tail[-length:]
        try:
            record = json.loads(line)
            seq, chain = record.pop("seq"), record.pop("chain")
            intact = (
                (start == 0 or tail[:1] == b"\n")
                and seq == self._seq
                and chain == self._chain
                and _chain_digest(previous, {"seq": seq, **record}) == chain
            )
        except (ValueError, KeyError, TypeError, AttributeError):
            intact = False
        if not intact:
            raise JournalError(
                f"journal {path} does not end with its last record "
                f"(seq {self._seq}): modified after checkpoint"
            )
        return type(self)(
            path, open(path, "ab"), seq=self._seq, chain=self._chain
        )

    # -- introspection --------------------------------------------------
    @property
    def path(self) -> Path:
        """The journal file."""
        return self._path

    @property
    def seq(self) -> int:
        """Sequence number of the last record written."""
        return self._seq

    def cursor(self) -> dict[str, Any]:
        """The append position checkpoints embed (seq, chain, offset)."""
        return {"seq": self._seq, "chain": self._chain, "offset": self._offset}

    def set_context(self, **context: Any) -> None:
        """Attach ambient correlation context to subsequent records.

        Every record written after this call carries a ``ctx`` key in
        its payload with the given fields (e.g. ``request_id=...`` so a
        journal transition joins to the HTTP request that caused it).
        Context lives *inside* the payload, so the hash chain and every
        existing reader/replayer are untouched.  Passing ``None`` for a
        field removes it; an empty context writes no ``ctx`` key.
        """
        for key, value in context.items():
            if value is None:
                self._context.pop(key, None)
            else:
                self._context[key] = value

    # -- writing --------------------------------------------------------
    def _append(self, rtype: str, payload: dict[str, Any]) -> int:
        if self._handle is None:
            raise JournalError(f"journal {self._path} is closed")
        if self._context:
            payload = {**payload, "ctx": dict(self._context)}
        record = {
            "seq": self._seq + 1,
            "type": rtype,
            "ts": time.time(),
            "payload": payload,
        }
        chain = _chain_digest(self._chain, record)
        record["chain"] = chain
        line = (canonical_json(record) + "\n").encode("utf-8")
        self._handle.write(line)
        self._handle.flush()
        self._tail = (len(line), self._chain)
        self._seq += 1
        self._chain = chain
        self._offset += len(line)
        _RECORDS.inc()
        return self._seq

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- engine-facing hooks (duck-typed over core objects) -------------
    def record_session_start(
        self,
        *,
        dataset: Any,
        config: Any,
        query: np.ndarray,
        rng_state: dict[str, Any],
        support: int,
        views_per_major: int,
    ) -> int:
        """Record the run's full starting conditions."""
        # Deferred import: repro.core.serialization imports the engine,
        # which imports this module; by the time a session starts the
        # core package is fully loaded.
        from repro.core.serialization import dataset_fingerprint

        config_payload = _jsonify(config.to_dict())
        return self._append(
            "session_start",
            {
                "dataset": dataset_fingerprint(dataset),
                "config": config_payload,
                "config_digest": sha256_hex(canonical_json(config_payload)),
                "query": [float(x) for x in np.asarray(query, dtype=float)],
                "rng_digest": rng_state_digest(rng_state),
                "support": int(support),
                "views_per_major": int(views_per_major),
            },
        )

    def record_view(self, event: Any, state: Any) -> int:
        """Record one emitted :class:`~repro.core.engine.ViewRequest`."""
        return self._append("view", view_payload(event, state))

    def record_decision(self, decision: Any, view: Any, *, step: int) -> int:
        """Record one submitted user decision.

        The selected *original* dataset indices are stored (sorted), so
        replay can rebuild the live-order boolean mask regardless of
        pruning, plus a separator digest for quick comparisons.
        """
        selected = sorted(
            int(i) for i in np.asarray(view.live_indices)[decision.selected_mask]
        )
        return self._append(
            "decision",
            {
                "step": int(step),
                "accepted": bool(decision.accepted),
                "threshold": (
                    None if decision.threshold is None else float(decision.threshold)
                ),
                "weight": float(decision.weight),
                "note": str(decision.note),
                "selected_count": len(selected),
                "selected_indices": selected,
                "separator_digest": indices_digest(selected),
            },
        )

    def record_checkpoint(self, state: Any) -> int:
        """Record that the session was suspended to a checkpoint."""
        return self._append(
            "checkpoint",
            {
                "step": int(state.step),
                "major": int(state.major),
                "minor": int(state.minor),
                "live_count": int(state.live.size),
            },
        )

    def record_resume(self, state: Any) -> int:
        """Record that the session resumed from a checkpoint."""
        return self._append(
            "resume",
            {
                "step": int(state.step),
                "major": int(state.major),
                "minor": int(state.minor),
                "live_count": int(state.live.size),
            },
        )

    def record_result(self, result: Any) -> int:
        """Record the terminal :class:`~repro.core.engine.SearchResult`."""
        return self._append(
            "result",
            {
                "reason": result.reason.name,
                "support": int(result.support),
                "neighbor_indices": [int(i) for i in result.neighbor_indices],
                "probabilities_digest": array_digest(result.probabilities),
                "major_iterations": len(result.session.major_records),
                "total_views": int(result.session.total_views),
                "accepted_views": int(result.session.accepted_views),
            },
        )


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def _check_ends_at(path: Path, size: int, offset: int) -> None:
    """Raise unless a journal of *size* bytes ends at cursor *offset*."""
    if size < offset:
        raise JournalError(
            f"journal {path} is shorter than its checkpoint cursor "
            f"({size} < {offset} bytes): truncated after checkpoint"
        )
    if size > offset:
        raise JournalError(
            f"journal {path} already continued past the checkpoint "
            f"cursor ({size} > {offset} bytes); refusing to fork "
            "its history"
        )


def _parse_records(data: bytes, path: Path) -> list[JournalRecord]:
    """Decode and fully validate journal bytes (chain, seq, schema)."""
    if not data:
        raise JournalError(f"journal {path} is empty")
    if not data.endswith(b"\n"):
        raise JournalError(
            f"journal {path} is truncated: final record is incomplete"
        )
    records: list[JournalRecord] = []
    chain = _GENESIS
    for lineno, raw in enumerate(data.decode("utf-8").splitlines()):
        try:
            obj = json.loads(raw)
        except ValueError as exc:
            raise JournalError(
                f"journal {path} is corrupt at record {lineno}: {exc}"
            ) from exc
        if not isinstance(obj, dict):
            raise JournalError(
                f"journal {path} is corrupt at record {lineno}: not an object"
            )
        try:
            record = JournalRecord(
                seq=int(obj["seq"]),
                type=str(obj["type"]),
                ts=float(obj["ts"]),
                payload=dict(obj["payload"]),
                chain=str(obj["chain"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(
                f"journal {path} is corrupt at record {lineno}: "
                f"missing or malformed field ({exc})"
            ) from exc
        if record.seq != lineno:
            raise JournalError(
                f"journal {path} has a sequence gap at record {lineno} "
                f"(found seq {record.seq})"
            )
        expected = _chain_digest(
            chain,
            {
                "seq": record.seq,
                "type": record.type,
                "ts": record.ts,
                "payload": record.payload,
            },
        )
        if record.chain != expected:
            raise JournalError(
                f"journal {path} hash chain breaks at record {lineno}: "
                "the record (or one before it) was modified"
            )
        chain = record.chain
        records.append(record)
    header = records[0]
    if header.type != "journal_header":
        raise JournalError(
            f"journal {path} does not start with a header record "
            f"(found {header.type!r})"
        )
    if header.payload.get("format") != JOURNAL_FORMAT:
        raise JournalError(
            f"{path} is not a session journal "
            f"(format={header.payload.get('format')!r})"
        )
    if header.payload.get("schema_version") != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"journal {path} has unsupported schema version "
            f"{header.payload.get('schema_version')!r} "
            f"(this reader supports {JOURNAL_SCHEMA_VERSION})"
        )
    return records


def read_journal(path: str | Path) -> list[JournalRecord]:
    """Read and validate a journal; raises :class:`JournalError`.

    Validation covers: non-empty file, complete final line, JSON
    decodability, required fields, gapless sequence numbers, an intact
    hash chain from the genesis link, and a header of the supported
    format and schema version.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    return _parse_records(data, path)


def journal_summary(records: list[JournalRecord]) -> dict[str, Any]:
    """Aggregate statistics over validated records (for ``inspect``)."""
    by_type: dict[str, int] = {}
    for record in records:
        by_type[record.type] = by_type.get(record.type, 0) + 1
    decisions = [r for r in records if r.type == "decision"]
    accepted = sum(1 for r in decisions if r.payload["accepted"])
    result = next((r for r in records if r.type == "result"), None)
    start = next((r for r in records if r.type == "session_start"), None)
    return {
        "records": len(records),
        "by_type": by_type,
        "views": by_type.get("view", 0),
        "decisions": len(decisions),
        "accepted": accepted,
        "checkpoints": by_type.get("checkpoint", 0),
        "resumes": by_type.get("resume", 0),
        "finished": result is not None,
        "reason": result.payload["reason"] if result else None,
        "dataset": (start.payload["dataset"].get("name") if start else None),
        "wall_seconds": (
            records[-1].ts - records[0].ts if len(records) > 1 else 0.0
        ),
    }
