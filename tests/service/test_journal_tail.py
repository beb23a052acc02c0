"""Served checkpoints and journals across hot and cold decisions.

* Every checkpoint the service stores equals a from-scratch canonical
  encode of its engine, hot or cold, across a decision whose submit
  raised half-way (after which the next decision resumes cold).
* A woken engine checks only its journal's tail.  A journal truncated,
  extended, or with its last record altered between two hot decisions
  is dropped with a warning and the session goes on.  A flip earlier in
  the file is left to the full checks: a cold resume drops the journal
  the same way, and ``replay`` refuses it.
"""

from __future__ import annotations

import logging
from pathlib import Path

import pytest

from repro.core.engine import SearchEngine
from repro.exceptions import JournalError
from repro.obs.journal import SessionJournal
from repro.obs.replay import replay_journal
from repro.service import app
from repro.service.store import SpilloverSessionStore

from tests.core.test_checkpoint_incremental import reference_bytes
from tests.service.test_hot_resume import _serve_session, _service

#: Tamper with the journal just before this decision (1-based).
TAMPER_AT = 3


def _store(spilled, tmp_path):
    if spilled:
        return SpilloverSessionStore(byte_budget=1, spill_dir=tmp_path / "spill")
    return SpilloverSessionStore()


@pytest.mark.parametrize("spilled", [False, True], ids=["hot", "cold"])
def test_stored_checkpoints_equal_a_from_scratch_encode(
    small_service_dataset, tmp_path, monkeypatch, spilled
):
    checks = []
    real_encode = app.checkpoint_to_bytes

    def encode(engine):
        data = real_encode(engine)
        checks.append(data == reference_bytes(engine))
        return data

    monkeypatch.setattr(app, "checkpoint_to_bytes", encode)
    real_submit = SearchEngine.submit
    calls = []

    def submit(self, decision):
        calls.append(self.state.step)
        if len(calls) == 3:
            # Half a decision: the state moves, then the step dies.
            self.state.minor += 1
            raise RuntimeError("submit failed half-way")
        return real_submit(self, decision)

    monkeypatch.setattr(SearchEngine, "submit", submit)
    store = _store(spilled, tmp_path)
    service = _service(store, small_service_dataset, tmp_path / "journals")
    _, events, after_failures = _serve_session(
        service, store, small_service_dataset
    )
    assert after_failures == [(True, 0)]
    assert events[-1]["type"] == "search_result"
    assert checks == [True] * (len(events) - 1)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-5])


def _extend(path):
    with open(path, "ab") as handle:
        handle.write(b"{}\n")


def _flip_ts_digit(path, record):
    """Flip the low bit of a timestamp digit of *record* (-1: the last):
    the file keeps its length and every seq and chain field."""
    data = bytearray(path.read_bytes())
    lines = data.split(b"\n")[:-1]
    start = sum(len(line) + 1 for line in lines[:record])
    data[data.index(b'"ts":', start) + 6] ^= 1
    path.write_bytes(bytes(data))


def _alter_last_record(path):
    _flip_ts_digit(path, -1)


def _flip_mid_file(path):
    _flip_ts_digit(path, 1)


def _tampered_session(dataset, spilled, tmp_path, monkeypatch, caplog, tamper):
    """Serve one journaled session and tamper with its journal file just
    before decision ``TAMPER_AT`` reopens it (a hot wake) or resumes it
    (a cold resume).  Returns the wire events, the journal path and its
    bytes right after the tamper."""
    tampered = {}
    reopens = []

    def before_reopen(path):
        reopens.append(path)
        if len(reopens) == TAMPER_AT:
            tamper(path)
            tampered["path"], tampered["bytes"] = path, path.read_bytes()

    if spilled:
        real_resume = SessionJournal.resume.__func__

        def resume(cls, path, cursor):
            before_reopen(Path(path))
            return real_resume(cls, path, cursor)

        monkeypatch.setattr(SessionJournal, "resume", classmethod(resume))
    else:
        real_reopen = SessionJournal.reopen

        def reopen(self):
            before_reopen(self.path)
            return real_reopen(self)

        monkeypatch.setattr(SessionJournal, "reopen", reopen)
    store = _store(spilled, tmp_path)
    service = _service(store, dataset, tmp_path / "journals")
    with caplog.at_level(logging.WARNING, logger="repro"):
        _, events, _ = _serve_session(service, store, dataset)
    assert len(reopens) == TAMPER_AT
    return events, tampered["path"], tampered["bytes"]


def _journal_warnings(caplog, what):
    return sum(
        f"journal {what} failed" in record.getMessage()
        for record in caplog.records
    )


@pytest.fixture
def undisturbed(small_service_dataset):
    """The wire events of the same session with nothing tampered."""
    store = SpilloverSessionStore()
    _, events, _ = _serve_session(
        _service(store, small_service_dataset), store, small_service_dataset
    )
    return events


@pytest.mark.parametrize(
    "tamper",
    [_truncate, _extend, _alter_last_record],
    ids=["truncated", "extended", "last-record-altered"],
)
def test_a_journal_changed_between_hot_decisions_is_dropped(
    small_service_dataset, undisturbed, tmp_path, monkeypatch, caplog, tamper
):
    events, path, tampered = _tampered_session(
        small_service_dataset, False, tmp_path, monkeypatch, caplog, tamper
    )
    # The session went on; its journal was dropped at that wake and
    # never written again.
    assert events == undisturbed
    assert _journal_warnings(caplog, "reopen") == 1
    assert path.read_bytes() == tampered


def test_a_mid_file_flip_is_caught_by_a_cold_resume_and_by_replay(
    small_service_dataset, undisturbed, tmp_path, monkeypatch, caplog
):
    events, path, tampered = _tampered_session(
        small_service_dataset, True, tmp_path, monkeypatch, caplog, _flip_mid_file
    )
    assert events == undisturbed
    assert _journal_warnings(caplog, "resume") == 1
    assert path.read_bytes() == tampered
    with pytest.raises(JournalError, match="hash chain breaks at record 1"):
        replay_journal(path, dataset=small_service_dataset)
