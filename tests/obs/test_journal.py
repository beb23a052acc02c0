"""Robustness tests for the session flight recorder journal."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine
from repro.core.search import drive
from repro.core.serialization import checkpoint_to_dict, resume_engine
from repro.exceptions import JournalError
from repro.interaction.oracle import OracleUser
from repro.obs.journal import (
    JOURNAL_FORMAT,
    JOURNAL_SCHEMA_VERSION,
    SessionJournal,
    canonical_json,
    journal_summary,
    read_journal,
    sha256_hex,
)

CONFIG = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=2,
    projection_restarts=2,
)

_GENESIS = "repro.session-journal:genesis"


@pytest.fixture(scope="module")
def clustered(small_clustered_module):
    return small_clustered_module.dataset


@pytest.fixture(scope="module")
def small_clustered_module():
    from repro.data.synthetic import (
        ProjectedClusterSpec,
        generate_projected_clusters,
    )

    spec = ProjectedClusterSpec(
        n_points=600,
        dim=10,
        n_clusters=3,
        cluster_dim=4,
        axis_parallel=True,
        noise_fraction=0.1,
    )
    return generate_projected_clusters(spec, np.random.default_rng(99))


@pytest.fixture(scope="module")
def journaled_run(clustered, tmp_path_factory):
    """One finished journaled run, shared by the read-only tests."""
    path = tmp_path_factory.mktemp("journal") / "run.jsonl"
    qi = int(clustered.cluster_indices(0)[0])
    journal = SessionJournal.create(path)
    engine = SearchEngine(clustered, CONFIG, journal=journal)
    result = drive(engine, clustered.points[qi], OracleUser(clustered, qi))
    journal.close()
    return path, result


def _rewrite(path, records, out_path):
    """Re-encode raw record dicts with a freshly recomputed hash chain.

    This is the attack surface replay must catch: a journal whose chain
    is *internally consistent* but whose content was altered.
    """
    chain = _GENESIS
    lines = []
    for obj in records:
        record = {k: obj[k] for k in ("seq", "type", "ts", "payload")}
        chain = sha256_hex(chain + canonical_json(record))
        record["chain"] = chain
        lines.append(canonical_json(record))
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


def _raw_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestReadJournal:
    def test_reads_a_fresh_run(self, journaled_run):
        path, result = journaled_run
        records = read_journal(path)
        assert records[0].type == "journal_header"
        assert records[0].payload["format"] == JOURNAL_FORMAT
        assert records[0].payload["schema_version"] == JOURNAL_SCHEMA_VERSION
        assert records[1].type == "session_start"
        assert records[-1].type == "result"
        assert [r.seq for r in records] == list(range(len(records)))
        types = {r.type for r in records}
        assert {"view", "decision"} <= types

    def test_summary(self, journaled_run):
        path, result = journaled_run
        summary = journal_summary(read_journal(path))
        assert summary["finished"]
        assert summary["views"] == summary["decisions"]
        assert summary["views"] == result.session.total_views
        assert summary["checkpoints"] == 0 and summary["resumes"] == 0

    def test_result_record_matches_run(self, journaled_run):
        path, result = journaled_run
        terminal = read_journal(path)[-1]
        assert terminal.payload["reason"] == result.reason.name
        assert terminal.payload["neighbor_indices"] == [
            int(i) for i in result.neighbor_indices
        ]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(JournalError, match="empty"):
            read_journal(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            read_journal(tmp_path / "nope.jsonl")

    def test_truncated_final_line_rejected(self, journaled_run, tmp_path):
        path, _ = journaled_run
        clipped = tmp_path / "clipped.jsonl"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(JournalError, match="truncated"):
            read_journal(clipped)

    def test_edited_record_breaks_the_chain(self, journaled_run, tmp_path):
        path, _ = journaled_run
        lines = path.read_text().splitlines()
        obj = json.loads(lines[3])
        obj["payload"]["step"] = 999  # in-place edit, chain not recomputed
        lines[3] = canonical_json(obj)
        doctored = tmp_path / "doctored.jsonl"
        doctored.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="chain breaks at record 3"):
            read_journal(doctored)

    def test_sequence_gap_rejected(self, journaled_run, tmp_path):
        path, _ = journaled_run
        raw = _raw_records(path)
        del raw[2]  # drop a middle record, renumbering nothing
        gapped = _rewrite(path, raw, tmp_path / "gapped.jsonl")
        with pytest.raises(JournalError, match="sequence gap"):
            read_journal(gapped)

    def test_schema_version_skew_rejected(self, journaled_run, tmp_path):
        path, _ = journaled_run
        raw = _raw_records(path)
        raw[0]["payload"]["schema_version"] = JOURNAL_SCHEMA_VERSION + 1
        skewed = _rewrite(path, raw, tmp_path / "skewed.jsonl")
        with pytest.raises(JournalError, match="unsupported schema version"):
            read_journal(skewed)

    def test_wrong_format_rejected(self, journaled_run, tmp_path):
        path, _ = journaled_run
        raw = _raw_records(path)
        raw[0]["payload"]["format"] = "not.a.journal"
        wrong = _rewrite(path, raw, tmp_path / "wrong.jsonl")
        with pytest.raises(JournalError, match="not a session journal"):
            read_journal(wrong)


class TestWriter:
    def test_create_truncates_existing_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("garbage\n" * 10)
        journal = SessionJournal.create(path)
        journal.close()
        records = read_journal(path)
        assert len(records) == 1 and records[0].type == "journal_header"

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = SessionJournal.create(tmp_path / "j.jsonl")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(JournalError, match="closed"):
            journal._append("view", {})

    def test_context_manager_closes(self, tmp_path):
        with SessionJournal.create(tmp_path / "j.jsonl") as journal:
            assert journal.seq == 0
        with pytest.raises(JournalError, match="closed"):
            journal._append("view", {})

    def test_cursor_tracks_the_append_position(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SessionJournal.create(path)
        cursor = journal.cursor()
        journal.close()
        assert cursor["seq"] == 0
        assert cursor["offset"] == path.stat().st_size
        assert cursor["chain"] == read_journal(path)[-1].chain


class TestResumeAppend:
    def _journal_with_cursor(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SessionJournal.create(path)
        cursor = journal.cursor()
        journal.close()
        return path, cursor

    def test_resume_appends_without_rewriting(self, tmp_path):
        path, cursor = self._journal_with_cursor(tmp_path)
        before = path.read_bytes()
        resumed = SessionJournal.resume(path, cursor)
        resumed._append("resume", {"step": 1})
        resumed.close()
        after = path.read_bytes()
        assert after.startswith(before)  # append-only: prefix untouched
        records = read_journal(path)  # chain continuous across the seam
        assert [r.type for r in records] == ["journal_header", "resume"]

    def test_resume_rejects_truncated_file(self, tmp_path):
        path, cursor = self._journal_with_cursor(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(JournalError, match="shorter than"):
            SessionJournal.resume(path, cursor)

    def test_resume_refuses_to_fork_history(self, tmp_path):
        path, cursor = self._journal_with_cursor(tmp_path)
        resumed = SessionJournal.resume(path, cursor)
        resumed._append("resume", {"step": 1})
        resumed.close()
        # The stale cursor now points mid-file: appending would fork.
        with pytest.raises(JournalError, match="refusing to fork"):
            SessionJournal.resume(path, cursor)

    def test_resume_rejects_malformed_cursor(self, tmp_path):
        path, _ = self._journal_with_cursor(tmp_path)
        with pytest.raises(JournalError, match="malformed journal cursor"):
            SessionJournal.resume(path, {"seq": 0})

    def test_resume_rejects_mismatched_chain(self, tmp_path):
        path, cursor = self._journal_with_cursor(tmp_path)
        cursor = dict(cursor, chain="0" * 64)
        with pytest.raises(JournalError, match="does not end at"):
            SessionJournal.resume(path, cursor)


class TestReopen:
    """``reopen`` checks only the tail the writer itself left behind."""

    def _closed_writer(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SessionJournal.create(path)
        journal._append("view", {"step": 1})
        journal._append("checkpoint", {"step": 1})
        journal.close()
        return path, journal

    def test_reopen_appends_without_rewriting(self, tmp_path):
        path, journal = self._closed_writer(tmp_path)
        before = path.read_bytes()
        reopened = journal.reopen()
        assert reopened.cursor() == journal.cursor()
        reopened._append("resume", {"step": 1})
        reopened.close()
        assert path.read_bytes().startswith(before)
        assert [r.type for r in read_journal(path)][-2:] == [
            "checkpoint",
            "resume",
        ]
        # The reopened writer knows its own tail in turn.
        reopened.reopen().close()

    def test_reopen_rejects_truncated_file(self, tmp_path):
        path, journal = self._closed_writer(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(JournalError, match="shorter than"):
            journal.reopen()

    def test_reopen_refuses_to_fork_history(self, tmp_path):
        path, journal = self._closed_writer(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"{}\n")
        with pytest.raises(JournalError, match="refusing to fork"):
            journal.reopen()

    @pytest.mark.parametrize("field", ["ts", "seq", "chain", "payload"])
    def test_reopen_rejects_an_altered_last_record(self, tmp_path, field):
        path, journal = self._closed_writer(tmp_path)
        lines = path.read_bytes().split(b"\n")
        record = json.loads(lines[-2])
        original = len(lines[-2])
        if field == "ts":
            line = bytearray(lines[-2])
            line[line.index(b'"ts":') + 6] ^= 1
            lines[-2] = bytes(line)
        else:
            if field == "seq":
                record["seq"] = 1
            elif field == "chain":
                record["chain"] = record["chain"][::-1]
            else:
                record["payload"]["step"] = 7
            lines[-2] = canonical_json(record).encode("utf-8")
        assert len(lines[-2]) == original  # same length: only content moved
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalError, match="does not end with its last"):
            journal.reopen()

    def test_reopen_reads_only_the_tail(self, tmp_path):
        """A flip before the last record is left to the full checks:
        ``resume`` and ``read_journal`` catch it, ``reopen`` does not."""
        path, journal = self._closed_writer(tmp_path)
        data = bytearray(path.read_bytes())
        at = data.index(b'"ts":', data.index(b"\n")) + 6
        data[at] ^= 1
        path.write_bytes(bytes(data))
        journal.reopen().close()
        with pytest.raises(JournalError, match="hash chain breaks at record 1"):
            SessionJournal.resume(path, journal.cursor())
        with pytest.raises(JournalError, match="hash chain breaks at record 1"):
            read_journal(path)

    def test_a_writer_that_appended_nothing_checks_the_whole_file(
        self, tmp_path
    ):
        path, journal = self._closed_writer(tmp_path)
        resumed = SessionJournal.resume(path, journal.cursor())
        resumed.close()
        data = bytearray(path.read_bytes())
        data[data.index(b'"ts":') + 6] ^= 1
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="hash chain breaks at record 0"):
            resumed.reopen()


class TestEngineIntegration:
    def test_checkpoint_embeds_cursor_and_resume_appends(
        self, clustered, tmp_path
    ):
        """The full suspend/resume lifecycle yields ONE continuous journal."""
        path = tmp_path / "ckpt.jsonl"
        qi = int(clustered.cluster_indices(0)[0])
        journal = SessionJournal.create(path)
        engine = SearchEngine(clustered, CONFIG, journal=journal)
        user = OracleUser(clustered, qi)
        event = engine.start(clustered.points[qi])
        for _ in range(2):
            event = engine.submit(user.review_view(event.view))
        payload = checkpoint_to_dict(engine)
        engine.close()
        journal.close()
        assert payload["journal"]["path"] == str(path)
        cursor = payload["journal"]["cursor"]

        resumed_journal = SessionJournal.resume(path, cursor)
        engine, event = resume_engine(
            payload, clustered, journal=resumed_journal
        )
        while not engine.finished:
            event = engine.submit(user.review_view(event.view))
        resumed_journal.close()

        summary = journal_summary(read_journal(path))
        assert summary["checkpoints"] == 1
        assert summary["resumes"] == 1
        assert summary["finished"]

    def test_journaling_does_not_perturb_the_search(self, clustered, tmp_path):
        qi = int(clustered.cluster_indices(0)[0])
        plain = drive(
            SearchEngine(clustered, CONFIG),
            clustered.points[qi],
            OracleUser(clustered, qi),
        )
        journal = SessionJournal.create(tmp_path / "j.jsonl")
        journaled = drive(
            SearchEngine(clustered, CONFIG, journal=journal),
            clustered.points[qi],
            OracleUser(clustered, qi),
        )
        journal.close()
        assert np.array_equal(
            plain.neighbor_indices, journaled.neighbor_indices
        )
