"""Tests for deterministic journal replay, diffing, and inspection."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine
from repro.core.search import drive
from repro.exceptions import JournalError
from repro.interaction.oracle import OracleUser
from repro.obs.journal import (
    SessionJournal,
    canonical_json,
    host_platform,
    read_journal,
    sha256_hex,
)
from repro.obs.replay import (
    dataset_from_provenance,
    inspect_journal,
    kde_drift_bound,
    kernel_sum_length,
    replay_journal,
)

CONFIG = SearchConfig(
    support=15,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=2,
    projection_restarts=2,
)

_GENESIS = "repro.session-journal:genesis"

_PROVENANCE = {
    "kind": "projected_clusters",
    "seed": 99,
    "spec": {
        "n_points": 600,
        "dim": 10,
        "n_clusters": 3,
        "cluster_dim": 4,
        "axis_parallel": True,
        "noise_fraction": 0.1,
    },
}


@pytest.fixture(scope="module")
def clustered():
    # Matches _PROVENANCE exactly, so provenance-driven replay rebuilds
    # this same dataset (and the conftest small_clustered fixture).
    return dataset_from_provenance(_PROVENANCE)


@pytest.fixture(scope="module")
def journaled_run(clustered, tmp_path_factory):
    path = tmp_path_factory.mktemp("replay") / "run.jsonl"
    qi = int(clustered.cluster_indices(0)[0])
    journal = SessionJournal.create(path, provenance=_PROVENANCE)
    engine = SearchEngine(clustered, CONFIG, journal=journal)
    result = drive(engine, clustered.points[qi], OracleUser(clustered, qi))
    journal.close()
    return path, result


def _perturb(path, out_path, *, seq, mutate):
    """Alter one record's payload and recompute the whole hash chain.

    The result is a journal that *validates* (chain OK) but no longer
    matches what the engine actually did — exactly what replay exists
    to catch.
    """
    chain = _GENESIS
    lines = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        if obj["seq"] == seq:
            mutate(obj["payload"])
        record = {k: obj[k] for k in ("seq", "type", "ts", "payload")}
        chain = sha256_hex(chain + canonical_json(record))
        record["chain"] = chain
        lines.append(canonical_json(record))
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


class TestCleanReplay:
    def test_replay_with_explicit_dataset(self, journaled_run, clustered):
        path, result = journaled_run
        report = replay_journal(path, dataset=clustered)
        assert report.clean
        assert report.finished
        assert report.views_checked == result.session.total_views
        assert report.decisions_replayed == result.session.total_views
        assert "CLEAN" in report.describe()

    def test_replay_from_provenance(self, journaled_run):
        path, _ = journaled_run
        assert replay_journal(path).clean

    def test_unfinished_journal_replays_clean(self, clustered, tmp_path):
        path = tmp_path / "partial.jsonl"
        qi = int(clustered.cluster_indices(0)[0])
        journal = SessionJournal.create(path, provenance=_PROVENANCE)
        engine = SearchEngine(clustered, CONFIG, journal=journal)
        user = OracleUser(clustered, qi)
        event = engine.start(clustered.points[qi])
        for _ in range(3):
            event = engine.submit(user.review_view(event.view))
        engine.close()
        journal.close()
        report = replay_journal(path, dataset=clustered)
        assert report.clean
        assert not report.finished
        assert "unfinished" in report.describe()


    def test_a_view_with_an_infinite_statistic_replays_clean(
        self, clustered, tmp_path
    ):
        """A binned grid whose median cell is empty has an infinite
        peak-to-median ratio; the journal records it as "inf" (strict
        JSON) and replay compares it exactly."""
        from dataclasses import replace

        from repro.interaction.base import UserDecision, validate_decision

        path = tmp_path / "binned.jsonl"
        qi = int(clustered.cluster_indices(0)[0])
        config = replace(
            CONFIG, kde_mode="binned", min_major_iterations=3,
            max_major_iterations=3,
        )
        journal = SessionJournal.create(path, provenance=_PROVENANCE)
        engine = SearchEngine(clustered, config, journal=journal)
        user = OracleUser(clustered, qi)
        event = engine.start(clustered.points[qi])
        while not engine.finished:
            if event.step % 3 == 0:
                decision = UserDecision.reject(event.view.n_points)
            else:
                decision = validate_decision(
                    user.review_view(event.view), event.view
                )
            event = engine.submit(decision)
        journal.close()
        views = [r for r in read_journal(path) if r.type == "view"]
        assert "inf" in [r.payload["stats"]["peak_to_median"] for r in views]
        report = replay_journal(path, dataset=clustered)
        assert report.clean and report.finished
        assert "inf" in inspect_journal(path)


class TestDivergence:
    def test_perturbed_view_reports_exact_seq(
        self, journaled_run, clustered, tmp_path
    ):
        path, _ = journaled_run
        target = next(
            r.seq for r in read_journal(path) if r.type == "view"
        )

        def flip_digest(payload):
            payload["live_digest"] = "0" * 64

        doctored = _perturb(
            path, tmp_path / "view.jsonl", seq=target, mutate=flip_digest
        )
        report = replay_journal(doctored, dataset=clustered)
        assert not report.clean
        assert report.divergence.seq == target
        assert report.divergence.kind == "view"
        assert report.divergence.fields == ("live_digest",)
        assert f"DIVERGED at seq {target}" in report.describe()

    def test_perturbed_decision_cascades_downstream(
        self, journaled_run, clustered, tmp_path
    ):
        """A changed decision diverges at the first state it influences.

        The decision itself replays (it is an *input*, not a check), so
        the divergence surfaces at a later record — a subsequent view
        if the live set shifts, or the terminal result where the
        accumulated counting probabilities differ.
        """
        path, _ = journaled_run
        records = read_journal(path)
        target = next(r.seq for r in records if r.type == "decision")

        def drop_half(payload):
            kept = payload["selected_indices"][::2]
            payload["selected_indices"] = kept
            payload["selected_count"] = len(kept)

        doctored = _perturb(
            path, tmp_path / "dec.jsonl", seq=target, mutate=drop_half
        )
        report = replay_journal(doctored, dataset=clustered)
        assert not report.clean
        assert report.divergence.seq > target
        assert report.divergence.kind in ("view", "result")

    def test_perturbed_result_detected(
        self, journaled_run, clustered, tmp_path
    ):
        path, _ = journaled_run
        target = read_journal(path)[-1].seq

        def clip_neighbors(payload):
            payload["neighbor_indices"] = payload["neighbor_indices"][:1]

        doctored = _perturb(
            path, tmp_path / "res.jsonl", seq=target, mutate=clip_neighbors
        )
        report = replay_journal(doctored, dataset=clustered)
        assert not report.clean
        assert report.divergence.seq == target
        assert report.divergence.kind == "result"
        assert "neighbor_indices" in report.divergence.fields


#: A platform stamp no host produces.
FOREIGN_PLATFORM = {"numpy": "0.0.0", "machine": "elsewhere"}


def _stamped(path, out_path, platform):
    """*path* re-chained with its header platform replaced (``None``
    drops the stamp, as in journals older than the stamp)."""

    def stamp(payload):
        payload.pop("platform", None)
        if platform is not None:
            payload["platform"] = platform

    return _perturb(path, out_path, seq=0, mutate=stamp)


def _first_view(path):
    return next(r for r in read_journal(path) if r.type == "view")


def _flip_density(payload):
    payload["density_digest"] = "0" * 64


def _move_stat(name, relative):
    def mutate(payload):
        payload["stats"][name] *= 1.0 + relative

    return mutate


class TestPlatformTiers:
    """Byte-exact at home; bounded KDE-grid drift on another platform."""

    def test_header_carries_the_host_platform(self, journaled_run, clustered):
        path, _ = journaled_run
        assert read_journal(path)[0].payload["platform"] == host_platform()
        report = replay_journal(path, dataset=clustered)
        assert report.platform == host_platform()
        assert report.drift_seqs == ()
        assert "drift" not in report.describe()

    def test_home_density_perturbation_diverges(
        self, journaled_run, clustered, tmp_path
    ):
        path, _ = journaled_run
        view = _first_view(path)
        doctored = _perturb(
            path, tmp_path / "home.jsonl", seq=view.seq, mutate=_flip_density
        )
        report = replay_journal(doctored, dataset=clustered)
        assert not report.clean
        assert report.divergence.seq == view.seq
        assert report.divergence.fields == ("density_digest",)

    @pytest.mark.parametrize(
        "platform, named",
        [(FOREIGN_PLATFORM, "numpy 0.0.0"), (None, "unrecorded")],
        ids=["foreign", "unrecorded"],
    )
    def test_foreign_density_perturbation_is_drift(
        self, journaled_run, clustered, tmp_path, platform, named
    ):
        path, _ = journaled_run
        view = _first_view(path)
        foreign = _stamped(path, tmp_path / "foreign.jsonl", platform)
        doctored = _perturb(
            foreign, tmp_path / "drift.jsonl", seq=view.seq, mutate=_flip_density
        )
        report = replay_journal(doctored, dataset=clustered)
        assert report.clean, report.describe()
        assert report.finished
        assert report.drift_seqs == (view.seq,)
        text = report.describe()
        assert f"drift at:  seq {view.seq}" in text
        assert f"platform:  {named}" in text

    def test_foreign_stats_within_bound_is_drift(
        self, journaled_run, clustered, tmp_path
    ):
        path, _ = journaled_run
        view = _first_view(path)
        bound = kde_drift_bound(
            kernel_sum_length(CONFIG, view.payload["live_count"])
        )
        foreign = _stamped(path, tmp_path / "foreign.jsonl", FOREIGN_PLATFORM)
        doctored = _perturb(
            foreign,
            tmp_path / "near.jsonl",
            seq=view.seq,
            mutate=_move_stat("peak_density", 0.5 * bound),
        )
        report = replay_journal(doctored, dataset=clustered)
        assert report.clean, report.describe()
        assert report.drift_seqs == (view.seq,)

    def test_foreign_stats_past_bound_diverges(
        self, journaled_run, clustered, tmp_path
    ):
        path, _ = journaled_run
        view = _first_view(path)
        bound = kde_drift_bound(
            kernel_sum_length(CONFIG, view.payload["live_count"])
        )
        foreign = _stamped(path, tmp_path / "foreign.jsonl", FOREIGN_PLATFORM)
        doctored = _perturb(
            foreign,
            tmp_path / "far.jsonl",
            seq=view.seq,
            mutate=_move_stat("peak_density", 4.0 * bound),
        )
        report = replay_journal(doctored, dataset=clustered)
        assert not report.clean
        assert report.divergence.seq == view.seq
        assert report.divergence.fields == ("stats",)
        assert "drift bound" in report.divergence.detail

    def test_foreign_query_percentile_stays_exact(
        self, journaled_run, clustered, tmp_path
    ):
        path, _ = journaled_run
        view = _first_view(path)
        foreign = _stamped(path, tmp_path / "foreign.jsonl", FOREIGN_PLATFORM)

        def nudge(payload):
            payload["stats"]["query_percentile"] += 1e-9

        doctored = _perturb(
            foreign, tmp_path / "pct.jsonl", seq=view.seq, mutate=nudge
        )
        report = replay_journal(doctored, dataset=clustered)
        assert not report.clean
        assert report.divergence.fields == ("stats",)

    @pytest.mark.parametrize("field", ["live_digest", "basis_digest"])
    def test_foreign_state_perturbation_diverges(
        self, journaled_run, clustered, tmp_path, field
    ):
        path, _ = journaled_run
        view = _first_view(path)
        foreign = _stamped(path, tmp_path / "foreign.jsonl", FOREIGN_PLATFORM)

        def flip(payload):
            # Drift in the same view must not mask the state change.
            _flip_density(payload)
            payload[field] = "0" * 64

        doctored = _perturb(
            foreign, tmp_path / "state.jsonl", seq=view.seq, mutate=flip
        )
        report = replay_journal(doctored, dataset=clustered)
        assert not report.clean
        assert report.divergence.seq == view.seq
        assert report.divergence.fields == (field,)


class TestDriftBound:
    def test_bound_at_paper_scale(self):
        # 2*gamma(499) + 64u: about 1.2e-13 for a 500-point kernel sum.
        assert 1.1e-13 < kde_drift_bound(500) < 1.3e-13

    def test_bound_grows_with_the_sum(self):
        assert kde_drift_bound(1) == 64 * 2.0**-53
        assert kde_drift_bound(10) < kde_drift_bound(100) < kde_drift_bound(
            10_000
        )

    def test_sum_length_per_kde_mode(self):
        assert kernel_sum_length(CONFIG, 400) == 400
        binned = SearchConfig(kde_mode="binned", grid_resolution=60)
        assert kernel_sum_length(binned, 400) == 119


class TestOperatorErrors:
    def test_mismatched_dataset_is_an_error_not_a_divergence(
        self, journaled_run
    ):
        path, _ = journaled_run
        other = dataset_from_provenance(dict(_PROVENANCE, seed=7))
        with pytest.raises(JournalError, match="dataset mismatch"):
            replay_journal(path, dataset=other)

    def test_missing_provenance_requires_explicit_dataset(
        self, clustered, tmp_path
    ):
        path = tmp_path / "noprov.jsonl"
        qi = int(clustered.cluster_indices(0)[0])
        journal = SessionJournal.create(path)  # no provenance
        engine = SearchEngine(clustered, CONFIG, journal=journal)
        user = OracleUser(clustered, qi)
        event = engine.start(clustered.points[qi])
        engine.submit(user.review_view(event.view))
        engine.close()
        journal.close()
        with pytest.raises(JournalError, match="no dataset provenance"):
            replay_journal(path)
        assert replay_journal(path, dataset=clustered).clean

    def test_unknown_provenance_kind(self):
        with pytest.raises(JournalError, match="unknown dataset provenance"):
            dataset_from_provenance({"kind": "martian"})

    def test_corrupt_journal_raises_before_any_engine_runs(
        self, journaled_run, tmp_path
    ):
        path, _ = journaled_run
        clipped = tmp_path / "clipped.jsonl"
        clipped.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(JournalError):
            replay_journal(clipped)

    def test_retired_subsampled_mode_is_an_error_not_a_traceback(
        self, journaled_run, tmp_path, capsys
    ):
        from repro.__main__ import main

        path, _ = journaled_run
        retired = _perturb(
            path,
            tmp_path / "subsampled.jsonl",
            seq=1,
            mutate=lambda p: p["config"].update(
                kde_mode="subsampled", kde_subsample=200
            ),
        )
        with pytest.raises(JournalError, match="subsampled"):
            replay_journal(retired)
        assert main(["replay", str(retired)]) == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_headerless_journal_rejected(self, tmp_path):
        path = tmp_path / "short.jsonl"
        journal = SessionJournal.create(path, provenance=_PROVENANCE)
        journal.close()
        with pytest.raises(JournalError, match="no session_start"):
            replay_journal(path)


class TestProvenance:
    def test_case1_kind(self):
        dataset = dataset_from_provenance(
            {"kind": "case1", "seed": 3, "n_points": 300}
        )
        assert dataset.size == 300

    def test_rebuild_is_deterministic(self):
        a = dataset_from_provenance(_PROVENANCE)
        b = dataset_from_provenance(_PROVENANCE)
        assert np.array_equal(a.points, b.points)

    def test_malformed_spec_is_an_error(self):
        with pytest.raises(JournalError, match="cannot rebuild"):
            dataset_from_provenance(
                {"kind": "projected_clusters", "seed": 1, "spec": {"bad": 1}}
            )


class TestGoldenJournal:
    @pytest.mark.parametrize(
        "filename",
        [
            "session_journal_golden.jsonl",
            "session_journal_binned.jsonl",
        ],
    )
    def test_committed_golden_replays_clean(self, filename):
        """The committed flight-recorder baselines still reproduce.

        One journal per ``kde_mode`` (the legacy name is the exact
        mode).  Regenerate deliberately with
        ``PYTHONPATH=src python tests/golden/make_session_journal.py``
        — a divergence here means engine behavior changed for the
        pinned Case-1 workload under that density mode.
        """
        from pathlib import Path

        golden = Path(__file__).parents[1] / "golden" / filename
        report = replay_journal(golden)
        assert report.clean, report.describe()
        assert report.finished


class TestInspect:
    def test_timeline_renders_every_record(self, journaled_run):
        path, _ = journaled_run
        records = read_journal(path)
        text = inspect_journal(path)
        assert f"{len(records)} records, chain OK" in text
        assert "session_start" in text
        assert "summary:" in text
        assert "finished:    yes" in text
        # One timeline row per record (plus header + 6 summary lines).
        assert len(text.splitlines()) == len(records) + 7

    def test_checkpoint_resume_rows(self, clustered, tmp_path):
        from repro.core.serialization import checkpoint_to_dict, resume_engine

        path = tmp_path / "ckpt.jsonl"
        qi = int(clustered.cluster_indices(0)[0])
        journal = SessionJournal.create(path, provenance=_PROVENANCE)
        engine = SearchEngine(clustered, CONFIG, journal=journal)
        user = OracleUser(clustered, qi)
        event = engine.start(clustered.points[qi])
        event = engine.submit(user.review_view(event.view))
        payload = checkpoint_to_dict(engine)
        engine.close()
        journal.close()
        resumed_journal = SessionJournal.resume(
            path, payload["journal"]["cursor"]
        )
        engine, event = resume_engine(
            payload, clustered, journal=resumed_journal
        )
        while not engine.finished:
            event = engine.submit(user.review_view(event.view))
        resumed_journal.close()

        text = inspect_journal(path)
        assert "checkpoint" in text
        assert "resume" in text
        assert "checkpoints: 1 (resumes: 1)" in text
        # The stitched journal still replays clean end to end.
        assert replay_journal(path, dataset=clustered).clean
