"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("demo", "diagnose", "session", "info"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_demo_options(self):
        args = build_parser().parse_args(
            ["demo", "--points", "500", "--support", "10", "--seed", "1"]
        )
        assert args.points == 500
        assert args.support == 10
        assert args.seed == 1


class TestInfo:
    def test_prints_version_and_defaults(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "support" in out
        assert "bandwidth_scale" in out


class TestDemo:
    def test_runs_and_archives(self, capsys, tmp_path):
        archive = tmp_path / "run.json"
        code = main(
            [
                "demo",
                "--points",
                "600",
                "--support",
                "12",
                "--save",
                str(archive),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision" in out
        payload = json.loads(archive.read_text())
        assert "session" in payload
        assert payload["session"]["total_views"] > 0


class TestCheckpointResume:
    DEMO = ["demo", "--points", "500", "--support", "12", "--seed", "7"]

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "run.ckpt.json"
        code = main(
            self.DEMO + ["--checkpoint", str(ckpt), "--checkpoint-step", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint written to" in out
        assert "--resume" in out
        payload = json.loads(ckpt.read_text())
        assert payload["format"] == "repro.engine-checkpoint"

        code = main(self.DEMO + ["--resume", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "precision" in out
        assert "termination_reason" in out

    def test_resume_matches_uninterrupted_run(self, capsys, tmp_path):
        code = main(self.DEMO)
        assert code == 0
        uninterrupted = capsys.readouterr().out

        ckpt = tmp_path / "run.ckpt.json"
        assert (
            main(
                self.DEMO
                + ["--checkpoint", str(ckpt), "--checkpoint-step", "3"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(self.DEMO + ["--resume", str(ckpt)]) == 0
        resumed = capsys.readouterr().out
        # Everything after the resume banner is identical to the
        # uninterrupted run's report.
        banner, _, tail = resumed.partition("\n")
        assert banner.startswith("resumed from")
        assert tail == uninterrupted

    def test_resume_rejects_mismatched_dataset(self, capsys, tmp_path):
        ckpt = tmp_path / "run.ckpt.json"
        assert (
            main(
                self.DEMO
                + ["--checkpoint", str(ckpt), "--checkpoint-step", "2"]
            )
            == 0
        )
        capsys.readouterr()
        mismatched = ["demo", "--points", "600", "--support", "12", "--seed", "7"]
        code = main(mismatched + ["--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err

    def test_parser_accepts_checkpoint_flags(self):
        args = build_parser().parse_args(
            [
                "demo",
                "--checkpoint",
                "x.json",
                "--checkpoint-step",
                "5",
                "--resume",
                "y.json",
            ]
        )
        assert args.checkpoint == "x.json"
        assert args.checkpoint_step == 5
        assert args.resume == "y.json"


class TestDiagnose:
    def test_contrast_verdicts(self, capsys):
        code = main(["diagnose", "--points", "1200", "--seed", "13"])
        assert code == 0
        out = capsys.readouterr().out
        assert "uniform data:   meaningful=False" in out
        assert "clustered data:" in out


class TestObservabilityFlags:
    def test_flags_accepted_before_subcommand(self):
        args = build_parser().parse_args(["-vv", "--trace", "info"])
        assert args.verbose == 2
        assert args.trace is True

    def test_flags_accepted_after_subcommand(self):
        args = build_parser().parse_args(["info", "-v", "--trace"])
        assert args.verbose == 1
        assert args.trace is True

    def test_trace_out_after_subcommand_not_clobbered(self):
        args = build_parser().parse_args(
            ["--trace-out", "t.json", "demo", "--points", "100"]
        )
        assert args.trace_out == "t.json"
        assert args.points == 100

    def test_flags_absent_by_default(self):
        args = build_parser().parse_args(["info"])
        assert not hasattr(args, "trace") or not args.trace
        assert getattr(args, "trace_out", None) is None

    def test_trace_prints_flame_summary(self, capsys):
        assert main(["--trace", "info"]) == 0
        out = capsys.readouterr().out
        assert "trace total" in out
        assert "spans)" in out

    def test_trace_out_writes_json(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "--trace-out",
                str(trace_path),
                "demo",
                "--points",
                "400",
                "--support",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        payload = json.loads(trace_path.read_text())
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node.get("children", []):
                walk(child)

        for root in payload["roots"]:
            walk(root)
        assert {
            "search.run",
            "search.major",
            "search.minor",
            "projection.find",
            "kde.grid",
            "connectivity.merge_tree.build",
        } <= names
        assert payload["metadata"]["command"] == "demo"

    def test_trace_out_chrome_format(self, capsys, tmp_path):
        trace_path = tmp_path / "chrome.json"
        code = main(
            ["info", "--trace-out", str(trace_path), "--trace-format", "chrome"]
        )
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert "traceEvents" in payload

    def test_demo_prints_run_summary(self, capsys):
        assert main(["demo", "--points", "400", "--support", "10"]) == 0
        out = capsys.readouterr().out
        assert "run summary:" in out
        assert "acceptance_rate" in out
        assert "termination_reason" in out


class TestMetricsOut:
    DEMO = ["demo", "--points", "400", "--support", "10", "--seed", "3"]

    def test_json_suffix_writes_metrics_document(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["--metrics-out", str(path)] + self.DEMO) == 0
        out = capsys.readouterr().out
        assert f"metrics written to {path}" in out
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.metrics"
        assert "engine.steps" in payload["metrics"]

    def test_prom_suffix_writes_openmetrics_text(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(["--metrics-out", str(path)] + self.DEMO) == 0
        content = path.read_text()
        assert content.endswith("# EOF\n")
        assert "repro_engine_steps_total" in content

    def test_metrics_out_composes_with_trace(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        code = main(
            ["--metrics-out", str(metrics), "--trace-out", str(trace)]
            + self.DEMO
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics written to" in out
        assert "trace written to" in out
        assert metrics.exists() and trace.exists()

    def test_parser_accepts_flag_after_subcommand(self):
        args = build_parser().parse_args(
            ["demo", "--metrics-out", "m.json", "--points", "100"]
        )
        assert args.metrics_out == "m.json"


class TestBatchCommand:
    BATCH = ["batch", "--points", "600", "--queries", "2", "--support", "12"]

    def test_prints_metrics_digest(self, capsys):
        assert main(self.BATCH) == 0
        out = capsys.readouterr().out
        assert "batch: 2 queries" in out
        assert "metrics digest:" in out


class TestServeSignals:
    """``repro serve`` stops cleanly on SIGINT and SIGTERM, including when
    it was started with SIGINT ignored (a background job of a
    non-interactive shell)."""

    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_signal_stops_server_cleanly(self, tmp_path, signum):
        access_log = tmp_path / "access.jsonl"
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--dataset", 'demo={"kind":"case1","seed":7,"n_points":200}',
                "--access-log", str(access_log),
            ],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            banner = proc.stdout.readline()
            assert "session service on http://" in banner, proc.stderr.read()
            url = banner.split()[3] + "/healthz"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "served 1 request(s)" in out
        assert '"/healthz"' in access_log.read_text()


class TestJournalFlags:
    DEMO = ["demo", "--points", "500", "--support", "12", "--seed", "7"]

    def test_demo_journal_then_replay_and_inspect(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        assert main(self.DEMO + ["--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "session journal written to" in out
        assert journal.exists()

        assert main(["replay", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out

        assert main(["inspect", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "chain OK" in out
        assert "session_start" in out
        assert "finished:    yes" in out

    def test_checkpoint_resume_journal_replays_clean(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        ckpt = tmp_path / "run.ckpt.json"
        assert (
            main(
                self.DEMO
                + [
                    "--journal",
                    str(journal),
                    "--checkpoint",
                    str(ckpt),
                    "--checkpoint-step",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # The printed resume command carries the journal along.
        assert "--journal" in out
        assert json.loads(ckpt.read_text())["journal"]["cursor"]["seq"] >= 0

        assert (
            main(
                self.DEMO
                + ["--journal", str(journal), "--resume", str(ckpt)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["replay", str(journal)]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_resume_without_journaled_checkpoint_fails(
        self, capsys, tmp_path
    ):
        ckpt = tmp_path / "run.ckpt.json"
        assert (
            main(
                self.DEMO
                + ["--checkpoint", str(ckpt), "--checkpoint-step", "2"]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            self.DEMO
            + ["--journal", str(tmp_path / "j.jsonl"), "--resume", str(ckpt)]
        )
        assert code == 2
        assert (
            "the checkpoint was written without one"
            in capsys.readouterr().err
        )

    def test_replay_divergence_exits_1(self, capsys, tmp_path):
        from repro.obs.journal import canonical_json, sha256_hex

        journal = tmp_path / "run.jsonl"
        assert main(self.DEMO + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        # Perturb a view digest, recomputing the chain so the file
        # still *validates* — replay must catch it semantically.
        chain = "repro.session-journal:genesis"
        lines = []
        for line in journal.read_text().splitlines():
            obj = json.loads(line)
            if obj["type"] == "view" and "live_digest" in obj["payload"]:
                obj["payload"]["live_digest"] = "0" * 64
            record = {k: obj[k] for k in ("seq", "type", "ts", "payload")}
            chain = sha256_hex(chain + canonical_json(record))
            record["chain"] = chain
            lines.append(canonical_json(record))
        journal.write_text("\n".join(lines) + "\n")

        assert main(["replay", str(journal)]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    @pytest.fixture(scope="class")
    def demo_journal(self, tmp_path_factory):
        journal = tmp_path_factory.mktemp("tiers") / "run.jsonl"
        assert main(self.DEMO + ["--journal", str(journal)]) == 0
        return journal

    @pytest.mark.parametrize(
        "platform, mutation, code, shown",
        [
            ("home", "density_digest", 1, "fields:    density_digest"),
            ("foreign", "density_digest", 0, "platform:  numpy 0.0.0"),
            ("unrecorded", "density_digest", 0, "platform:  unrecorded"),
            ("foreign", "stats", 1, "fields:    stats"),
            ("foreign", "live_digest", 1, "fields:    live_digest"),
            ("foreign", "basis_digest", 1, "fields:    basis_digest"),
        ],
    )
    def test_replay_exit_code_per_platform_tier(
        self, capsys, tmp_path, demo_journal, platform, mutation, code, shown
    ):
        """Drift on a foreign (or unstamped) journal exits 0 and says
        so; only a divergence exits 1 — byte-exact on a home journal."""
        from repro.obs.journal import read_journal
        from repro.obs.replay import (
            ViewComparator,
            kde_drift_bound,
            kernel_sum_length,
        )

        from tests.obs.test_replay import (
            FOREIGN_PLATFORM,
            _perturb,
            _stamped,
        )

        journal = demo_journal
        if platform != "home":
            stamp = FOREIGN_PLATFORM if platform == "foreign" else None
            journal = _stamped(journal, tmp_path / "stamped.jsonl", stamp)
        records = read_journal(journal)
        view = next(r for r in records if r.type == "view")
        bound = kde_drift_bound(
            kernel_sum_length(
                ViewComparator.for_journal(records).config,
                view.payload["live_count"],
            )
        )

        def mutate(payload):
            if mutation == "stats":
                payload["stats"]["peak_density"] *= 1.0 + 4.0 * bound
            else:
                payload[mutation] = "0" * 64

        journal = _perturb(
            journal, tmp_path / "doctored.jsonl", seq=view.seq, mutate=mutate
        )
        capsys.readouterr()
        assert main(["replay", str(journal)]) == code
        out = capsys.readouterr().out
        assert shown in out
        assert ("DIVERGED" in out) == (code == 1)
        assert (f"drift at:  seq {view.seq}" in out) == (code == 0)

    def test_replay_corrupt_journal_exits_2(self, capsys, tmp_path):
        journal = tmp_path / "run.jsonl"
        assert main(self.DEMO + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        journal.write_bytes(journal.read_bytes()[:-7])
        assert main(["replay", str(journal)]) == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_inspect_corrupt_journal_exits_2(self, capsys, tmp_path):
        journal = tmp_path / "bad.jsonl"
        journal.write_text("not json\n")
        assert main(["inspect", str(journal)]) == 2
        assert "cannot inspect" in capsys.readouterr().err

    def test_batch_journal_dir_writes_replayable_journals(
        self, capsys, tmp_path
    ):
        jdir = tmp_path / "journals"
        code = main(
            [
                "batch",
                "--points",
                "500",
                "--queries",
                "2",
                "--journal-dir",
                str(jdir),
            ]
        )
        assert code == 0
        assert "session journals" in capsys.readouterr().out
        journals = sorted(jdir.glob("session-*.jsonl"))
        assert len(journals) == 2
        for path in journals:
            capsys.readouterr()
            assert main(["replay", str(path)]) == 0
            assert "CLEAN" in capsys.readouterr().out

    def test_parser_accepts_journal_flags(self):
        args = build_parser().parse_args(
            ["demo", "--journal", "j.jsonl"]
        )
        assert args.journal == "j.jsonl"
        args = build_parser().parse_args(
            ["batch", "--journal-dir", "jdir"]
        )
        assert args.journal_dir == "jdir"
        args = build_parser().parse_args(["replay", "j.jsonl"])
        assert args.command == "replay" and args.journal == "j.jsonl"
        args = build_parser().parse_args(["inspect", "j.jsonl"])
        assert args.command == "inspect" and args.journal == "j.jsonl"
