"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the oracle-driven quickstart on the Case-1 workload and print
    the retrieved neighbors, quality, and diagnosis.
``diagnose``
    Run the meaninglessness diagnosis contrast (uniform vs. clustered)
    with the label-free heuristic user.
``session``
    Start an interactive terminal session — you are the user.
``batch``
    Search many queries one after another with the oracle user,
    optionally writing per-query session journals.
``info``
    Print version and configuration defaults.
``serve``
    Run the asyncio session service over HTTP (``docs/SERVICE.md``);
    it also serves ``/metrics``, ``/metrics.json``, ``/sessions`` and
    ``/healthz``.
``replay``
    Re-execute a session journal (``demo --journal`` / ``batch
    --journal-dir``) and diff live state digests against the recorded
    ones; exits 1 on the first divergent record, 2 on a corrupt file.
``inspect``
    Print a session journal's human-readable timeline and summary.

Observability flags (accepted before or after the subcommand)
-------------------------------------------------------------
``-v`` / ``-vv``
    Structured logging at INFO / DEBUG on the ``repro.*`` hierarchy.
``--trace``
    Trace the command and print an ASCII flame summary afterwards.
``--trace-out PATH``
    Trace the command and write the trace to *PATH* (implies
    ``--trace``).  ``--trace-format chrome`` writes the Chrome
    ``chrome://tracing`` event format instead of the default JSON.
``--metrics-out PATH``
    After the command finishes, write the metrics registry to *PATH* —
    Prometheus text format for ``.prom``/``.txt``/``.openmetrics``
    suffixes, schema-versioned JSON otherwise.

See ``docs/OBSERVABILITY.md`` for the span and metric inventory.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _print_summary(result) -> None:
    """Pretty-print a :meth:`SearchResult.summary` block."""
    summary = result.summary()
    print("run summary:")
    for key in (
        "major_iterations",
        "total_views",
        "accepted_views",
        "acceptance_rate",
        "pruning_trajectory",
        "final_overlap",
        "mean_selected_per_view",
        "termination_reason",
    ):
        value = summary[key]
        if isinstance(value, float):
            value = f"{value:.3f}"
        print(f"  {key:<24} {value}")


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import (
        InteractiveNNSearch,
        OracleUser,
        SearchConfig,
        case1_dataset,
        diagnose,
        natural_neighbors,
        retrieval_quality,
    )
    from repro.exceptions import CheckpointError, JournalError

    data = case1_dataset(np.random.default_rng(args.seed), n_points=args.points)
    dataset = data.dataset
    query_index = int(dataset.cluster_indices(0)[0])
    user = OracleUser(dataset, query_index)
    config = SearchConfig(support=args.support)
    provenance = {"kind": "case1", "seed": args.seed, "n_points": args.points}

    journal = None
    try:
        if args.resume:
            from repro.core.search import drive_pending
            from repro.core.serialization import load_checkpoint, resume_engine

            try:
                checkpoint = load_checkpoint(args.resume)
                if args.journal:
                    from repro.obs.journal import SessionJournal

                    cursor_info = checkpoint.get("journal")
                    if cursor_info is None:
                        print(
                            "cannot resume with --journal: the checkpoint "
                            "was written without one",
                            file=sys.stderr,
                        )
                        return 2
                    journal = SessionJournal.resume(
                        args.journal, cursor_info["cursor"]
                    )
                engine, event = resume_engine(
                    checkpoint, dataset, journal=journal
                )
            except (CheckpointError, JournalError) as exc:
                print(f"cannot resume: {exc}", file=sys.stderr)
                return 2
            print(
                f"resumed from {args.resume} at major={event.major_index} "
                f"minor={event.minor_index} (step {event.step})"
            )
            result = drive_pending(engine, event, user)
        elif args.checkpoint:
            from repro.core.engine import SearchEngine, ViewRequest
            from repro.core.serialization import save_checkpoint
            from repro.interaction.base import validate_decision

            journal = _open_cli_journal(args, provenance)
            engine = SearchEngine(dataset, config, journal=journal)
            event = engine.start(dataset.points[query_index])
            while isinstance(event, ViewRequest):
                if event.step >= args.checkpoint_step:
                    path = save_checkpoint(engine, args.checkpoint)
                    engine.close()
                    print(
                        f"checkpoint written to {path} "
                        f"(major={event.major_index} "
                        f"minor={event.minor_index}, step {event.step})"
                    )
                    resume_cmd = (
                        "finish the run with: python -m repro demo "
                        f"--points {args.points} --support {args.support} "
                        f"--seed {args.seed} --resume {path}"
                    )
                    if args.journal:
                        resume_cmd += f" --journal {args.journal}"
                    print(resume_cmd)
                    return 0
                decision = validate_decision(
                    user.review_view(event.view), event.view
                )
                event = engine.submit(decision)
            result = event
            print("run finished before the checkpoint step was reached")
        elif args.journal:
            from repro.core.engine import SearchEngine
            from repro.core.search import drive

            journal = _open_cli_journal(args, provenance)
            result = drive(
                SearchEngine(dataset, config, journal=journal),
                dataset.points[query_index],
                user,
            )
        else:
            result = InteractiveNNSearch(dataset, config).run(
                dataset.points[query_index], user
            )
    finally:
        if journal is not None:
            journal.close()
    if args.journal:
        print(f"session journal written to {args.journal}")
    neighbors = natural_neighbors(
        result.probabilities, iterations=len(result.session.major_records)
    )
    truth = dataset.cluster_indices(dataset.label_of(query_index))
    quality = retrieval_quality(neighbors, truth)
    print(f"neighbors found: {neighbors.size} (true cluster {truth.size})")
    print(f"precision {quality.precision:.1%}, recall {quality.recall:.1%}")
    print(f"diagnosis: {diagnose(result).explanation}")
    _print_summary(result)
    if args.save:
        from repro.core.serialization import save_result

        path = save_result(result, args.save)
        print(f"session archived to {path}")
    return 0


def _open_cli_journal(args: argparse.Namespace, provenance: dict):
    """Create the demo's flight recorder when ``--journal`` was given."""
    if not args.journal:
        return None
    from repro.obs.journal import SessionJournal

    return SessionJournal.create(args.journal, provenance=provenance)


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro import (
        HeuristicUser,
        InteractiveNNSearch,
        SearchConfig,
        case1_dataset,
        diagnose,
        uniform_dataset,
    )

    rng = np.random.default_rng(args.seed)
    uniform = uniform_dataset(rng, n_points=args.points, dim=20)
    result = InteractiveNNSearch(uniform, SearchConfig(support=25)).run(
        uniform.points[0], HeuristicUser()
    )
    verdict = diagnose(result)
    print(f"uniform data:   meaningful={verdict.meaningful} — {verdict.explanation}")

    clustered = case1_dataset(np.random.default_rng(args.seed), n_points=args.points)
    ds = clustered.dataset
    truth = clustered.clusters[0]
    members = ds.cluster_indices(0)
    central = int(
        members[
            np.argmin(
                np.linalg.norm(
                    (ds.points[members] - truth.anchor) @ truth.basis.T, axis=1
                )
            )
        ]
    )
    result = InteractiveNNSearch(ds, SearchConfig(support=25)).run(
        ds.points[central], HeuristicUser()
    )
    verdict = diagnose(result)
    print(f"clustered data: meaningful={verdict.meaningful} — {verdict.explanation}")
    return 0


def _session_inline(args: argparse.Namespace) -> int:
    from repro import (
        InteractiveNNSearch,
        SearchConfig,
        TerminalUser,
        natural_neighbors,
    )
    from repro.data.synthetic import (
        ProjectedClusterSpec,
        generate_projected_clusters,
    )

    spec = ProjectedClusterSpec(
        n_points=args.points,
        dim=8,
        n_clusters=2,
        cluster_dim=3,
        axis_parallel=True,
        noise_fraction=0.15,
    )
    data = generate_projected_clusters(spec, np.random.default_rng(args.seed))
    dataset = data.dataset
    query_index = int(dataset.cluster_indices(0)[0])
    config = SearchConfig(
        support=15,
        grid_resolution=40,
        min_major_iterations=2,
        max_major_iterations=2,
        projection_restarts=3,
    )
    result = InteractiveNNSearch(dataset, config).run(
        dataset.points[query_index], TerminalUser()
    )
    neighbors = natural_neighbors(
        result.probabilities, iterations=len(result.session.major_records)
    )
    truth = dataset.cluster_indices(dataset.label_of(query_index))
    print(f"\nnatural cluster: {neighbors.size} points (truth {truth.size})")
    _print_summary(result)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Batch search over many queries, one oracle-driven run each."""
    import time

    from repro import InteractiveNNSearch, SearchConfig, run_batch
    from repro.data.synthetic import (
        ProjectedClusterSpec,
        generate_projected_clusters,
    )
    from repro.interaction.oracle import OracleUser
    from repro.obs.metrics import REGISTRY
    from repro.obs.openmetrics import render_metrics_digest

    spec = ProjectedClusterSpec(
        n_points=args.points,
        dim=10,
        n_clusters=3,
        cluster_dim=4,
        axis_parallel=True,
        noise_fraction=0.1,
    )
    data = generate_projected_clusters(spec, np.random.default_rng(args.seed))
    dataset = data.dataset
    rng = np.random.default_rng(args.seed + 1)
    clustered = np.concatenate(
        [dataset.cluster_indices(label) for label in range(3)]
    )
    queries = rng.choice(clustered, size=args.queries, replace=True)
    config = SearchConfig(
        support=args.support,
        grid_resolution=30,
        min_major_iterations=2,
        max_major_iterations=2,
        projection_restarts=2,
    )
    provenance = {
        "kind": "projected_clusters",
        "seed": args.seed,
        "spec": {
            "n_points": args.points,
            "dim": 10,
            "n_clusters": 3,
            "cluster_dim": 4,
            "axis_parallel": True,
            "noise_fraction": 0.1,
        },
    }
    search = InteractiveNNSearch(dataset, config)
    start = time.perf_counter()
    result = run_batch(
        search,
        queries,
        lambda query_index: OracleUser(dataset, query_index),
        journal_dir=args.journal_dir or None,
        journal_provenance=provenance if args.journal_dir else None,
    )
    elapsed = time.perf_counter() - start
    print(
        f"batch: {result.query_count} queries "
        f"in {elapsed:.2f}s ({result.query_count / elapsed:.2f} q/s)"
    )
    print(
        f"  meaningful: {result.meaningful_count}/{result.query_count} "
        f"({result.meaningful_fraction:.1%})"
    )
    print(f"  mean natural-cluster size: {result.mean_natural_size:.1f}")
    print(f"  mean acceptance rate:      {result.mean_acceptance_rate:.1%}")
    print(render_metrics_digest(REGISTRY))
    if args.journal_dir:
        print(f"  session journals:          {args.journal_dir}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Re-execute a journaled session and diff it against the record.

    Exit codes: 0 clean, 1 divergence found, 2 unusable journal.  A
    journal recorded on another numeric platform, or one without a
    platform stamp, may show KDE-grid drift within the rounding bound
    (:func:`repro.obs.replay.kde_drift_bound`): that replay is still
    clean and exits 0, and the report prints the drifting views and
    the recorded platform (or "unrecorded").
    """
    from repro.exceptions import JournalError
    from repro.obs.replay import replay_journal

    try:
        report = replay_journal(args.journal)
    except JournalError as exc:
        print(f"cannot replay: {exc}", file=sys.stderr)
        return 2
    print(report.describe())
    return 0 if report.clean else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Print a journal's validated timeline and summary statistics."""
    from repro.exceptions import JournalError
    from repro.obs.replay import inspect_journal

    try:
        print(inspect_journal(args.journal))
    except JournalError as exc:
        print(f"cannot inspect: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio session service (``docs/SERVICE.md``).

    Datasets are declared as ``NAME=PROVENANCE_JSON`` using the same
    provenance records the journal/replay machinery understands, e.g.::

        python -m repro serve \\
          --dataset 'demo={"kind":"case1","seed":7,"n_points":500}'

    ``--max-requests N`` exits after *N* handled requests (scripted
    smoke tests); the default serves until SIGINT or SIGTERM.  Both
    signals stop the server cleanly (store and access log closed), even
    when the process was started with SIGINT ignored, as background
    jobs of a non-interactive shell are.
    """
    import json as json_module
    import signal
    import threading

    from repro.exceptions import ReproError
    from repro.obs.metrics import REGISTRY
    from repro.obs.replay import dataset_from_provenance
    from repro.service.app import ServiceRuntime, SessionService
    from repro.service.store import SpilloverSessionStore

    specs = args.dataset or ['demo={"kind":"case1","seed":7,"n_points":500}']
    try:
        store = SpilloverSessionStore(
            byte_budget=args.byte_budget, spill_dir=args.spill_dir
        )
        service = SessionService(
            store=store,
            journal_dir=args.journal_dir,
            access_log=args.access_log,
        )
        for spec in specs:
            name, sep, raw = spec.partition("=")
            if not sep or not name:
                print(
                    f"--dataset expects NAME=PROVENANCE_JSON, got {spec!r}",
                    file=sys.stderr,
                )
                return 2
            service.register_dataset(
                name, dataset_from_provenance(json_module.loads(raw))
            )
        recovered = service.recover_sessions()
    except (ValueError, ReproError) as exc:
        print(f"cannot configure service: {exc}", file=sys.stderr)
        return 2
    try:
        runtime = ServiceRuntime(
            service, host=args.host, port=args.port
        ).start()
    except (OSError, RuntimeError) as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    names = ", ".join(sorted(service.datasets()))
    print(
        f"session service on http://{args.host}:{runtime.port} "
        f"(datasets: {names}; {recovered} session(s) recovered); "
        "Ctrl-C to stop",
        flush=True,
    )

    def _requests_handled() -> int:
        state = REGISTRY.snapshot().get("service.requests")
        return int(state["value"]) if state else 0

    stop = threading.Event()
    previous = {
        signum: signal.signal(signum, lambda *_: stop.set())
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        while not stop.is_set() and (
            args.max_requests <= 0
            or _requests_handled() < args.max_requests
        ):
            stop.wait(0.05)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        runtime.stop()
        service.close()
    print(f"served {_requests_handled()} request(s)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro import SearchConfig

    print(f"repro {repro.__version__}")
    print("default SearchConfig:")
    for field, value in vars(SearchConfig()).items():
        print(f"  {field} = {value}")
    return 0


def _observability_parent() -> argparse.ArgumentParser:
    """Shared ``-v`` / ``--trace`` / ``--trace-out`` flags.

    Defaults use ``argparse.SUPPRESS`` so the flags can be given either
    before or after the subcommand without the subparser's default
    clobbering a value parsed at the top level; :func:`main` reads them
    with ``getattr`` fallbacks.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=argparse.SUPPRESS,
        help="log to stderr (-v: INFO, -vv: DEBUG)",
    )
    group.add_argument(
        "--trace",
        action="store_true",
        default=argparse.SUPPRESS,
        help="trace the command and print an ASCII flame summary",
    )
    group.add_argument(
        "--trace-out",
        type=str,
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="write the trace to PATH (implies --trace)",
    )
    group.add_argument(
        "--trace-format",
        choices=("json", "chrome"),
        default=argparse.SUPPRESS,
        help="trace file format for --trace-out (default: json)",
    )
    group.add_argument(
        "--metrics-out",
        type=str,
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="write the metrics registry to PATH when the command "
        "finishes (.prom/.txt/.openmetrics: Prometheus text; "
        "otherwise schema-versioned JSON)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    common = _observability_parent()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Interactive high-dimensional nearest neighbor search",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "demo", help="oracle-driven quickstart", parents=[common]
    )
    demo.add_argument("--points", type=int, default=2000)
    demo.add_argument("--support", type=int, default=25)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--save", type=str, default="", help="archive JSON path")
    demo.add_argument(
        "--checkpoint",
        type=str,
        default="",
        metavar="PATH",
        help="suspend the run at --checkpoint-step and write a resumable "
        "checkpoint to PATH instead of finishing",
    )
    demo.add_argument(
        "--checkpoint-step",
        type=int,
        default=3,
        metavar="N",
        help="view step at which --checkpoint suspends (default: 3)",
    )
    demo.add_argument(
        "--resume",
        type=str,
        default="",
        metavar="PATH",
        help="resume a run from a checkpoint written by --checkpoint "
        "(dataset flags must match the original invocation)",
    )
    demo.add_argument(
        "--journal",
        type=str,
        default="",
        metavar="PATH",
        help="record a session flight-recorder journal at PATH (verify "
        "it later with: python -m repro replay PATH); with --resume, "
        "append to the journal the checkpoint was recorded in",
    )
    demo.set_defaults(func=_cmd_demo)

    diag = sub.add_parser(
        "diagnose", help="uniform vs clustered diagnosis", parents=[common]
    )
    diag.add_argument("--points", type=int, default=3000)
    diag.add_argument("--seed", type=int, default=13)
    diag.set_defaults(func=_cmd_diagnose)

    session = sub.add_parser(
        "session", help="interactive terminal session", parents=[common]
    )
    session.add_argument("--points", type=int, default=800)
    session.add_argument("--seed", type=int, default=77)
    session.set_defaults(func=_session_inline)

    batch = sub.add_parser(
        "batch",
        help="batch search over many queries",
        parents=[common],
    )
    batch.add_argument("--points", type=int, default=1200)
    batch.add_argument("--queries", type=int, default=8)
    batch.add_argument("--support", type=int, default=15)
    batch.add_argument("--seed", type=int, default=42)
    batch.add_argument(
        "--journal-dir",
        type=str,
        default="",
        metavar="DIR",
        help="write one session journal per query into DIR "
        "(session-<pos>-q<index>.jsonl)",
    )
    batch.set_defaults(func=_cmd_batch)

    replay = sub.add_parser(
        "replay",
        help="re-execute a session journal and diff state digests",
        parents=[common],
    )
    replay.add_argument(
        "journal", type=str, help="journal file written with --journal"
    )
    replay.set_defaults(func=_cmd_replay)

    inspect = sub.add_parser(
        "inspect",
        help="print a session journal's timeline and summary",
        parents=[common],
    )
    inspect.add_argument(
        "journal", type=str, help="journal file written with --journal"
    )
    inspect.set_defaults(func=_cmd_inspect)

    info = sub.add_parser("info", help="version and defaults", parents=[common])
    info.set_defaults(func=_cmd_info)

    service = sub.add_parser(
        "serve",
        help="run the asyncio interactive-session service over HTTP",
        parents=[common],
    )
    service.add_argument(
        "--port",
        type=int,
        default=8472,
        help="TCP port to bind (0 = ephemeral; default: 8472)",
    )
    service.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address"
    )
    service.add_argument(
        "--dataset",
        action="append",
        metavar="NAME=PROVENANCE_JSON",
        help="register a dataset by provenance record (repeatable); "
        'default: demo={"kind":"case1","seed":7,"n_points":500}',
    )
    service.add_argument(
        "--byte-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="in-memory checkpoint budget; LRU sessions spill to "
        "--spill-dir beyond it (default: unbounded)",
    )
    service.add_argument(
        "--spill-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="directory for spilled/recovered checkpoints (sessions "
        "survive restarts when set)",
    )
    service.add_argument(
        "--journal-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="write a replayable flight-recorder journal per session",
    )
    service.add_argument(
        "--access-log",
        type=str,
        default=None,
        metavar="PATH",
        help="append a structured JSONL access log (request id, route, "
        "status, latency, byte counts) to PATH",
    )
    service.add_argument(
        "--max-requests",
        type=int,
        default=0,
        metavar="N",
        help="exit after N handled requests (0 = serve until interrupted)",
    )
    service.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from repro.obs import (
        ascii_flame,
        configure_logging,
        finish_trace,
        save_chrome_trace,
        save_trace,
        start_trace,
    )

    parser = build_parser()
    args = parser.parse_args(argv)
    verbosity = getattr(args, "verbose", 0)
    if verbosity:
        configure_logging(verbosity)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    tracing = bool(getattr(args, "trace", False)) or trace_out is not None
    if not tracing:
        code = args.func(args)
        if metrics_out:
            _write_metrics_out(metrics_out)
        return code

    start_trace(command=args.command, argv=list(argv) if argv else [])
    try:
        code = args.func(args)
    finally:
        report = finish_trace()
    if metrics_out:
        _write_metrics_out(metrics_out)
    if report is None:  # pragma: no cover - defensive
        return code
    span_count = sum(1 for _ in report.iter_spans())
    if trace_out:
        if getattr(args, "trace_format", "json") == "chrome":
            path = save_chrome_trace(report, trace_out)
        else:
            path = save_trace(report, trace_out)
        print(f"trace written to {path} ({span_count} spans)")
    else:
        print()
        print(ascii_flame(report))
    return code


def _write_metrics_out(path: str) -> None:
    """Write the registry for ``--metrics-out`` and say where it went."""
    from repro.obs.openmetrics import write_metrics

    written = write_metrics(path)
    print(f"metrics written to {written}")


if __name__ == "__main__":
    sys.exit(main())
