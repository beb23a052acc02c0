"""The repository benchmark: one closed-loop workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that wraps the program's layers (in this process
and, through ``perfbench/launcher.py``, in the server) and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a human-readable
table goes to standard error.  Every result is also written, with the
host and input provenance, to ``.bench_build/perfbench/results/``.

The exit code is 0 when every operation succeeded and every result
passed the correctness checks, 1 when the correctness gate failed, and
2 when the benchmark could not run at all (for example, no ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM so the server a service workload started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # One BLAS thread per process: the service workload runs a server and
    # a client on the same cores, and threads beyond the cores only add
    # scheduling noise.  Set before numpy loads; the server inherits it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import perfreport
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    started = time.time()
    out = workloads.run(workload, args.seed, args.seconds, bool(args.trace))
    service = workload.mode == "service"

    e2e, missing = perfreport.end_to_end(out)
    problems = list(out.problems) + missing + out.tally.reasons
    correct = not problems and out.tally.failed == 0
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_unix": started,
        "environment": workloads.environment(workload, args.seed),
        "samples": {
            "views": len(out.view_ms),
            "first_views": len(out.first_view_ms),
            "sessions_completed": len(out.completed_steps),
            "sessions_cut": len(out.cut_steps),
            "window_s": out.window_s,
        },
        "phase_s": out.phase_s,
        "error_rate": out.tally.rate,
        "problems": problems,
        "end_to_end": e2e,
    }
    if args.trace:
        values, table, flagged = perfreport.per_layer(out, service)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in perfreport.PER_LAYER_UNITS.items()
        }
        record["per_layer"] = values
        record["unexplained"] = flagged
        record["table"] = table
        print(table, file=sys.stderr)
        print(f"views/requests with unexplained self time > "
              f"{perfreport.UNEXPLAINED_LIMIT:.0%}: {len(flagged)}", file=sys.stderr)
        trace_path = workloads.work_dir() / f"trace-{workload.name}-{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"client_spans": out.client_spans, "server_spans": out.server_spans}
        ))
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in perfreport.END_TO_END_UNITS.items()
            if name in e2e
        }
    for name, value in e2e.items():
        print(f"  {workload.name:14s} {name:20s} {value:12.4f} "
              f"{perfreport.END_TO_END_UNITS[name]}", file=sys.stderr)
    print(f"  {workload.name:14s} {'error_rate':20s} {out.tally.rate:12.4f} ratio "
          f"({out.tally.failed}/{out.tally.attempted})", file=sys.stderr)
    print(f"  {workload.name:14s} samples {record['samples']} phases "
          f"{ {k: round(v, 2) for k, v in out.phase_s.items()} }", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    results = workloads.work_dir() / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": out.tally.attempted,
        "failed": out.tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
