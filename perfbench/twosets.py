"""Run the benchmark as two sets of runs and judge them against its bounds.

Usage (from the root of a checkout)::

    python3 perfbench/twosets.py [--workloads a,b] [--runs 10] [--sets 2]
                                 [--first-seed 1]

Each set runs every chosen workload ``--runs`` times, each run with
another seed (set ``k`` takes the ``--runs`` seeds after set
``k - 1``'s), using the command and ``run_seconds`` in
``BENCHMARK.json``.  For every end-to-end metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, and checks:

* the spread of each set is within the metric's bound -- and says
  whether it is below a third of it;
* each later set's median is not worse than the first set's by more
  than the bound.

The report is printed and written to ``.bench_build/perfbench/``; the
exit code is 1 when a check fails or a run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from perfstats import quartile_spread, worsening


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    started = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
    return {"code": proc.returncode, "wall_s": elapsed, "result": result}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    # values[set][workload][metric] -> list of values
    values: list[dict[str, dict[str, list[float]]]] = []
    failures = []
    walls: list[float] = []
    for set_index in range(args.sets):
        values.append({w: {m: [] for m in metrics} for w in workloads})
        for run in range(args.runs):
            seed = args.first_seed + set_index * args.runs + run
            for workload in workloads:
                outcome = run_once(spec["command"], workload, seed, spec["run_seconds"])
                walls.append(outcome["wall_s"])
                result = outcome["result"]
                ok = outcome["code"] == 0 and result.get("correct")
                print(f"set {set_index + 1} {workload:14s} seed {seed:4d} "
                      f"{'ok  ' if ok else 'FAIL'} {outcome['wall_s']:6.1f} s", flush=True)
                if not ok:
                    failures.append(f"set {set_index + 1} {workload} seed {seed}: "
                                    f"exit {outcome['code']}")
                    continue
                for name in metrics:
                    values[-1][workload][name].append(result["metrics"][name]["value"])

    report = {"runs": args.runs, "sets": args.sets, "failures": failures,
              "mean_wall_s": sum(walls) / len(walls) if walls else 0.0, "rows": []}
    problems = list(failures)
    print(f"\n{'workload':14s} {'metric':20s} {'set':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in workloads:
        for name, meta in metrics.items():
            first_median = None
            for set_index, per_set in enumerate(values):
                vals = per_set[workload][name]
                if len(vals) < 2:
                    continue
                med, q1, q3, spread = quartile_spread(vals)
                bound = meta["bound"]
                verdict = []
                if spread > bound:
                    verdict.append("SPREAD>BOUND")
                    problems.append(f"{workload} {name} set {set_index + 1}: spread "
                                    f"{spread:.3f} > bound {bound}")
                elif spread > bound / 3:
                    verdict.append("spread>bound/3")
                if first_median is None:
                    first_median = med
                else:
                    worse = worsening(first_median, med, meta["better"])
                    if worse > bound:
                        verdict.append(f"WORSE {worse:+.3f}")
                        problems.append(f"{workload} {name} set {set_index + 1}: median "
                                        f"worse by {worse:.3f} > bound {bound}")
                    else:
                        verdict.append(f"vs set 1 {worse:+.3f}")
                print(f"{workload:14s} {name:20s} {set_index + 1:3d} {med:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {spread:7.3f} {bound:6.2f}  {' '.join(verdict) or 'ok'}")
                report["rows"].append({"workload": workload, "metric": name,
                                       "set": set_index + 1, "median": med, "q1": q1,
                                       "q3": q3, "spread": spread, "bound": bound,
                                       "values": vals})
    out_dir = Path(".bench_build") / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"twosets-{int(time.time())}.json"
    report["problems"] = problems
    path.write_text(json.dumps(report, indent=1))
    print(f"\nmean run wall time {report['mean_wall_s']:.1f} s; report: {path}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
