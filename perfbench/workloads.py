"""The benchmark's workloads: inputs from the seed, closed-loop clients, checks.

Every workload is closed loop: a simulated user (``OracleUser``) waits
for each view before deciding.  ``paper_exact`` and ``large_binned`` run
the engine in this process; ``service`` runs ``python -m repro serve``
in its own process and drives it over two keep-alive connections from
one asyncio loop, each connection running one session at a time.

Each workload searches one fixed dataset, generated from
``DATASET_SEED``; the run's seed picks the (distinct, clustered) query
points and their order.  The program only receives the generated inputs.
"""

from __future__ import annotations

import asyncio
import ctypes
import dataclasses
import hashlib
import itertools
import json
import os
import re
import resource
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from layers import patch_engine_layers
from perfstats import ErrorTally, min_samples_for_tail
from perftrace import SpanRecorder, load_spans, reset_active, session_traced, set_active
from perfwindow import ProbeGate, Window

from repro.core.config import SearchConfig
from repro.core.engine import DatasetPrecomputation, SearchEngine, SearchResult, ViewRequest
from repro.core.serialization import checkpoint_from_bytes, checkpoint_to_bytes, resume_engine
from repro.data.dataset import Dataset
from repro.data.loaders import load_npy_dataset, save_npy_dataset
from repro.data.synthetic import ProjectedClusterSpec, generate_projected_clusters
from repro.interaction.base import validate_decision
from repro.interaction.oracle import OracleUser
from repro.obs.metrics import REGISTRY
from repro.service.client import ServiceClient
from repro.service.wire import decision_to_payload, view_from_event

#: Views measured at least, so ``view_p90_ms`` has ten samples beyond it
#: (plus a margin for ties).  A run that has not reached this count at
#: ``--seconds`` keeps measuring, up to ``MAX_STRETCH`` times as long.
MIN_VIEWS = min_samples_for_tail(90) + 10
MAX_STRETCH = 3.0
CONNECTIONS = 2
#: Clusters of every dataset; queries take them in turn.
N_CLUSTERS = 4
#: Set-ups per run; ``setup_s`` is their median.  A server spawn takes
#: about 1.5 s, a dataset of the in-process workloads a few milliseconds.
#: In-process the set-ups are spread over the run: ``SETUP_REPS_BEFORE``
#: before the measuring window, ``SETUP_REPS_BETWEEN`` after each session
#: in it (off the window's clock) and the rest after it.  Taken together
#: at the start, their median read the host's speed in one fraction of a
#: second, which shifts by up to a third for seconds at a time.
SETUP_REPS_INPROCESS = 61
SETUP_REPS_BEFORE = 9
SETUP_REPS_BETWEEN = 2
SETUP_REPS_SERVICE = 5
#: Seed of every workload's dataset.  Fixed, so that runs with different
#: seeds differ in their queries, not in how separable a whole dataset's
#: clusters are: drawn per run seed, five seeds spread neighbor_precision
#: by 11% and served view latency by 16%.
DATASET_SEED = 0
#: First-view probes: sessions opened only to time their first view,
#: then closed, each running alone with the window's clock stopped.
#: They are spread evenly over the window (one due every
#: ``seconds / FIRST_VIEW_PROBES`` of it), so that like the view samples
#: they see every speed the host goes through during the run; taken
#: together after the window, their median read the host's speed of one
#: or two seconds.  In-process each window session's start also runs
#: alone and counts too.  On the service a window session opens while
#: the other connection's decision is in flight, a different load, so
#: there only the probes count.
FIRST_VIEW_PROBES = 40
#: Registry counters read around the measuring window.
COUNTERS = (
    "geometry.discrimination_calls",
    "kde.cache.hit",
    "kde.cache.miss",
    "kde.binned.cells",
    "connectivity.merge_tree.builds",
)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "inprocess" or "service"
    n_points: int
    dim: int
    cluster_dim: int
    kde_mode: str
    min_major: int
    max_major: int
    npy: bool = False

    def spec(self) -> ProjectedClusterSpec:
        return ProjectedClusterSpec(
            n_points=self.n_points,
            dim=self.dim,
            n_clusters=N_CLUSTERS,
            cluster_dim=self.cluster_dim,
            axis_parallel=True,
            noise_fraction=0.1,
        )

    def config(self) -> SearchConfig:
        return SearchConfig(
            kde_mode=self.kde_mode,
            min_major_iterations=self.min_major,
            max_major_iterations=self.max_major,
        )

    def provenance(self) -> dict[str, Any]:
        return {
            "kind": "projected_clusters",
            "seed": DATASET_SEED,
            "spec": dataclasses.asdict(self.spec()),
        }


_PAPER = dict(n_points=3000, dim=20, cluster_dim=5, kde_mode="exact", min_major=3, max_major=3)
WORKLOADS = {
    "paper_exact": Workload("paper_exact", "inprocess", **_PAPER),
    # cluster_dim = dim / 4 as in benchmarks/bench_scaling.py's large-n lanes.
    "large_binned": Workload(
        "large_binned", "inprocess", n_points=20_000, dim=24, cluster_dim=6,
        kde_mode="binned", min_major=2, max_major=2, npy=True,
    ),
    "service": Workload("service", "service", **_PAPER),
}


@dataclass
class Outcome:
    """Everything one run measured, before it is reduced to metrics."""

    setup_s: list[float] = field(default_factory=list)
    view_ms: list[float] = field(default_factory=list)
    view_traced: list[bool] = field(default_factory=list)
    first_view_ms: list[float] = field(default_factory=list)
    review_ms: list[float] = field(default_factory=list)
    window_s: float = 0.0
    window_ops: int = 0
    completed_steps: list[int] = field(default_factory=list)
    cut_steps: list[int] = field(default_factory=list)
    decisions: int = 0
    accepted: int = 0
    precision: list[float] = field(default_factory=list)
    results: dict[int, tuple[list[int], str]] = field(default_factory=dict)
    tally: ErrorTally = field(default_factory=ErrorTally)
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    client_spans: list[dict[str, Any]] = field(default_factory=list)
    server_spans: list[dict[str, Any]] = field(default_factory=list)
    data_load_s: list[float] = field(default_factory=list)
    phase_s: dict[str, float] = field(default_factory=dict)
    probe_ops: int = 0
    probe_counters: dict[str, float] = field(default_factory=dict)

    def probed(self, ops: int, counters: dict[str, float]) -> None:
        """Record a first-view probe's operations and counter increments,
        which the per-layer figures of the window leave out."""
        self.probe_ops += ops
        for name, value in counters.items():
            self.probe_counters[name] = self.probe_counters.get(name, 0.0) + value

    def close_window(self, window: Window, counters: dict[str, float]) -> None:
        """Keep the window's time, operations and counter increments,
        less those of the probes made inside it."""
        self.window_s = window.elapsed()
        self.window_ops = self.tally.attempted - self.probe_ops
        self.counters = {
            name: value - self.probe_counters.get(name, 0.0) for name, value in counters.items()
        }

    def session_done(self, steps: int, qi: int, result: SearchResult | dict, labels: np.ndarray) -> None:
        if isinstance(result, dict):  # wire event
            top = [int(i) for i in result["neighbor_indices"]]
            probs = np.asarray(result["result"]["probabilities"], dtype=np.float64)
        else:
            top = [int(i) for i in result.neighbor_indices]
            probs = np.asarray(result.probabilities, dtype=np.float64)
        self.completed_steps.append(steps)
        self.results[qi] = (top, hashlib.sha256(probs.tobytes()).hexdigest())
        self.precision.append(float(np.mean(labels[top] == labels[qi])))
        self.problems.extend(result_invariants(qi, top, probs))


def result_invariants(qi: int, top: list[int], probs: np.ndarray) -> list[str]:
    """What every top-s result must satisfy, whatever the data."""
    problems = []
    n = probs.size
    if len(set(top)) != len(top) or not all(0 <= i < n for i in top):
        problems.append(f"query {qi}: top set has duplicate or out-of-range indices")
    elif not np.all(np.isfinite(probs)) or probs.min() < 0 or probs.max() > 1:
        problems.append(f"query {qi}: probabilities outside [0, 1]")
    else:
        ranked = probs[top]
        rest = np.delete(probs, top)
        if np.any(np.diff(ranked) > 0) or (rest.size and rest.max() > ranked.min()):
            problems.append(f"query {qi}: top set is not the highest-probability points")
    return problems


def work_dir() -> Path:
    path = Path.cwd() / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def environment(workload: Workload, seed: int) -> dict[str, Any]:
    """Host, library and input provenance recorded with every result."""
    blas: dict[str, Any] = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    blas["threads"] = openblas_threads()
    blas["thread_env"] = {
        var: os.environ[var]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
        "dataset": workload.provenance(),
        "config": dataclasses.asdict(workload.config()),
        "storage": "float32 .npy, memory-mapped" if workload.npy else "float64 in RAM",
    }


def openblas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, asked from the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for line in maps.splitlines():
        path = line.split()[-1]
        if "openblas" in path and ".so" in path:
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    return None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def build_dataset(workload: Workload, rep: int = 0) -> Dataset:
    """Generate the dataset; large workloads go through float32 ``.npy``
    and come back as a memory map."""
    data = generate_projected_clusters(workload.spec(), np.random.default_rng(DATASET_SEED))
    dataset = data.dataset
    if workload.npy:
        path = work_dir() / f"{workload.name}-{os.getpid()}-{rep}.npy"
        save_npy_dataset(dataset, path, dtype=np.float32)
        dataset = load_npy_dataset(path, mmap=True, name=workload.name)
    return dataset


def remove_npy_files(workload: Workload) -> None:
    for path in work_dir().glob(f"{workload.name}-{os.getpid()}-*.npy"):
        path.unlink()


def query_order(dataset: Dataset, seed: int) -> list[int]:
    """Distinct clustered query points, taking the clusters in turn.

    The seed picks the points within each cluster.  Taking clusters in
    turn keeps every run's mix of clusters the same, and clusters differ
    widely in how well the search separates them.
    """
    rng = np.random.default_rng([seed, 1])
    labels = np.asarray(dataset.labels)
    per_cluster = [
        rng.permutation(np.flatnonzero(labels == c)) for c in np.unique(labels[labels >= 0])
    ]
    depth = min(len(members) for members in per_cluster)
    return [int(members[i]) for i in range(depth) for members in per_cluster]


def read_counters() -> dict[str, float]:
    snap = REGISTRY.snapshot()
    return {name: float(snap.get(name, {}).get("value", 0.0)) for name in COUNTERS}


def counter_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {name: after.get(name, 0.0) - before.get(name, 0.0) for name in COUNTERS}


def drive_session(engine: SearchEngine, dataset: Dataset, qi: int) -> SearchResult:
    """One untimed session (warm-up, reference results)."""
    user = OracleUser(dataset, qi)
    event = engine.start(dataset.points[qi])
    while isinstance(event, ViewRequest):
        event = engine.submit(validate_decision(user.review_view(event.view), event.view))
    return event


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------
def run_inprocess(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    recorder = SpanRecorder("runner")
    if trace:
        patch_engine_layers(recorder)
    config = workload.config()

    def set_up(reps: Iterable[int]) -> tuple[Dataset, DatasetPrecomputation] | None:
        ready = None
        token = set_active(trace)
        for rep in reps:
            t0 = time.perf_counter()
            with recorder.span("data.load"):
                dataset = build_dataset(workload, rep)
            out.data_load_s.append(time.perf_counter() - t0)
            pre = DatasetPrecomputation(dataset)
            pre.axis_variance()
            pre.covariance()
            out.setup_s.append(time.perf_counter() - t0)
            ready = dataset, pre
        reset_active(token)
        return ready

    reps = iter(range(SETUP_REPS_INPROCESS))
    dataset, pre = set_up(itertools.islice(reps, SETUP_REPS_BEFORE))
    out.phase_s["setup"] = sum(out.setup_s)
    queries = query_order(dataset, seed)
    labels = np.asarray(dataset.labels)

    # Warm-up: a few views of a query the measured sessions never use.
    engine = SearchEngine(dataset, config, precomputed=pre, structural_spans=False)
    warm = queries.pop()
    event = engine.start(dataset.points[warm])
    user = OracleUser(dataset, warm)
    for _ in range(3):
        if isinstance(event, ViewRequest):
            event = engine.submit(validate_decision(user.review_view(event.view), event.view))
    engine.close()

    remaining = iter(queries)

    def probe_first_views() -> None:
        """Run the first-view probes due on the window's clock, off it."""
        while window.probe_due():
            with window.off_clock():
                _inprocess_probe(out, dataset, pre, config, next(remaining))
            window.probed()

    before = read_counters()
    window = Window(seconds, FIRST_VIEW_PROBES, MIN_VIEWS, MAX_STRETCH)
    for index, qi in enumerate(remaining):
        # Traced and untraced halves alternate by whole rounds of the
        # cluster rotation, so both see every cluster equally often.
        traced = trace and (index // N_CLUSTERS) % 2 == 0
        token = set_active(traced)
        try:
            _inprocess_session(out, recorder, dataset, pre, config, qi, labels, traced, window,
                               probe_first_views)
        finally:
            reset_active(token)
        if window.time_up(len(out.view_ms)):
            break
        probe_first_views()
        with window.off_clock():
            set_up(itertools.islice(reps, SETUP_REPS_BETWEEN))
    out.close_window(window, counter_delta(before, read_counters()))
    while window.probes < window.probes_wanted:
        _inprocess_probe(out, dataset, pre, config, next(remaining))
        window.probed()
    set_up(reps)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    recorder.restore()
    out.client_spans = [s for s in recorder.spans if s["end"] is not None]
    t0 = time.perf_counter()
    if out.results:
        qi = next(iter(out.results))
        out.problems.extend(check_resume(dataset, pre, config, qi, out.results[qi]))
    out.phase_s["check"] = time.perf_counter() - t0
    return out


def _inprocess_probe(out, dataset, pre, config, qi) -> None:
    """Time one session's first view, untraced, and close it."""
    token = set_active(False)
    before = read_counters()
    engine = SearchEngine(dataset, config, precomputed=pre, structural_spans=False)
    try:
        t0 = time.perf_counter()
        engine.start(dataset.points[qi])
        out.first_view_ms.append((time.perf_counter() - t0) * 1e3)
        out.tally.ok()
    except Exception as exc:
        out.tally.fail(f"query {qi}: first-view probe: {type(exc).__name__}: {exc}")
    finally:
        engine.close()
        reset_active(token)
    out.probed(1, counter_delta(before, read_counters()))


def _inprocess_session(out, recorder, dataset, pre, config, qi, labels, traced, window,
                       probe_first_views) -> None:
    key = f"q{qi}"
    engine = SearchEngine(dataset, config, precomputed=pre, structural_spans=False)
    user = OracleUser(dataset, qi)
    steps = 0
    try:
        t0 = time.perf_counter()
        event = engine.start(dataset.points[qi])
        out.first_view_ms.append((time.perf_counter() - t0) * 1e3)
        out.tally.ok()
        steps += 1
        while isinstance(event, ViewRequest):
            if window.time_up(len(out.view_ms)):
                out.cut_steps.append(steps)
                engine.close()
                return
            probe_first_views()
            t0 = time.perf_counter()
            with recorder.span("interaction.review", key=key):
                decision = validate_decision(user.review_view(event.view), event.view)
            out.review_ms.append((time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            with recorder.span("engine.submit", key=key):
                event = engine.submit(decision)
            out.view_ms.append((time.perf_counter() - t0) * 1e3)
            out.view_traced.append(traced)
            out.tally.ok()
            out.decisions += 1
            out.accepted += int(decision.accepted)
            steps += 1
    except Exception as exc:  # any failure of the program counts, the run goes on
        out.tally.fail(f"query {qi}: {type(exc).__name__}: {exc}")
        return
    if isinstance(event, SearchResult):
        out.session_done(steps, qi, event, labels)
    else:
        out.tally.session_without_result(f"query {qi}: ended without a result")


def check_resume(dataset, pre, config, qi, expected) -> list[str]:
    """Re-run one measured query through a checkpoint taken halfway and
    require the identical top-s set and probability digest."""
    user = OracleUser(dataset, qi)
    engine = SearchEngine(dataset, config, precomputed=pre, structural_spans=False)
    event = engine.start(dataset.points[qi])
    steps = 0
    while isinstance(event, ViewRequest):
        if steps == 5:
            blob = checkpoint_to_bytes(engine)
            engine.close()
            engine, event = resume_engine(
                checkpoint_from_bytes(blob), dataset, precomputed=pre, structural_spans=False
            )
        event = engine.submit(validate_decision(user.review_view(event.view), event.view))
        steps += 1
    top = [int(i) for i in event.neighbor_indices]
    digest = hashlib.sha256(np.asarray(event.probabilities, dtype=np.float64).tobytes()).hexdigest()
    if (top, digest) != expected:
        return [f"query {qi}: result after checkpoint/resume differs from the measured run"]
    return []


# ---------------------------------------------------------------------------
# Service workloads
# ---------------------------------------------------------------------------
class Server:
    """``python -m repro serve`` (or the tracing launcher) in a child process."""

    _PORT = re.compile(rb"session service on http://[0-9.]+:(\d+)")

    def __init__(self, workload: Workload, trace: bool, tag: str) -> None:
        root = Path.cwd()
        work = work_dir()
        serve_args = [
            "--host", "127.0.0.1", "--port", "0",
            "--dataset", "bench=" + json.dumps(workload.provenance()),
        ]
        self.spans_path = work / f"server-spans-{tag}.json"
        if trace:
            cmd = [sys.executable, str(root / "perfbench" / "launcher.py"),
                   "--spans-out", str(self.spans_path), "--", *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]
        )
        self.log_path = work / f"server-{tag}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = 0

    def wait_bound(self, timeout: float = 120.0) -> int:
        """Block until the server reports its bound port."""
        buffer = b""
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffer += chunk
                match = self._PORT.search(buffer)
                if match:
                    self.port = int(match.group(1))
                    return self.port
        raise RuntimeError(
            f"server did not bind (exit code {self.proc.poll()}); see {self.log_path}"
        )

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match is None:
            raise RuntimeError("no VmHWM in /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if stuck."""
        if self.proc.stdout.closed:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self.log_path.stat().st_size == 0:
            self.log_path.unlink()


@dataclass
class _Session:
    session: str
    qi: int
    user: OracleUser
    event: dict[str, Any]
    view: Any
    traced: bool
    steps: int = 1


def run_service(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    config = workload.config()
    servers: list[Server] = []
    try:
        for rep in range(SETUP_REPS_SERVICE):
            t0 = time.perf_counter()
            dataset = build_dataset(workload)
            if servers:
                servers[-1].stop()
            server = Server(workload, trace, f"{workload.name}-{os.getpid()}-{rep}")
            servers.append(server)
            server.wait_bound()
            out.setup_s.append(time.perf_counter() - t0)
        out.phase_s["setup"] = sum(out.setup_s)
        server = servers[-1]
        recorder = SpanRecorder("client")
        if trace:
            patch_engine_layers(recorder)
        asyncio.run(_drive_service(out, recorder, server.port, dataset, config, seed, seconds, trace))
        out.peak_rss_mb = server.peak_rss_mb()
        recorder.restore()
        out.client_spans = [s for s in recorder.spans if s["end"] is not None]
    finally:
        for server in servers:
            server.stop()
    if trace:
        out.server_spans = load_spans(servers[-1].spans_path)
        out.data_load_s = [
            s["end"] - s["start"] for s in out.server_spans if s["name"] == "data.load"
        ]
        for server in servers:
            server.spans_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    out.problems.extend(check_against_engine(dataset, config, out.results))
    out.phase_s["check"] = time.perf_counter() - t0
    return out


async def _server_counters(client: ServiceClient) -> dict[str, float]:
    status, body = await client.request("GET", "/metrics.json")
    if status != 200:
        raise RuntimeError(f"GET /metrics.json answered {status}")
    metrics = body["metrics"]
    return {name: float(metrics.get(name, {}).get("value", 0.0)) for name in COUNTERS}


async def _drive_service(out, recorder, port, dataset, config, seed, seconds, trace) -> None:
    queries = iter(query_order(dataset, seed))
    labels = np.asarray(dataset.labels)
    config_payload = dataclasses.asdict(config)
    clients = [ServiceClient("127.0.0.1", port, read_timeout=60.0) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
    try:
        # Warm-up: each connection opens a session and decides twice.
        for client in clients:
            sess = await _create(out, client, dataset, config, config_payload, next(queries), False,
                                 count=False)
            for _ in range(2):
                if sess is not None:
                    await _decide(out, recorder, client, sess, config, labels, count=False)
            if sess is not None:
                await client.request("DELETE", f"/sessions/{sess.session}")

        async def probe() -> None:
            """Time one session's first view alone, then delete it."""
            qi = next(queries)
            counted = await _server_counters(clients[0])
            attempted = out.tally.attempted
            sess = await _create(out, clients[0], dataset, config, config_payload, qi, False,
                                 first_view=True)
            if sess is not None:
                status, _ = await clients[0].request("DELETE", f"/sessions/{sess.session}")
                if status == 204:
                    out.tally.ok()
                else:
                    out.tally.fail(f"query {qi}: DELETE answered {status}")
            out.probed(out.tally.attempted - attempted,
                       counter_delta(counted, await _server_counters(clients[0])))

        before = await _server_counters(clients[0])
        window = Window(seconds, FIRST_VIEW_PROBES, MIN_VIEWS, MAX_STRETCH)
        gate = ProbeGate(window, CONNECTIONS, probe)

        async def connection(client: ServiceClient) -> None:
            try:
                for qi in queries:
                    await gate.checkpoint()
                    if window.time_up(len(out.view_ms)):
                        return
                    sess = await _create(out, client, dataset, config, config_payload, qi, trace)
                    if sess is None or _finish(out, sess, labels):
                        continue
                    while True:
                        await gate.checkpoint()
                        if not await _decide(out, recorder, client, sess, config, labels):
                            break
                        if window.time_up(len(out.view_ms)):
                            out.cut_steps.append(sess.steps)
                            return
            finally:
                await gate.leave()

        await asyncio.gather(*(connection(client) for client in clients))
        out.close_window(window, counter_delta(before, await _server_counters(clients[0])))
        while window.probes < window.probes_wanted:
            await probe()
            window.probed()
    finally:
        for client in clients:
            await client.close()


async def _create(
    out, client, dataset, config, config_payload, qi, trace, count=True, first_view=False
) -> _Session | None:
    """Open a session; ``count`` tallies it, ``first_view`` also times it."""
    body = {"dataset": "bench", "config": config_payload, "query_index": qi, "view": "full"}
    t0 = time.perf_counter()
    try:
        status, payload = await client.request("POST", "/sessions", body)
        if status != 201:
            raise RuntimeError(f"POST /sessions answered {status}: {payload}")
        event = payload["event"]
        view = view_from_event(event, config) if event["type"] == "view_request" else None
    except Exception as exc:
        out.tally.fail(f"query {qi}: create: {type(exc).__name__}: {exc}")
        return None
    if first_view:
        out.first_view_ms.append((time.perf_counter() - t0) * 1e3)
    if count:
        out.tally.ok()
    session = payload["session"]
    return _Session(session, qi, OracleUser(dataset, qi), event, view,
                    traced=trace and session_traced(session))


def _finish(out: Outcome, sess: _Session, labels: np.ndarray) -> bool:
    """True when the session has ended (recorded as done or failed)."""
    kind = sess.event.get("type")
    if kind == "view_request":
        return False
    if kind == "search_result":
        out.session_done(sess.steps, sess.qi, sess.event, labels)
    else:
        out.tally.session_without_result(f"query {sess.qi}: ended with event {kind!r}")
    return True


async def _decide(out, recorder, client, sess: _Session, config, labels, count=True) -> bool:
    """One decision; True while the session still awaits decisions."""
    token = set_active(sess.traced and count)
    try:
        t0 = time.perf_counter()
        with recorder.span("interaction.review", key=sess.session):
            decision = validate_decision(sess.user.review_view(sess.view), sess.view)
        review_ms = (time.perf_counter() - t0) * 1e3
        payload = decision_to_payload(decision, sess.view, step=sess.event["step"])
        t0 = time.perf_counter()
        with recorder.span("client.view", key=sess.session):
            with recorder.span("service.round_trip") as record:
                status, body = await client.request(
                    "POST", f"/sessions/{sess.session}/decision", payload
                )
                if record is not None:
                    record["attrs"]["request_id"] = client.last_request_id
            if status != 200:
                raise RuntimeError(f"decision answered {status}: {body}")
            event = body["event"]
            view = None
            if event["type"] == "view_request":
                with recorder.span("service.client_rebuild"):
                    view = view_from_event(event, config)
        elapsed = (time.perf_counter() - t0) * 1e3
    except Exception as exc:
        if count:
            out.tally.fail(f"query {sess.qi}: decision: {type(exc).__name__}: {exc}")
        return False
    finally:
        reset_active(token)
    sess.event, sess.view = event, view
    sess.steps += 1
    if count:
        out.tally.ok()
        out.view_ms.append(elapsed)
        out.view_traced.append(sess.traced)
        out.review_ms.append(review_ms)
        out.decisions += 1
        out.accepted += int(decision.accepted)
        return not _finish(out, sess, labels)
    return event["type"] == "view_request"


def check_against_engine(dataset, config, results) -> list[str]:
    """The served results must equal the in-process engine's, bit for bit:
    ``paper_exact`` computes exactly these sessions for the same seed."""
    pre = DatasetPrecomputation(dataset)
    problems = []
    for qi, (top, digest) in results.items():
        engine = SearchEngine(dataset, config, precomputed=pre, structural_spans=False)
        result = drive_session(engine, dataset, qi)
        ref_top = [int(i) for i in result.neighbor_indices]
        ref_digest = hashlib.sha256(
            np.asarray(result.probabilities, dtype=np.float64).tobytes()
        ).hexdigest()
        if (ref_top, ref_digest) != (top, digest):
            problems.append(f"query {qi}: served result differs from the in-process engine")
    return problems


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    if workload.mode == "service":
        return run_service(workload, seed, seconds, trace)
    try:
        return run_inprocess(workload, seed, seconds, trace)
    finally:
        remove_npy_files(workload)
