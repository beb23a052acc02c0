"""Fixtures for the session-service suites: a live server on a random
port, shared datasets, and a sync->async bridge.

The server runs a real ``asyncio.start_server`` loop on a background
thread (:class:`~repro.service.app.ServiceRuntime`); clients talk to
it over real TCP sockets from a *second* event loop created per test
via :func:`run_async` — the same topology the load benchmark uses.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable

import numpy as np
import pytest

from repro.obs.replay import dataset_from_provenance
from repro.service.app import ServiceRuntime, SessionService
from repro.service.store import SpilloverSessionStore

#: The golden journal's dataset provenance (tests/golden/).
GOLDEN_PROVENANCE = {"kind": "case1", "seed": 7, "n_points": 500}

#: A fast config for multi-session tests (few, cheap iterations).
FAST_CONFIG = dict(
    support=10,
    grid_resolution=30,
    min_major_iterations=1,
    max_major_iterations=1,
    projection_restarts=2,
)


def run_async(coroutine: Awaitable[Any]) -> Any:
    """Run a client coroutine against the background server."""
    return asyncio.run(coroutine)


@pytest.fixture(scope="session")
def golden_dataset():
    """The dataset behind tests/golden/session_journal_golden.jsonl."""
    return dataset_from_provenance(GOLDEN_PROVENANCE)


@pytest.fixture(scope="session")
def small_service_dataset():
    """A small case1 dataset for cheap many-session tests."""
    return dataset_from_provenance(
        {"kind": "case1", "seed": 3, "n_points": 240}
    )


@pytest.fixture
def service(golden_dataset, small_service_dataset):
    """A fresh in-memory service with both test datasets registered."""
    svc = SessionService()
    svc.register_dataset("golden", golden_dataset)
    svc.register_dataset("small", small_service_dataset)
    return svc


@pytest.fixture
def server(service):
    """The service live on an ephemeral port; yields the runtime."""
    with ServiceRuntime(service) as runtime:
        yield runtime


@pytest.fixture
def spill_server(golden_dataset, small_service_dataset, tmp_path):
    """A server whose store spills to disk under a tiny byte budget.

    Yields ``(runtime, spill_dir)``; a FAST_CONFIG checkpoint is ~6 KiB,
    so the 10 KiB budget holds exactly one hot checkpoint — any second
    concurrent session lives on disk, driving the fault and eviction
    suites through constant evict/restore cycles.
    """
    spill_dir = tmp_path / "spill"
    store = SpilloverSessionStore(byte_budget=10 * 1024, spill_dir=spill_dir)
    svc = SessionService(store=store)
    svc.register_dataset("golden", golden_dataset)
    svc.register_dataset("small", small_service_dataset)
    with ServiceRuntime(svc) as runtime:
        yield runtime, spill_dir


def query_of(dataset, index: int = 0) -> list[float]:
    """A dataset point as a JSON-ready query vector."""
    return [float(v) for v in np.asarray(dataset.points[index], dtype=float)]
