"""Hot and cold resumes over real sockets serve identical sessions.

A hot checkpoint carries the engine's pending view in the store, so
its resume installs that view instead of recomputing it.  A cold one
(spilled to disk) recomputes.  The same oracle session is driven
through both kinds of store; everything the client or the flight
recorder can see must be identical, and only the recompute counter
tells the two paths apart.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import SearchConfig
from repro.interaction.base import validate_decision
from repro.interaction.oracle import OracleUser
from repro.obs.journal import read_journal
from repro.obs.metrics import counter_values
from repro.service.app import ServiceRuntime, SessionService
from repro.service.client import ServiceClient
from repro.service.store import SpilloverSessionStore
from repro.service.wire import decision_to_payload, view_from_event

from tests.service.conftest import run_async

#: Two major iterations, so pruning changes the live set mid-session.
PARITY_CONFIG = SearchConfig(
    support=10,
    grid_resolution=30,
    min_major_iterations=2,
    max_major_iterations=2,
    projection_restarts=2,
)
QUERY_INDEX = 5


def _drive(store, dataset, journal_dir):
    """One oracle session through a fresh service over *store*.

    Returns the wire events (session ids stripped), the journal
    records, and the deltas of the two hot-path counters.
    """
    service = SessionService(store=store, journal_dir=journal_dir)
    service.register_dataset("small", dataset)
    user = OracleUser(dataset, QUERY_INDEX)
    before = counter_values()
    with ServiceRuntime(service) as runtime:

        async def scenario():
            async with ServiceClient("127.0.0.1", runtime.port) as client:
                created = await client.expect(
                    201,
                    "POST",
                    "/sessions",
                    {
                        "dataset": "small",
                        "query_index": QUERY_INDEX,
                        "config": dataclasses.asdict(PARITY_CONFIG),
                        "view": "full",
                    },
                )
                session_id = created["session"]
                events = [created["event"]]
                while events[-1]["type"] == "view_request":
                    event = events[-1]
                    view = view_from_event(event, PARITY_CONFIG)
                    decision = validate_decision(user.review_view(view), view)
                    response = await client.expect(
                        200,
                        "POST",
                        f"/sessions/{session_id}/decision",
                        decision_to_payload(decision, view, step=event["step"]),
                    )
                    events.append(response["event"])
                return session_id, events

        session_id, events = run_async(scenario())
    after = counter_values()

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    for event in events:
        assert event.pop("session") == session_id
    records = read_journal(journal_dir / f"{session_id}.jsonl")
    journal = []
    for record in records:
        payload = {k: v for k, v in record.payload.items() if k != "ctx"}
        journal.append((record.type, payload))
    counters = {
        "view_recomputes": delta("service.view_recomputes"),
        "fingerprint_hashes": delta("data.fingerprint.hashes"),
    }
    return events, journal, counters


def test_hot_and_cold_resumes_serve_identical_sessions(
    small_service_dataset, tmp_path
):
    hot = _drive(
        SpilloverSessionStore(), small_service_dataset, tmp_path / "hot"
    )
    cold = _drive(
        SpilloverSessionStore(byte_budget=1, spill_dir=tmp_path / "spill"),
        small_service_dataset,
        tmp_path / "cold",
    )
    hot_events, hot_journal, hot_counters = hot
    cold_events, cold_journal, cold_counters = cold

    decisions = len(hot_events) - 1
    assert decisions > PARITY_CONFIG.min_major_iterations
    assert hot_events[-1]["type"] == "search_result"
    # Every wire event, the final search_result included, is identical.
    assert cold_events == hot_events
    # So is the flight record, once timestamps and request ids go.
    assert [t for t, _ in cold_journal] == [t for t, _ in hot_journal]
    assert cold_journal == hot_journal
    assert sum(1 for t, _ in hot_journal if t == "resume") == decisions
    # Only the counters tell the paths apart: every cold decision
    # recomputed its view, no hot one did, and neither re-hashed the
    # dataset after registration.
    assert hot_counters == {"view_recomputes": 0, "fingerprint_hashes": 0}
    assert cold_counters == {
        "view_recomputes": decisions,
        "fingerprint_hashes": 0,
    }


def test_deleted_and_finished_sessions_drop_their_pending_view(
    small_service_dataset,
):
    store = SpilloverSessionStore()
    service = SessionService(store=store)
    service.register_dataset("small", small_service_dataset)
    with ServiceRuntime(service) as runtime:

        async def scenario():
            async with ServiceClient("127.0.0.1", runtime.port) as client:
                body = {
                    "dataset": "small",
                    "query_index": QUERY_INDEX,
                    "config": dataclasses.asdict(PARITY_CONFIG),
                }
                kept = await client.expect(201, "POST", "/sessions", body)
                doomed = await client.expect(201, "POST", "/sessions", body)
                assert store.stats()["pending_views"] == 2
                await client.expect(
                    204, "DELETE", f"/sessions/{doomed['session']}"
                )
                assert store.pending(doomed["session"]) is None
                assert store.pending(kept["session"]) is not None
                event = kept["event"]
                while event["type"] == "view_request":
                    response = await client.expect(
                        200,
                        "POST",
                        f"/sessions/{kept['session']}/decision",
                        {"step": event["step"], "accepted": False},
                    )
                    event = response["event"]
                assert store.stats()["pending_views"] == 0

        run_async(scenario())
