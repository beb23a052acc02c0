"""Hot and cold resumes over real sockets serve identical sessions.

A hot checkpoint has the suspended engine that wrote it next to it in
the store, so its decision wakes that engine instead of decoding the
checkpoint and recomputing the view.  A cold one (spilled to disk) is
decoded and recomputes.  The same oracle session is driven
through both kinds of store; everything the client or the flight
recorder can see must be identical, and only the recompute counter
tells the two paths apart.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine
from repro.core.serialization import checkpoint_to_bytes
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


def _service(store, dataset, journal_dir=None):
    service = SessionService(store=store, journal_dir=journal_dir)
    service.register_dataset("small", dataset)
    return service


def _serve_session(service, store, dataset):
    """One oracle session through *service*, whose store is *store*; a
    decision answered 500 is sent again once.

    Returns the session id, the wire events (session ids stripped) and,
    for each 500, whether the store still held the checkpoint and how
    many engines it kept.
    """
    user = OracleUser(dataset, QUERY_INDEX)
    after_failures = []
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
                    path = f"/sessions/{session_id}/decision"
                    payload = decision_to_payload(
                        decision, view, step=event["step"]
                    )
                    status, body = await client.request("POST", path, payload)
                    if status == 500:
                        after_failures.append(
                            (session_id in store, store.stats()["engines"])
                        )
                        status, body = await client.request(
                            "POST", path, payload
                        )
                    assert status == 200, body
                    events.append(body["event"])
                return session_id, events

        session_id, events = run_async(scenario())
    for event in events:
        assert event.pop("session") == session_id
    return session_id, events, after_failures


def _drive(store, dataset, journal_dir):
    """One journaled oracle session through a fresh service over *store*.

    Returns the wire events (session ids stripped), the journal
    records, and the deltas of the two hot-path counters.
    """
    service = _service(store, dataset, journal_dir)
    before = counter_values()
    session_id, events, _ = _serve_session(service, store, dataset)
    after = counter_values()

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

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


def test_deleted_and_finished_sessions_drop_their_engine(
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
                assert store.stats()["engines"] == 2
                await client.expect(
                    204, "DELETE", f"/sessions/{doomed['session']}"
                )
                assert doomed["session"] not in store
                assert store.stats()["engines"] == 1
                event = kept["event"]
                while event["type"] == "view_request":
                    response = await client.expect(
                        200,
                        "POST",
                        f"/sessions/{kept['session']}/decision",
                        {"step": event["step"], "accepted": False},
                    )
                    event = response["event"]
                assert store.stats()["engines"] == 0

        run_async(scenario())



def _recomputes_since(before):
    name = "service.view_recomputes"
    return counter_values().get(name, 0.0) - before.get(name, 0.0)


def test_a_failed_decision_leaves_no_engine_to_wake(
    small_service_dataset, monkeypatch
):
    store = SpilloverSessionStore()
    _, undisturbed, _ = _serve_session(
        _service(store, small_service_dataset), store, small_service_dataset
    )
    real_submit = SearchEngine.submit
    steps = []

    def submit(self, decision):
        steps.append(self.state.step)
        if len(steps) == 3:
            # Half a decision: the state moves, then the step dies.
            self.state.minor += 1
            self.state.live = self.state.live[1:]
            raise RuntimeError("submit failed half-way")
        return real_submit(self, decision)

    monkeypatch.setattr(SearchEngine, "submit", submit)
    store = SpilloverSessionStore()
    service = _service(store, small_service_dataset)
    before = counter_values()
    _, events, after_failures = _serve_session(
        service, store, small_service_dataset
    )
    # The 500 left the checkpoint bytes and no engine beside them, so
    # the retried decision resumed cold, and it alone.
    assert after_failures == [(True, 0)]
    assert steps[2] == steps[3]
    assert _recomputes_since(before) == 1
    assert events == undisturbed


def test_a_woken_engine_is_its_stored_bytes(
    small_service_dataset, monkeypatch
):
    store = SpilloverSessionStore()
    real_wake = SearchEngine.wake
    checks = []

    def wake(self, **kwargs):
        event = real_wake(self, **kwargs)
        (session_id,) = store.ids()
        checks.append(checkpoint_to_bytes(self) == store.get(session_id))
        return event

    monkeypatch.setattr(SearchEngine, "wake", wake)
    service = _service(store, small_service_dataset)
    before = counter_values()
    _, events, _ = _serve_session(service, store, small_service_dataset)
    assert events[-1]["type"] == "search_result"
    assert _recomputes_since(before) == 0
    assert checks == [True] * (len(events) - 1)
