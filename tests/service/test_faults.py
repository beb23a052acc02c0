"""Fault-injection suite: the service must survive kills, corrupted
checkpoints, and byte-pressure eviction without losing sessions or
crashing the server.

Three fault families:

* **Kill/recover** — the server process "dies" mid-session (runtime
  stopped, all in-memory state discarded); a brand-new service over
  the same spill directory readopts the checkpoint and the session
  finishes over HTTP with a result identical to an uninterrupted run.
* **Corruption/loss** — a truncated or vanished on-disk checkpoint
  maps to one clean 410, the service marks the session failed, and
  the server keeps serving everything else.
* **Eviction transparency** — under a tiny byte budget, interleaved
  sessions are constantly evicted to disk and restored; none of them
  notice.  (The hypothesis property test over arbitrary eviction
  orders lives at the store layer in ``test_store.py``; here the same
  store runs under the full HTTP stack.)
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine, ViewRequest
from repro.obs.metrics import counter
from repro.service.app import ServiceRuntime, SessionService
from repro.service.client import ServiceClient
from repro.service.store import SPILL_SUFFIX, SpilloverSessionStore
from repro.service.wire import decision_from_payload

from tests.service.conftest import FAST_CONFIG, query_of, run_async

#: Small enough that every checkpoint is oversized and lands on disk
#: immediately — the store behaves like a pure disk store, which is
#: exactly what crash recovery needs to have something to recover.
TINY_BUDGET = 1024


def reject_all_in_process(dataset, config, query):
    """Drive an engine to completion with all-reject decisions.

    Uses the wire decision codec so the constructed decisions are
    *identical* to what the HTTP path builds from ``accepted: false``
    payloads — the twin for every fault scenario below.
    """
    engine = SearchEngine(dataset, config, structural_spans=False)
    event = engine.start(query)
    step = 1
    while isinstance(event, ViewRequest):
        _, decision = decision_from_payload(
            {"step": step, "accepted": False}, event.view
        )
        event = engine.submit(decision)
        step += 1
    return event


async def reject_until_done(client, session_id, event):
    """Drive a live HTTP session to its terminal event with rejects."""
    while event["type"] == "view_request":
        response = await client.expect(
            200,
            "POST",
            f"/sessions/{session_id}/decision",
            {"step": event["step"], "accepted": False},
        )
        event = response["event"]
    return event


class TestKillAndRecover:
    def test_session_survives_server_death(
        self, small_service_dataset, tmp_path
    ):
        """Kill the server after 3 decisions; a new service over the
        same spill directory resumes the session via the API and the
        result is byte-identical to an uninterrupted in-process run."""
        spill_dir = tmp_path / "spill"
        config = SearchConfig(**FAST_CONFIG)
        query = query_of(small_service_dataset, 5)

        def fresh_service():
            store = SpilloverSessionStore(
                byte_budget=TINY_BUDGET, spill_dir=spill_dir
            )
            svc = SessionService(store=store)
            svc.register_dataset("small", small_service_dataset)
            return svc

        # --- first life: create + 3 decisions, then die -----------------
        async def first_life(port):
            async with ServiceClient("127.0.0.1", port) as client:
                created = await client.expect(
                    201,
                    "POST",
                    "/sessions",
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query": query,
                    },
                )
                sid = created["session"]
                event = created["event"]
                for _ in range(3):
                    response = await client.expect(
                        200,
                        "POST",
                        f"/sessions/{sid}/decision",
                        {"step": event["step"], "accepted": False},
                    )
                    event = response["event"]
                    assert event["type"] == "view_request"
                return sid, event

        with ServiceRuntime(fresh_service()) as runtime:
            sid, last_event = run_async(first_life(runtime.port))
        # The runtime is gone; only the spill directory survives.
        assert (spill_dir / f"{sid}{SPILL_SUFFIX}").exists()

        # --- second life: recover and finish over HTTP ------------------
        revived = fresh_service()
        assert revived.recover_sessions() == 1

        async def second_life(port):
            async with ServiceClient("127.0.0.1", port) as client:
                snapshot = await client.expect(200, "GET", f"/sessions/{sid}")
                return snapshot, await reject_until_done(
                    client, sid, {"type": "view_request", "step": snapshot["step"]}
                )

        with ServiceRuntime(revived) as runtime:
            snapshot, final = run_async(second_life(runtime.port))
        assert snapshot["status"] == "awaiting_decision"
        assert snapshot["step"] == last_event["step"]
        assert snapshot["checkpoint_stored"] is True

        twin = reject_all_in_process(small_service_dataset, config, query)
        assert final["type"] == "search_result"
        assert final["reason"] == twin.reason.name
        assert final["neighbor_indices"] == [
            int(i) for i in twin.neighbor_indices
        ]
        assert json.dumps(
            final["result"]["probabilities"]
        ) == json.dumps([float(p) for p in twin.probabilities])

    def test_recovery_without_dataset_marks_failed(
        self, small_service_dataset, tmp_path
    ):
        """A checkpoint whose dataset isn't registered on the new server
        becomes a failed session — visible, not silently dropped."""
        spill_dir = tmp_path / "spill"

        store = SpilloverSessionStore(
            byte_budget=TINY_BUDGET, spill_dir=spill_dir
        )
        svc = SessionService(store=store)
        svc.register_dataset("small", small_service_dataset)

        async def create(port):
            async with ServiceClient("127.0.0.1", port) as client:
                created = await client.expect(
                    201,
                    "POST",
                    "/sessions",
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query_index": 0,
                    },
                )
                return created["session"]

        with ServiceRuntime(svc) as runtime:
            sid = run_async(create(runtime.port))

        bare = SessionService(
            store=SpilloverSessionStore(
                byte_budget=TINY_BUDGET, spill_dir=spill_dir
            )
        )
        assert bare.recover_sessions() == 0

        async def probe(port):
            async with ServiceClient("127.0.0.1", port) as client:
                snapshot = await client.expect(200, "GET", f"/sessions/{sid}")
                decide = await client.request(
                    "POST",
                    f"/sessions/{sid}/decision",
                    {"step": snapshot["step"], "accepted": False},
                )
                return snapshot, decide

        with ServiceRuntime(bare) as runtime:
            snapshot, (status, decoded) = run_async(probe(runtime.port))
        assert snapshot["status"] == "failed"
        assert "not registered" in snapshot["error"]
        assert status == 410
        assert decoded["error"]["code"] == "session_failed"
        # The checkpoint stays on disk for an operator with the dataset.
        assert (spill_dir / f"{sid}{SPILL_SUFFIX}").exists()


    def test_unreadable_spill_files_are_skipped(
        self, small_service_dataset, tmp_path
    ):
        """Spill files whose config or sections are malformed are
        logged and skipped; every readable one is still recovered,
        including one written while checkpoints carried the retired
        ``kde_subsample`` key."""
        spill_dir = tmp_path / "spill"

        def fresh_service():
            svc = SessionService(
                store=SpilloverSessionStore(
                    byte_budget=TINY_BUDGET, spill_dir=spill_dir
                )
            )
            svc.register_dataset("small", small_service_dataset)
            return svc

        async def create(port):
            async with ServiceClient("127.0.0.1", port) as client:
                created = await client.expect(
                    201,
                    "POST",
                    "/sessions",
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query_index": 0,
                    },
                )
                return created["session"]

        with ServiceRuntime(fresh_service()) as runtime:
            sid = run_async(create(runtime.port))
        good = json.loads((spill_dir / f"{sid}{SPILL_SUFFIX}").read_text())

        def spill(name, mutate):
            checkpoint = json.loads(json.dumps(good))
            mutate(checkpoint)
            (spill_dir / f"{name}{SPILL_SUFFIX}").write_text(
                json.dumps(checkpoint, sort_keys=True)
            )

        spill("unknown-key", lambda c: c["config"].update(no_such_knob=1))
        spill("negative-support", lambda c: c["config"].update(support=-1))
        spill("dataset-list", lambda c: c.update(dataset=[1, 2]))
        spill("legacy", lambda c: c["config"].update(kde_subsample=4096))

        revived = fresh_service()
        assert revived.recover_sessions() == 2

        async def probe(port):
            async with ServiceClient("127.0.0.1", port) as client:
                return {
                    name: await client.request("GET", f"/sessions/{name}")
                    for name in (
                        sid,
                        "legacy",
                        "unknown-key",
                        "negative-support",
                        "dataset-list",
                    )
                }

        with ServiceRuntime(revived) as runtime:
            replies = run_async(probe(runtime.port))
        for name in (sid, "legacy"):
            status, snapshot = replies[name]
            assert status == 200
            assert snapshot["status"] == "awaiting_decision"
        for name in ("unknown-key", "negative-support", "dataset-list"):
            assert replies[name][0] == 404


class TestCorruptionAndLoss:
    @pytest.mark.parametrize("damage", ["truncate", "garbage"])
    def test_corrupt_checkpoint_is_clean_410(self, spill_server, damage):
        runtime, spill_dir = spill_server

        async def scenario():
            async with ServiceClient("127.0.0.1", runtime.port) as client:
                created = await client.expect(
                    201,
                    "POST",
                    "/sessions",
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query_index": 0,
                    },
                )
                sid = created["session"]
                step = created["event"]["step"]

                # Force the checkpoint to disk, then damage it.
                runtime.service._store.flush_to_disk(sid)
                path = spill_dir / f"{sid}{SPILL_SUFFIX}"
                assert path.exists()
                if damage == "truncate":
                    path.write_bytes(path.read_bytes()[: 40])
                else:
                    path.write_bytes(b"\x00not json at all")

                status, decoded = await client.request(
                    "POST",
                    f"/sessions/{sid}/decision",
                    {"step": step, "accepted": False},
                )
                snapshot = await client.expect(200, "GET", f"/sessions/{sid}")
                again = await client.request(
                    "POST",
                    f"/sessions/{sid}/decision",
                    {"step": step, "accepted": False},
                )
                health = await client.expect(200, "GET", "/healthz")
                # The server is still fully functional: a new session
                # starts and takes a decision.
                fresh = await client.expect(
                    201,
                    "POST",
                    "/sessions",
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query_index": 1,
                    },
                )
                await client.expect(
                    200,
                    "POST",
                    f"/sessions/{fresh['session']}/decision",
                    {"step": fresh["event"]["step"], "accepted": False},
                )
                return sid, status, decoded, snapshot, again, health

        failed_before = counter("service.sessions.failed").value
        sid, status, decoded, snapshot, again, health = run_async(scenario())

        assert status == 410
        assert decoded["error"]["code"] == "checkpoint_corrupt"
        assert snapshot["status"] == "failed"
        assert snapshot["checkpoint_stored"] is False
        # The second decision reports the terminal failure, not a crash.
        assert again[0] == 410
        assert again[1]["error"]["code"] == "session_failed"
        # The service counted the failure.
        assert counter("service.sessions.failed").value == failed_before + 1
        assert health["sessions"]["failed"] >= 1

    def test_lost_checkpoint_is_clean_410(self, server):
        async def scenario():
            async with ServiceClient("127.0.0.1", server.port) as client:
                created = await client.expect(
                    201,
                    "POST",
                    "/sessions",
                    {
                        "dataset": "small",
                        "config": FAST_CONFIG,
                        "query_index": 2,
                    },
                )
                sid = created["session"]
                step = created["event"]["step"]
                # The store loses the checkpoint (operator wipe, TTL...).
                server.service._store.delete(sid)
                status, decoded = await client.request(
                    "POST",
                    f"/sessions/{sid}/decision",
                    {"step": step, "accepted": False},
                )
                snapshot = await client.expect(200, "GET", f"/sessions/{sid}")
                return status, decoded, snapshot

        status, decoded, snapshot = run_async(scenario())
        assert status == 410
        assert decoded["error"]["code"] == "checkpoint_lost"
        assert snapshot["status"] == "failed"


class TestEvictionTransparency:
    def test_interleaved_sessions_survive_byte_pressure(
        self, spill_server, small_service_dataset
    ):
        """Four sessions interleaved under a 64 KiB budget: the store
        constantly evicts and restores checkpoints, and every session
        still produces exactly its uninterrupted twin's result."""
        runtime, spill_dir = spill_server
        n_sessions = 4
        configs = [
            SearchConfig(**FAST_CONFIG, rng_seed=seed)
            for seed in range(n_sessions)
        ]
        queries = [
            query_of(small_service_dataset, i) for i in range(n_sessions)
        ]

        async def scenario():
            async with ServiceClient("127.0.0.1", runtime.port) as client:
                sids, events = [], []
                for i in range(n_sessions):
                    created = await client.expect(
                        201,
                        "POST",
                        "/sessions",
                        {
                            "dataset": "small",
                            "config": dict(FAST_CONFIG, rng_seed=i),
                            "query": queries[i],
                        },
                    )
                    sids.append(created["session"])
                    events.append(created["event"])
                finals: list[dict | None] = [None] * n_sessions
                saw_disk = 0
                # Round-robin one decision at a time across all sessions.
                while any(f is None for f in finals):
                    for i in range(n_sessions):
                        if finals[i] is not None:
                            continue
                        response = await client.expect(
                            200,
                            "POST",
                            f"/sessions/{sids[i]}/decision",
                            {"step": events[i]["step"], "accepted": False},
                        )
                        event = response["event"]
                        if event["type"] == "view_request":
                            events[i] = event
                        else:
                            finals[i] = event
                    stats = runtime.service._store.stats()
                    saw_disk = max(saw_disk, stats["disk_entries"])
                return finals, saw_disk

        restores_before = counter("service.store.restores").value
        finals, saw_disk = run_async(scenario())

        # Byte pressure really did push live sessions to disk...
        assert saw_disk > 0
        assert counter("service.store.restores").value > restores_before
        # ...and none of them noticed.
        for i, final in enumerate(finals):
            twin = reject_all_in_process(
                small_service_dataset, configs[i], queries[i]
            )
            assert final["reason"] == twin.reason.name
            assert final["neighbor_indices"] == [
                int(j) for j in twin.neighbor_indices
            ]
