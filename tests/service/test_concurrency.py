"""Concurrency smoke test: 200 interleaved sessions, zero state bleed.

200 remote drivers run concurrently on one client event loop against a
live server, each with its own RNG seed and query.  Isolation is
asserted two ways:

* every session's *first-view* RNG digest is unique — engines seeded
  differently never share a random stream, so any cross-session bleed
  of engine state would collide or scramble digests;
* every terminal result is byte-identical to a sequential in-process
  twin of the same seed and query — the concurrent interleaving (and
  the checkpoint/resume cycle behind every single decision) changed
  nothing.
"""

from __future__ import annotations

import asyncio
import json

from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine
from repro.core.search import drive
from repro.core.serialization import result_to_dict
from repro.interaction.heuristic import HeuristicUser
from repro.service.client import RemoteSessionDriver, ServiceClient
from repro.service.wire import view_from_event

from tests.service.conftest import FAST_CONFIG, run_async

N_SESSIONS = 200


class TestInterleavedSessions:
    def test_200_sessions_no_state_bleed(self, server, small_service_dataset):
        dataset = small_service_dataset

        async def one_session(port: int, i: int):
            async with ServiceClient("127.0.0.1", port) as client:
                driver = RemoteSessionDriver(
                    client,
                    user=HeuristicUser(),
                    config=SearchConfig(**FAST_CONFIG, rng_seed=i),
                )
                final = await driver.run(
                    "small", query_index=i % dataset.size
                )
                return driver, final

        async def fan_out(port: int):
            return await asyncio.gather(
                *(one_session(port, i) for i in range(N_SESSIONS))
            )

        outcomes = run_async(fan_out(server.port))

        # Everyone finished; nothing raised, nothing hung.
        assert len(outcomes) == N_SESSIONS
        for driver, final in outcomes:
            assert final["type"] == "search_result"
            assert driver.steps >= 1
            assert len(driver.rng_digests) == driver.steps

        # Distinct seeds => globally distinct first-view RNG digests.
        first_digests = {driver.rng_digests[0] for driver, _ in outcomes}
        assert len(first_digests) == N_SESSIONS

        # Every concurrent run equals its sequential in-process twin,
        # byte for byte.
        for i, (_, final) in enumerate(outcomes):
            engine = SearchEngine(
                dataset,
                SearchConfig(**FAST_CONFIG, rng_seed=i),
                structural_spans=False,
            )
            twin = drive(
                engine,
                dataset.points[i % dataset.size],
                HeuristicUser(),
            )
            local = result_to_dict(
                twin, top_k_probabilities=None, include_bases=True
            )
            assert json.dumps(final["result"], sort_keys=True) == json.dumps(
                local, sort_keys=True
            ), f"session {i} diverged from its sequential twin"

    def test_sessions_do_not_share_live_sets(self, server, small_service_dataset):
        """Two same-seed sessions advancing in strict lockstep keep
        independent live sets: A accepts a 25-point subset every view,
        B rejects everything — after the major-iteration boundary
        prunes A down, B must still see the full dataset."""
        two_majors = dict(FAST_CONFIG, rng_seed=99, max_major_iterations=2)
        config = SearchConfig.from_dict(two_majors)

        async def scenario(port: int):
            async with ServiceClient("127.0.0.1", port) as a_client, \
                    ServiceClient("127.0.0.1", port) as b_client:
                sessions = {}
                for key, client in (("a", a_client), ("b", b_client)):
                    created = await client.expect(
                        201,
                        "POST",
                        "/sessions",
                        {
                            "dataset": "small",
                            "config": two_majors,
                            "query_index": 0,
                            "view": "full",
                        },
                    )
                    sessions[key] = [client, created["session"], created["event"]]

                async def advance(key):
                    client, sid, event = sessions[key]
                    if key == "a":
                        live = view_from_event(event, config).live_indices
                        subset = sorted(int(i) for i in live[:25])
                        body = {
                            "step": event["step"],
                            "accepted": True,
                            "selected_indices": subset,
                            "threshold": 0.5,
                        }
                    else:
                        body = {"step": event["step"], "accepted": False}
                    response = await client.expect(
                        200, "POST", f"/sessions/{sid}/decision", body
                    )
                    sessions[key][2] = response["event"]

                # Strictly alternate single decisions until both
                # sessions have crossed into their second major
                # iteration (where A's prune has taken effect).
                while any(
                    sessions[key][2]["type"] == "view_request"
                    and sessions[key][2]["major"] < 1
                    for key in ("a", "b")
                ):
                    for key in ("a", "b"):
                        if (
                            sessions[key][2]["type"] == "view_request"
                            and sessions[key][2]["major"] < 1
                        ):
                            await advance(key)
                return sessions["a"][2], sessions["b"][2]

        a_event, b_event = run_async(scenario(server.port))
        assert a_event["major"] == 1 and b_event["major"] == 1
        assert a_event["live_count"] == 25
        assert b_event["live_count"] == small_service_dataset.size
        assert a_event["live_digest"] != b_event["live_digest"]
