"""The measuring window's clock and the first-view probes spread over it.

Kept free of numpy and of the program under test so it can be tested
without building anything.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import contextmanager
from typing import Awaitable, Callable, Iterator


class Window:
    """The measuring window's clock.

    It stops while the run does what the measured load must not see
    (set-ups, first-view probes), and it says when a first-view probe is
    due: ``probes`` of them, one every ``seconds / probes`` of window
    time (none beyond those while the window stretches).  The window ends once ``seconds`` are over and ``min_views``
    views were measured, or at ``max_stretch`` times ``seconds``.
    """

    def __init__(
        self,
        seconds: float,
        probes: int,
        min_views: int,
        max_stretch: float,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.seconds = seconds
        self.min_views = min_views
        self.max_stretch = max_stretch
        self.probes_wanted = probes
        self.probe_every = seconds / probes
        self.next_probe = self.probe_every
        self.probes = 0
        self.paused = 0.0
        self._clock = clock
        self.start = clock()

    def elapsed(self) -> float:
        return self._clock() - self.start - self.paused

    def time_up(self, views: int) -> bool:
        now = self.elapsed()
        return now >= self.seconds * self.max_stretch or (
            now >= self.seconds and views >= self.min_views
        )

    def probe_due(self) -> bool:
        return self.probes < self.probes_wanted and self.elapsed() >= self.next_probe

    @contextmanager
    def off_clock(self) -> Iterator[None]:
        t0 = self._clock()
        try:
            yield
        finally:
            self.paused += self._clock() - t0

    def probed(self) -> None:
        self.probes += 1
        self.next_probe += self.probe_every


class ProbeGate:
    """Runs the due first-view probes of a window whose connections run
    concurrently: each connection parks at ``checkpoint`` (no request in
    flight), and the last to park runs the probes alone, off the clock."""

    def __init__(self, window: Window, members: int, probe: Callable[[], Awaitable[None]]) -> None:
        self.window = window
        self.active = members
        self.parked = 0
        self.probe = probe
        self.release = asyncio.Event()

    async def checkpoint(self) -> None:
        if not self.window.probe_due():
            return
        self.parked += 1
        if self.parked < self.active:
            await self.release.wait()
        else:
            await self._run()

    async def leave(self) -> None:
        """A connection is done; the others may be parked waiting for it."""
        self.active -= 1
        if self.parked and self.parked == self.active:
            await self._run()

    async def _run(self) -> None:
        while self.window.probe_due():
            with self.window.off_clock():
                await self.probe()
            self.window.probed()
        self.parked = 0
        release, self.release = self.release, asyncio.Event()
        release.set()
