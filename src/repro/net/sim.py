"""Deterministic discrete-event simulator.

Replaces the Emulab testbed as the substrate for the paper's experiments
(see the substitution table in DESIGN.md).  All experiment metrics --
convergence seconds, kBps over time -- are measured in *virtual* time, so
results are reproducible and independent of host speed.

The simulator is the virtual-time implementation of the
:class:`~repro.net.clock.Clock` contract; the live deployment target
runs the same node runtimes on :class:`~repro.net.clock.WallClock`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.clock import Clock


class EventHandle:
    """Returned by :meth:`Simulator.at` and :meth:`Simulator.daemon`;
    allows cancellation.  A fired event reads as cancelled, so a late
    ``cancel()`` is a no-op; cancelling a pending event tells ``_sim``
    that one fewer event holds the run open (a daemon's handle has no
    ``_sim``: it never held the run open)."""

    __slots__ = ("cancelled", "_sim")

    def __init__(self, sim: Optional["Simulator"]):
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._idle += 1


class Simulator(Clock):
    """A minimal event loop: schedule callbacks at virtual times.

    Ties are broken by scheduling order, so runs are fully deterministic.
    A *daemon* event (:meth:`daemon`) fires like any other but does not
    hold the run open: :meth:`run` without ``until`` returns once only
    daemons are pending, and :attr:`pending` does not count them.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, EventHandle, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.events_processed = 0
        # Installed by run(); step() honours it too, so mixed
        # step()/run() use cannot overshoot the cap.
        self._event_limit: Optional[int] = None
        self._event_budget = 0
        #: Heap entries that hold no run open: pending daemons and
        #: cancelled events not yet popped.
        self._idle = 0

    def at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time < self.now:
            raise NetworkError(
                f"cannot schedule at {time} (now is {self.now})"
            )
        handle = EventHandle(self)
        heapq.heappush(self._heap, (time, next(self._sequence), handle, callback))
        return handle

    def after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise NetworkError(f"negative delay {delay}")
        return self.at(self.now + delay, callback)

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`after`: no :class:`EventHandle` is
        allocated, so the event cannot be cancelled.  The cheap path for
        high-frequency schedulers (node CPU ticks post one event per
        processed batch)."""
        if delay < 0:
            raise NetworkError(f"negative delay {delay}")
        heapq.heappush(
            self._heap, (self.now + delay, next(self._sequence), None, callback)
        )

    def daemon(self, delay: float,
               callback: Callable[[], None]) -> EventHandle:
        """Schedule a daemon event ``delay`` seconds from now: periodic
        background work (link heartbeats) that must not keep a
        finished network running."""
        if delay < 0:
            raise NetworkError(f"negative delay {delay}")

        def fire() -> None:
            self._idle -= 1
            callback()

        handle = EventHandle(None)
        self._idle += 1
        heapq.heappush(
            self._heap, (self.now + delay, next(self._sequence), handle,
                         fire))
        return handle

    @property
    def pending(self) -> int:
        """Events that hold a run open: neither daemons nor cancelled."""
        return len(self._heap) - self._idle

    def _check_budget(self, item) -> None:
        """Raise the livelock error *before* consuming ``item``: the
        fatal event goes back on the heap and is not counted into
        ``events_processed`` (it never ran)."""
        if (
            self._event_limit is not None
            and self.events_processed >= self._event_limit
        ):
            heapq.heappush(self._heap, item)
            raise NetworkError(
                f"simulation exceeded {self._event_budget} events (livelock?)"
            )

    def step(self) -> bool:
        """Run the next event; returns False when the heap is empty.

        Shares :meth:`run`'s ``max_events`` accounting: once a run has
        installed a budget, stepping past it raises the same livelock
        error instead of silently overshooting the cap.
        """
        while self._heap:
            item = heapq.heappop(self._heap)
            handle = item[2]
            if handle is not None and handle.cancelled:
                self._idle -= 1
                continue
            self._check_budget(item)
            if handle is not None:
                handle.cancelled = True  # fired
            time, _seq, _handle, callback = item
            self.now = time
            self.events_processed += 1
            callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> float:
        """Run until quiescence (or virtual time ``until``); returns the
        final virtual time.  Quiescence means no event but daemons is
        pending; with ``until`` daemons keep firing up to that time.

        ``until`` is an *observation* time, not just a stop condition:
        the clock always advances to ``until`` even when the event heap
        drains earlier, so a quiescent network's ``now`` does not stick
        at the last event time (later ``after()`` calls and soft-state
        expiry sweeps compute against the observed time).

        The loop is inlined rather than delegating to :meth:`step`: the
        batched node runtimes make the event schedule burstier (fewer,
        heavier events), but a large network still pushes millions of
        events through here, so the per-event constant -- one heap pop,
        one daemon-count and one cancellation test, one call -- is kept
        minimal.
        """
        heap = self._heap
        pop = heapq.heappop
        limit = self.events_processed + max_events
        self._event_limit = limit
        self._event_budget = max_events
        while heap:
            if until is None:
                if len(heap) == self._idle:
                    break  # only daemons (and cancelled events) left
            elif heap[0][0] > until:
                if until > self.now:
                    self.now = until
                return self.now
            item = pop(heap)
            handle = item[2]
            if handle is not None and handle.cancelled:
                self._idle -= 1
                continue
            if self.events_processed >= limit:
                self._check_budget(item)
            if handle is not None:
                handle.cancelled = True  # fired
            time, _seq, _handle, callback = item
            self.now = time
            self.events_processed += 1
            callback()
        if until is not None and until > self.now:
            self.now = until
        return self.now
