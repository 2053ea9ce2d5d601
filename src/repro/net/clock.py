"""The clock seam: one timer contract for virtual and wall-clock time.

Everything above the network substrate -- node CPU ticks, transport
flush windows, soft-state expiry sweeps, workload drivers -- schedules
work through four verbs: ``now`` / ``at`` / ``after`` / ``post``; link
heartbeats use a fifth, ``daemon``.  The :class:`Clock` base pins that
contract down so the same runtime code executes unchanged on either
implementation:

* :class:`~repro.net.sim.Simulator` -- deterministic virtual time, the
  substrate for every reproduced experiment (results are byte-identical
  run to run);
* :class:`WallClock` -- real time over the asyncio event loop it is
  bound to, the substrate for the live deployment target
  (:mod:`repro.runtime.live`).

The semantic difference callers may observe: virtual time only moves
when an event fires, so ``at(now)`` is exact; wall time moves on its
own, so a wall timer may fire a little late (the event loop's timer
resolution) and ``at`` clamps already-past times to "as soon as
possible" instead of raising.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional, Tuple

from repro.errors import NetworkError


class Clock:
    """Timer contract shared by the simulator and the wall clock.

    ``now`` is seconds on the clock's own axis (virtual seconds, or
    wall seconds since the clock was created).  ``at`` schedules at an
    absolute time on that axis and returns a cancellable handle;
    ``after`` is relative; ``post`` is fire-and-forget ``after`` (no
    handle, not cancellable).  ``daemon`` is ``after`` for background
    work: a daemon timer fires like any other, but ``pending`` -- the
    count of scheduled-but-unfired events, the quiescence test both
    execution targets share -- does not count it, so periodic
    housekeeping never holds a finished network open.
    """

    now: float

    def at(self, time: float, callback: Callable[[], None]):
        raise NotImplementedError

    def after(self, delay: float, callback: Callable[[], None]):
        raise NotImplementedError

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        raise NotImplementedError

    def daemon(self, delay: float, callback: Callable[[], None]):
        raise NotImplementedError

    @property
    def pending(self) -> int:
        raise NotImplementedError


class DaemonView(Clock):
    """``inner`` with every timer a daemon: the clock a frame that
    carries no data (a pure ack or heartbeat) travels on, so that in
    flight it holds no run open either."""

    def __init__(self, inner: Clock):
        self.inner = inner

    @property
    def now(self) -> float:
        return self.inner.now

    def at(self, time: float, callback: Callable[[], None]):
        return self.inner.daemon(max(0.0, time - self.inner.now), callback)

    def after(self, delay: float, callback: Callable[[], None]):
        return self.inner.daemon(delay, callback)

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        self.inner.daemon(delay, callback)

    def daemon(self, delay: float, callback: Callable[[], None]):
        return self.inner.daemon(delay, callback)

    @property
    def pending(self) -> int:
        return self.inner.pending


class WallTimer:
    """Cancellation handle for one :class:`WallClock` timer."""

    __slots__ = ("cancelled", "daemon", "_clock", "_handle")

    def __init__(self, clock: "WallClock", daemon: bool = False):
        self.cancelled = False
        self.daemon = daemon
        self._clock = clock
        self._handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
        if self.daemon:
            return  # never counted in pending
        clock = self._clock
        clock._pending -= 1
        if clock._pending == 0 and clock.on_drain is not None:
            clock.on_drain()


class WallClock(Clock):
    """Real time over an asyncio event loop.

    The clock runs from :meth:`bind` to :meth:`close`.  Before ``bind``
    ``now`` reads 0.0 and timers are held (``pending`` counts them);
    ``bind`` arms them on the loop and ``now`` counts from there, so
    programs written against virtual timestamps (workload bursts at
    t=2.0, refreshers every 0.5s) run unchanged in wall time.  After
    ``close`` scheduling raises :class:`NetworkError`: the loop that
    would fire the timer is gone, and a daemon timer due after it does
    not fire.  Callback exceptions are captured on
    :attr:`failures` rather than left to the loop's exception handler,
    so the live runtime can surface them at
    :meth:`~repro.runtime.live.LiveCluster.stop` time; a
    ``KeyboardInterrupt`` or ``SystemExit`` is not a callback failure
    and leaves the loop at once.  ``on_drain``, when set, is called
    each time ``pending`` falls to 0 (after the callback that fired,
    or at a cancellation): the live runtime's quiescence wait wakes on
    it.
    """

    def __init__(self):
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        #: ``(delay, timer, callback)`` scheduled before :meth:`bind`.
        self._held: List[Tuple[float, Optional[WallTimer], Callable]] = []
        self.closed = False
        self._pending = 0
        self.events_processed = 0
        #: ``(now, exception)`` pairs from callbacks that raised.
        self.failures: List[Tuple[float, Exception]] = []
        self.on_drain: Optional[Callable[[], None]] = None

    @property
    def now(self) -> float:
        loop = self._loop
        return 0.0 if loop is None else loop.time() - self._t0

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Start the clock on ``loop`` and arm the held timers."""
        self._loop = loop
        self._t0 = loop.time()
        held, self._held = self._held, []
        for delay, timer, callback in held:
            if timer is None:
                loop.call_later(delay, self._fire, None, callback)
            elif not timer.cancelled:
                timer._handle = loop.call_later(
                    delay, self._fire, timer, callback)

    def close(self) -> None:
        """Stop the clock: nothing may be scheduled on it any more."""
        self.closed = True

    def _schedule(self, delay: float, timer: Optional[WallTimer],
                  callback: Callable[[], None]):
        if delay < 0:
            raise NetworkError(f"negative delay {delay}")
        if self.closed:
            raise NetworkError(
                "wall clock already stopped: its event loop is gone, so "
                "nothing more can be scheduled on it"
            )
        if timer is None or not timer.daemon:
            self._pending += 1
        if self._loop is None:
            self._held.append((delay, timer, callback))
            return None
        return self._loop.call_later(delay, self._fire, timer, callback)

    def _fire(self, timer: Optional[WallTimer],
              callback: Callable[[], None]) -> None:
        daemon = False
        if timer is not None:
            if timer.cancelled:
                return
            timer.cancelled = True  # fired; cancel() must not double-count
            daemon = timer.daemon
            if daemon and self.closed:
                return
        if not daemon:
            self._pending -= 1
        self.events_processed += 1
        try:
            callback()
        except Exception as exc:  # noqa: BLE001 -- surfaced at stop()
            self.failures.append((self.now, exc))
        if not daemon and self._pending == 0 and self.on_drain is not None:
            self.on_drain()

    def at(self, time: float, callback: Callable[[], None]) -> WallTimer:
        """Schedule at absolute clock time ``time``; times already past
        fire as soon as possible (wall time cannot be rewound, so the
        simulator's in-the-past error has no useful analogue)."""
        return self.after(max(0.0, time - self.now), callback)

    def after(self, delay: float, callback: Callable[[], None]) -> WallTimer:
        timer = WallTimer(self)
        timer._handle = self._schedule(delay, timer, callback)
        return timer

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        self._schedule(delay, None, callback)

    def daemon(self, delay: float, callback: Callable[[], None]) -> WallTimer:
        timer = WallTimer(self, daemon=True)
        timer._handle = self._schedule(delay, timer, callback)
        return timer

    @property
    def pending(self) -> int:
        return self._pending
