"""Simulated network links: FIFO, store-and-forward.

The timing model lives on the shared
:class:`~repro.net.channel.Channel` base (the live channel backends use
the same emulation); this subclass is the clock-timer delivery backend:
an arrival is a scheduled callback straight into the cluster.  On the
virtual :class:`~repro.net.sim.Simulator` that reproduces the paper's
Emulab substrate; the same class runs unmodified on a
:class:`~repro.net.clock.WallClock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.channel import DEFAULT_BANDWIDTH_BPS, Channel
from repro.net.clock import Clock
from repro.net.message import Message

__all__ = ["DEFAULT_BANDWIDTH_BPS", "LinkChannel"]


@dataclass
class LinkChannel(Channel):
    """One overlay link delivering via clock timers."""

    def transmit(
        self,
        clock: Clock,
        message: Message,
        deliver: Callable[[Message], None],
    ) -> float:
        """Queue ``message`` for transmission; returns the arrival
        time."""
        arrive = self.plan(clock, message)
        clock.at(arrive, lambda: deliver(message))
        return arrive
