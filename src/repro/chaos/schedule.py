"""The fault-schedule DSL: a serializable list of timed faults.

A :class:`ChaosSchedule` is plain data -- a seed plus a tuple of
:class:`Fault` records -- so the exact scenario that broke a run can be
written to JSON, attached to a bug report, and replayed bit-for-bit
(identical seeds replay identical fault traces on the simulator).

Fault kinds and their windows:

``drop`` / ``duplicate`` / ``reorder`` / ``corrupt``
    Per-message Bernoulli faults with probability ``rate``, applied to
    every message entering a matching link while ``start <= now < end``.
    ``reorder`` holds the message back an extra ``uniform(min_delay,
    max_delay)`` so later traffic on the link overtakes it; ``corrupt``
    garbles the encoded datagram (real bytes on the UDP backend, a
    detected-and-discarded frame elsewhere).
``partition``
    A clean cut: messages between ``nodes`` and the rest of the network
    black-hole during the window, then the cut heals.
``crash``
    Fail-pause at ``start``: the node stops processing and all its
    traffic black-holes; with ``restart`` set it resumes with state
    intact (a process pause/VM migration), without it the node is dead
    for good and only its neighbours' link expiry routes around it.
``skew``
    The node's clock runs ``drift`` times slow (>1) or fast (<1) for
    the whole run: CPU ticks, flush windows, retransmit timers and
    heartbeats all stretch by the factor.  Windowless -- skew is a
    property of the node, not an event.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Tuple

from repro.errors import NetworkError

#: Fault kinds applied per message on a channel.
MESSAGE_KINDS = ("drop", "duplicate", "reorder", "corrupt")
#: All legal fault kinds.
KINDS = MESSAGE_KINDS + ("partition", "crash", "skew")


@dataclass(frozen=True)
class Fault:
    """One timed fault.  Which optional fields apply depends on
    ``kind`` (see the module docstring); :meth:`check` enforces it."""

    kind: str
    start: float = 0.0
    end: Optional[float] = None            # None = until the run ends
    rate: float = 1.0                      # message kinds: Bernoulli p
    link: Optional[Tuple[str, str]] = None  # message kinds: only this link
    node: Optional[str] = None             # crash / skew
    nodes: Tuple[str, ...] = ()            # partition group
    restart: Optional[float] = None        # crash: resume time
    drift: float = 1.0                     # skew: clock rate multiplier
    min_delay: float = 0.0                 # reorder: extra hold, lower
    max_delay: float = 0.05                # reorder: extra hold, upper

    def check(self) -> None:
        if self.kind not in KINDS:
            raise NetworkError(
                f"unknown fault kind {self.kind!r}; pick from {KINDS}"
            )
        if self.end is not None and self.end < self.start:
            raise NetworkError(
                f"{self.kind} fault window ends before it starts "
                f"({self.start} .. {self.end})"
            )
        if self.kind in MESSAGE_KINDS and not 0.0 <= self.rate <= 1.0:
            raise NetworkError(f"fault rate {self.rate} outside [0, 1]")
        if self.kind == "partition" and not self.nodes:
            raise NetworkError("partition fault needs a non-empty group")
        if self.kind == "crash" and self.node is None:
            raise NetworkError("crash fault needs a node")
        if self.kind == "crash" and self.restart is not None \
                and self.restart < self.start:
            raise NetworkError("crash restart precedes the crash")
        if self.kind == "skew" and (self.node is None or self.drift <= 0):
            raise NetworkError("skew fault needs a node and a drift > 0")
        if self.kind == "reorder" and self.max_delay < self.min_delay:
            raise NetworkError("reorder max_delay < min_delay")

    # -- window / scope tests (used per message by the injector) -------
    def active(self, now: float) -> bool:
        end = math.inf if self.end is None else self.end
        return self.start <= now < end

    def on_link(self, src: str, dst: str) -> bool:
        if self.link is None:
            return True
        a, b = self.link
        return (src, dst) in ((a, b), (b, a))


@dataclass
class ChaosSchedule:
    """A seeded, serializable fault plan.

    Builder style -- each method appends a fault and returns ``self``::

        schedule = (ChaosSchedule(seed=7)
                    .drop(rate=0.2, start=0.0, end=2.0)
                    .partition(["n0", "n1"], start=1.0, end=1.5)
                    .crash("n4", at=0.5, restart=1.2))
    """

    seed: int = 0
    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    def _add(self, fault: Fault) -> "ChaosSchedule":
        fault.check()
        self.faults = self.faults + (fault,)
        return self

    def drop(self, rate: float, start: float = 0.0,
             end: Optional[float] = None,
             link: Optional[Tuple[str, str]] = None) -> "ChaosSchedule":
        return self._add(Fault("drop", start, end, rate, link))

    def duplicate(self, rate: float, start: float = 0.0,
                  end: Optional[float] = None,
                  link: Optional[Tuple[str, str]] = None) -> "ChaosSchedule":
        return self._add(Fault("duplicate", start, end, rate, link))

    def reorder(self, rate: float, start: float = 0.0,
                end: Optional[float] = None,
                link: Optional[Tuple[str, str]] = None,
                min_delay: float = 0.0,
                max_delay: float = 0.05) -> "ChaosSchedule":
        return self._add(Fault("reorder", start, end, rate, link,
                               min_delay=min_delay, max_delay=max_delay))

    def corrupt(self, rate: float, start: float = 0.0,
                end: Optional[float] = None,
                link: Optional[Tuple[str, str]] = None) -> "ChaosSchedule":
        return self._add(Fault("corrupt", start, end, rate, link))

    def partition(self, nodes: Iterable[str], start: float,
                  end: Optional[float] = None) -> "ChaosSchedule":
        return self._add(Fault("partition", start, end,
                               nodes=tuple(nodes)))

    def crash(self, node: str, at: float,
              restart: Optional[float] = None) -> "ChaosSchedule":
        return self._add(Fault("crash", at, None, node=node,
                               restart=restart))

    def clock_skew(self, node: str, drift: float) -> "ChaosSchedule":
        return self._add(Fault("skew", node=node, drift=drift))

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [
                {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in asdict(fault).items()}
                for fault in self.faults
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSchedule":
        schedule = cls(seed=int(data.get("seed", 0)))
        for raw in data.get("faults", ()):
            raw = dict(raw)
            if raw.get("link") is not None:
                raw["link"] = tuple(raw["link"])
            raw["nodes"] = tuple(raw.get("nodes") or ())
            try:
                fault = Fault(**raw)
            except TypeError as exc:
                raise NetworkError(f"bad fault record {raw!r}: {exc}") \
                    from exc
            schedule._add(fault)
        return schedule

    @classmethod
    def from_json(cls, text: str) -> "ChaosSchedule":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NetworkError(f"malformed chaos schedule JSON: {exc}") \
                from exc
        return cls.from_dict(data)
