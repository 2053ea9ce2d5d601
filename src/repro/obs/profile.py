"""Profiling hooks: per-rule / per-strand CPU time.

A :class:`Profiler` accumulates wall-clock seconds spent inside each
rule strand's firing loop (join probing, head instantiation, emission)
keyed by ``(rule label, driving predicate)`` -- the strand identity of
Figure 3.  The engine clocks a firing only when a profiler subscribed
(its observer is ``timed``, :mod:`repro.obs.observer`).

Compile-time companion: every optimizer pass records its elapsed time
on its :class:`~repro.api.PassSnapshot`, surfaced by
``CompiledProgram.explain(timings=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Profiler:
    """Accumulated strand timings; ``add`` is the engine's hot call."""

    __slots__ = ("strands",)

    def __init__(self):
        #: (rule label, driver pred) -> [seconds, invocations].
        self.strands: Dict[Tuple[str, str], List] = {}

    def add(self, rule: str, driver: str, seconds: float) -> None:
        slot = self.strands.get((rule, driver))
        if slot is None:
            self.strands[(rule, driver)] = [seconds, 1]
        else:
            slot[0] += seconds
            slot[1] += 1

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's strand totals into this one (used to
        aggregate per-node profilers into a deployment report)."""
        for key, (seconds, calls) in other.strands.items():
            slot = self.strands.get(key)
            if slot is None:
                self.strands[key] = [seconds, calls]
            else:
                slot[0] += seconds
                slot[1] += calls

    def rows(self) -> List[Tuple[str, str, float, int]]:
        """``(rule, driver, seconds, invocations)`` rows, most
        expensive strand first."""
        return sorted(
            ((rule, driver, seconds, calls)
             for (rule, driver), (seconds, calls) in self.strands.items()),
            key=lambda row: -row[2],
        )

    def rule_totals(self) -> Dict[str, float]:
        """Rule label -> total seconds across its strands."""
        totals: Dict[str, float] = {}
        for (rule, _driver), (seconds, _calls) in self.strands.items():
            totals[rule] = totals.get(rule, 0.0) + seconds
        return totals

    def total_seconds(self) -> float:
        return sum(seconds for seconds, _ in self.strands.values())

    def report(self) -> str:
        """A text table of strand timings."""
        rows = self.rows()
        if not rows:
            return "no strand timings recorded\n"
        lines = [f"{'rule':<12} {'driver':<16} {'calls':>8} "
                 f"{'total ms':>10} {'us/call':>9}"]
        for rule, driver, seconds, calls in rows:
            per_call = (seconds / calls * 1e6) if calls else 0.0
            lines.append(
                f"{rule:<12} {driver:<16} {calls:>8} "
                f"{seconds * 1e3:>10.3f} {per_call:>9.2f}"
            )
        lines.append(f"total: {self.total_seconds() * 1e3:.3f} ms")
        return "\n".join(lines) + "\n"
