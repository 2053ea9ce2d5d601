"""Profiling hooks: per-rule / per-strand CPU time, and the engine's
phases.

A :class:`Profiler` accumulates wall-clock seconds spent inside each
rule strand's firing loop (join probing, head instantiation, emission)
keyed by ``(rule label, driving predicate)`` -- the strand identity of
Figure 3.  The engine clocks a firing only when a profiler subscribed
(its observer is ``timed``, :mod:`repro.obs.observer`).

Under the same profiler a PSN engine clocks each chunk it processes
(:meth:`~repro.engine.psn.PSNEngine.process_chunk`) phase by phase --
:data:`PHASES` -- and books the totals in :attr:`Profiler.phases`; they
add up to :attr:`Profiler.chunk_seconds`, the chunks' own time.

Compile-time companion: every optimizer pass records its elapsed time
on its :class:`~repro.api.PassSnapshot`, surfaced by
``CompiledProgram.explain(timings=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: A chunk's phases, in the order it runs them: ``take`` its runs off
#: the queue (and test their signs), ``net`` them, ``commit`` them to
#: the tables (less the strand firings they trigger), ``fire`` those
#: strands (kernels, view contributions, emission), and let the
#: ``views`` answer.
PHASES = ("take", "net", "commit", "fire", "views")


class Profiler:
    """Accumulated strand and phase timings; ``add`` is the engine's hot
    call."""

    __slots__ = ("strands", "fired", "phases", "chunks")

    def __init__(self):
        #: (rule label, driver pred) -> [seconds, invocations].
        self.strands: Dict[Tuple[str, str], List] = {}
        #: Seconds of every strand firing so far (what ``strands`` sums).
        self.fired = 0.0
        #: Phase name (:data:`PHASES`) -> seconds over the clocked chunks.
        self.phases: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        #: Chunks clocked.
        self.chunks = 0

    def add(self, rule: str, driver: str, seconds: float) -> None:
        self.fired += seconds
        slot = self.strands.get((rule, driver))
        if slot is None:
            self.strands[(rule, driver)] = [seconds, 1]
        else:
            slot[0] += seconds
            slot[1] += 1

    def book_chunk(self, take: float, net: float, commit: float,
                   views: float) -> None:
        """One clocked chunk's phases, in seconds.  ``commit`` includes
        the strand firings the commits triggered -- every firing since
        the last chunk (an engine fires only inside a chunk) -- which
        are booked as ``fire``."""
        phases = self.phases
        fire = self.fired - phases["fire"]
        phases["take"] += take
        phases["net"] += net
        phases["commit"] += commit - fire
        phases["fire"] += fire
        phases["views"] += views
        self.chunks += 1

    @property
    def chunk_seconds(self) -> float:
        """Seconds spent in the clocked chunks (their phases' sum: the
        phases are clocked back to back)."""
        return sum(self.phases.values())

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's strand and phase totals into this one
        (used to aggregate per-node profilers into a deployment
        report)."""
        for key, (seconds, calls) in other.strands.items():
            slot = self.strands.get(key)
            if slot is None:
                self.strands[key] = [seconds, calls]
            else:
                slot[0] += seconds
                slot[1] += calls
        self.fired += other.fired
        for phase, seconds in other.phases.items():
            self.phases[phase] += seconds
        self.chunks += other.chunks

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
        """A text table of strand timings, then the chunk phases (when
        any chunk was clocked)."""
        rows = self.rows()
        if not rows:
            lines = ["no strand timings recorded"]
        else:
            lines = [f"{'rule':<12} {'driver':<16} {'calls':>8} "
                     f"{'total ms':>10} {'us/call':>9}"]
            for rule, driver, seconds, calls in rows:
                per_call = (seconds / calls * 1e6) if calls else 0.0
                lines.append(
                    f"{rule:<12} {driver:<16} {calls:>8} "
                    f"{seconds * 1e3:>10.3f} {per_call:>9.2f}"
                )
            lines.append(f"total: {self.total_seconds() * 1e3:.3f} ms")
        if self.chunks:
            total = self.chunk_seconds
            lines.append(f"{'phase':<12} {'total ms':>10} {'share':>7}")
            for phase, seconds in self.phases.items():
                share = seconds / total if total else 0.0
                lines.append(f"{phase:<12} {seconds * 1e3:>10.3f} "
                             f"{share:>7.1%}")
            lines.append(f"{self.chunks} chunks: {total * 1e3:.3f} ms")
        return "\n".join(lines) + "\n"
