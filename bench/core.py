"""The one timing core every workload is measured with.

Three pieces, and no workload keeps a stopwatch of its own:

* :func:`kernel` -- a fixed pure-Python reference loop.  This host's
  speed drifts by +-25% for seconds at a time (see README, "Spread"),
  so every timed phase is bracketed by the kernel and reported in
  *reference seconds*: raw CPU seconds scaled to the speed at which the
  kernel takes :data:`KERNEL_REF_S`.  Raw seconds are kept beside them.
* :class:`Stopwatch` -- one rep's clocks.  A workload wraps its set-up
  in ``with sw.setup():`` and its timed phase in ``with sw.timed():``
  (closed-loop rounds inside it in ``with sw.round():``); the same
  object works inside a coroutine, which is how the live workload uses
  it.
* :func:`measure` -- runs the variants of a workload (plain, traced,
  observability on, ...) round-robin, so drift lands on all of them
  alike, until the time budget or the rep count is spent.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: The kernel's CPU time on the reference host, seconds.  Scaling by
#: ``KERNEL_REF_S / measured`` turns raw seconds into reference seconds;
#: on a host at reference speed the factor is 1.
KERNEL_REF_S = 0.005
KERNEL_LOOPS = 20000

#: Fewest reps per variant that a set may end with.
MIN_REPS = 3


def kernel() -> int:
    """Dict, tuple and call work in the proportions the engines do it;
    about 5 ms here."""
    table: Dict[int, tuple] = {}
    total = 0
    for i in range(KERNEL_LOOPS):
        key = i & 511
        row = (key, i, total & 255)
        table[key] = row
        other = table.get((i * 7) & 511)
        if other is not None:
            total += other[1] % 5
        total += len(row)
    return total


def _time_kernel() -> float:
    start = time.process_time()
    kernel()
    return time.process_time() - start


class Phase:
    """Raw and reference CPU seconds of one set-up or timed phase."""

    __slots__ = ("cpu", "wall", "factor")

    def __init__(self, cpu: float, wall: float, factor: float):
        self.cpu = cpu
        self.wall = wall
        #: reference seconds per raw CPU second while this phase ran.
        self.factor = factor

    @property
    def cpu_ref(self) -> float:
        return self.cpu * self.factor

    @property
    def wall_ref(self) -> float:
        # Only the busy share of wall time scales with host speed:
        # timers and sleeps take as long on a fast host as a slow one.
        return max(0.0, self.wall - self.cpu) + self.cpu_ref


class Stopwatch:
    """Clocks for one rep.  A rep may run several cases (one per
    overlay of the workload's input set); phases accumulate."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.setups: List[Phase] = []
        self.timeds: List[Phase] = []
        self.rounds: List[Phase] = []
        self.kernels: List[float] = []
        self._last_kernel = 0.0
        self._round_marks: List[tuple] = []

    # -- phases ---------------------------------------------------------
    def _kernel(self) -> float:
        seconds = _time_kernel()
        self.kernels.append(seconds)
        return seconds

    @contextmanager
    def setup(self):
        """Set-up phase: collector off (one collection first, so a
        rep does not pay for its predecessor's garbage), kernel before
        and after."""
        gc.collect()
        gc.disable()
        before = self._kernel()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            yield self
        finally:
            cpu1, wall1 = time.process_time(), time.perf_counter()
            after = self._kernel()
            self._last_kernel = after
            self.setups.append(Phase(
                cpu1 - cpu0, wall1 - wall0,
                KERNEL_REF_S / ((before + after) / 2.0),
            ))

    @contextmanager
    def timed(self):
        """Timed phase.  Must follow :meth:`setup`, whose closing kernel
        doubles as this phase's opening one; the collector stays off
        until the phase ends."""
        before = self._last_kernel
        self._round_marks = []
        tracer = self.tracer
        if tracer is not None:
            tracer.window_open()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            yield self
        finally:
            cpu1, wall1 = time.process_time(), time.perf_counter()
            if tracer is not None:
                tracer.window_close()
            after = self._kernel()
            gc.enable()
            factor = KERNEL_REF_S / ((before + after) / 2.0)
            phase = Phase(cpu1 - cpu0, wall1 - wall0, factor)
            self.timeds.append(phase)
            if self._round_marks:
                self.rounds.extend(
                    Phase(cpu, wall, factor)
                    for cpu, wall in self._round_marks
                )
            else:
                self.rounds.append(phase)

    @contextmanager
    def round(self):
        """One closed-loop round inside the timed phase (a burst and
        the re-convergence it causes).  A timed phase without rounds
        counts as one round."""
        tracer = self.tracer
        if tracer is not None:
            tracer.round += 1
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            yield self
        finally:
            self._round_marks.append(
                (time.process_time() - cpu0, time.perf_counter() - wall0)
            )

    # -- per-rep totals -------------------------------------------------
    def sample(self) -> Dict[str, object]:
        """This rep's clock readings (sums over its cases)."""
        timed_cpu = sum(p.cpu for p in self.timeds)
        timed_wall = sum(p.wall for p in self.timeds)
        return {
            "setup_s": sum(p.cpu_ref for p in self.setups),
            "converge_cpu_s": sum(p.cpu_ref for p in self.timeds),
            "converge_cpu_raw_s": timed_cpu,
            "round_wall_s": [p.wall_ref for p in self.rounds],
            "idle_frac": (
                max(0.0, 1.0 - timed_cpu / timed_wall) if timed_wall else 0.0
            ),
            # reference seconds per raw second over the timed phases,
            # for scaling span times recorded in this rep
            "factor": (
                sum(p.cpu_ref for p in self.timeds) / timed_cpu
                if timed_cpu else 1.0
            ),
            "kernel_ms": statistics.median(self.kernels) * 1e3,
        }


def measure(
    variants: Dict[str, Callable[[int], Dict[str, object]]],
    seconds: float,
    reps: Optional[int] = None,
) -> Dict[str, List[Dict[str, object]]]:
    """Run the variants round-robin -- one rep of each per cycle --
    until ``reps`` cycles are done, or, without ``reps``, until
    ``seconds`` have passed and every variant has :data:`MIN_REPS`.
    Each variant is called with the cycle number and returns its
    sample, or ``None`` to sit a cycle out."""
    samples: Dict[str, List[Dict[str, object]]] = {
        name: [] for name in variants
    }
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        if reps is not None:
            if cycle >= reps:
                break
        elif cycle >= MIN_REPS and time.perf_counter() >= deadline:
            break
        for name, run in variants.items():
            sample = run(cycle)
            if sample is not None:
                samples[name].append(sample)
        cycle += 1
    return samples


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and n.  With the 7-30 samples a set holds no
    percentile above the upper quartile has ten samples beyond it, so
    none is printed."""
    ordered = sorted(values)
    if len(ordered) < 2:
        only = ordered[0] if ordered else 0.0
        return {"median": only, "q1": only, "q3": only, "n": len(ordered)}
    q1, median, q3 = statistics.quantiles(ordered, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(ordered)}
