"""Buffered semi-naive (BSN) evaluation -- Section 3.3.1 of the paper.

BSN is "the standard SN algorithm ... with the following modifications:
a node can start a local SN iteration at any time its local Bk buffers
are non-empty.  Tuples arriving over the network while an iteration is
in progress are buffered for processing in the next iteration."

The key relaxation is *scheduling freedom*: a tuple from a traditional
SN iteration may be buffered arbitrarily and handled in some future
iteration of our choice, while still producing the SN fixpoint.  We
expose that freedom through a ``scheduler`` callable that decides how
many buffered deltas each local iteration consumes; the engine *is*
PSN's chunked commit path (PSN "can allow just as much buffering as
BSN", Section 3.3.2), so correctness follows from the same argument.
Each scheduled iteration drains as chunks of up to ``batch_size``
deltas (see :mod:`repro.engine.psn`): BSN already *buffers* bursts,
weight addition nets them before processing too.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine.database import Database
from repro.engine.fixpoint import EvalResult
from repro.engine.psn import DEFAULT_MAX_STEPS, PSNEngine
from repro.errors import EvaluationError
from repro.ndlog.ast import Program

#: A scheduler maps the current buffer size to the batch to consume.
Scheduler = Callable[[int], int]


def drain_all(buffered: int) -> int:
    """The default BSN schedule: each iteration flushes the full buffer."""
    return buffered


class BSNEngine(PSNEngine):
    """PSN engine driven in buffered batches."""

    def __init__(
        self,
        program: Program,
        db: Optional[Database] = None,
        scheduler: Scheduler = drain_all,
        on_commit=None,
        batch_size: int = 1,
        provenance=None,
    ):
        super().__init__(program, db=db, on_commit=on_commit,
                         batch_size=batch_size, provenance=provenance)
        self.scheduler = scheduler
        self.iterations = 0

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Drain the buffer in scheduled batches; the ``max_steps``
        limit is exact (batches are clipped so at most ``max_steps``
        deltas are ever processed)."""
        taken = 0
        while self.queue:
            if taken >= max_steps:
                raise EvaluationError(
                    f"BSN exceeded {max_steps} steps (non-terminating "
                    f"program?)",
                    engine="bsn",
                )
            batch = self.scheduler(len(self.queue))
            if batch <= 0:
                # A scheduler may defer work, but an empty schedule with a
                # non-empty buffer would spin forever: process one tuple.
                batch = 1
            batch = min(batch, len(self.queue), max_steps - taken)
            taken += self.run_batch(batch)
            self.iterations += 1
        return taken

    def fixpoint(self, max_steps: int = DEFAULT_MAX_STEPS) -> EvalResult:
        result = super().fixpoint(max_steps=max_steps)
        result.iterations = self.iterations
        return result


def evaluate(
    program: Program,
    db: Optional[Database] = None,
    scheduler: Scheduler = drain_all,
    max_steps: int = DEFAULT_MAX_STEPS,
    batch_size: int = 1,
    provenance=None,
) -> EvalResult:
    """Run ``program`` to fixpoint with BSN and return the result."""
    return BSNEngine(program, db=db, scheduler=scheduler,
                     batch_size=batch_size,
                     provenance=provenance).fixpoint(max_steps=max_steps)
