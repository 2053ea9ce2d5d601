"""Reading a PSN queue in tests: the one place that knows its layout.

The queue holds runs ``(pred, heads, weights, force, traces)`` behind
the front run's ``offset`` (:class:`repro.engine.psn.RunQueue`); the
tests read it as the delta rows it stands for.
"""

from typing import List, Tuple


def queued(engine) -> List[Tuple]:
    """The deltas queued at ``engine`` (a PSN engine or a node), front
    to back, as ``(pred, args, weight, force, trace)`` rows."""
    rows = []
    offset = engine.queue.offset
    for pred, heads, weights, force, traces in engine.queue.runs:
        for index in range(offset, len(heads)):
            rows.append((pred, heads[index], weights[index], force,
                         None if traces is None else traces[index]))
        offset = 0
    return rows


def flatten(runs) -> List[Tuple]:
    """Runs ``(pred, heads, weights, force, traces)`` as delta rows."""
    return [(pred, head, weights[index], force,
             None if traces is None else traces[index])
            for pred, heads, weights, force, traces in runs
            for index, head in enumerate(heads)]


def run_of(*rows) -> Tuple[List[Tuple], List[int]]:
    """A run's ``(heads, weights)`` -- what ``Table.bump_run`` reads --
    from ``args`` (weight 1) or ``(args, weight)`` entries."""
    heads, weights = [], []
    for row in rows:
        args, weight = row if isinstance(row[0], tuple) else (row, 1)
        heads.append(args)
        weights.append(weight)
    return heads, weights
