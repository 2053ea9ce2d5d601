"""Outside-in tracing: timing wrappers the benchmark installs around the
public functions of each layer.  Nothing in ``src/`` knows about it.

A wrapper is installed on the *class*, before the deployment is built,
because join plans and transports bind methods at construction time.
Three kinds:

* ``span``  -- records a span (name, start, end, parent, rep, round);
* ``leaf``  -- calls and total time only, for functions called a
  hundred thousand times a rep (``Table.insert``): no span object, but
  the time still comes off the enclosing span's self time;
* ``count`` -- calls only (``Clock.post``).

Functions the benchmark calls itself (``parse``, ``compile``,
``deploy``) are timed at the call site with :meth:`Tracer.call`.

A layer's *self* time is the time inside its spans minus the time
inside the spans and leaves they enclose.  A layer's *inclusive* time
counts only its outermost spans (``process_chunk`` calling
``process_next`` is one visit to ``engine.psn``, not two).  Totals are
kept for the whole rep and, separately, for the timed windows the
stopwatch opens, so a workload whose set-up converges the network does
not book that work to the timed phase.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: The four running totals: seconds of self time per layer, seconds of
#: outermost-span time per layer, calls per wrapped name, seconds per
#: wrapped name.
_KINDS = ("self_s", "inclusive_s", "calls", "name_s")


class Tracer:
    """Holds the wrappers, the span stack and one rep's totals."""

    def __init__(self):
        #: (owner, attribute, original) for uninstall.
        self._patched: List[Tuple[object, str, object]] = []
        self.enabled = False
        self.rep = 0
        self.round = 0
        #: Open spans: [seconds inside children, span index].
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        #: Finished spans of the current rep: (name, layer, start, end,
        #: parent_index, rep, round).
        self.spans: List[Optional[tuple]] = []
        self.self_s: Dict[str, float] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.name_s: Dict[str, float] = {}
        #: Totals inside timed windows, and seconds of those windows
        #: covered by an outermost span.
        self.timed: Dict[str, Dict[str, float]] = {k: {} for k in _KINDS}
        self.covered_s = 0.0
        self._covered_at_open = 0.0
        self._at_open: Optional[Dict[str, Dict[str, float]]] = None
        self._running_covered = 0.0
        #: Arguments captured by wrappers that ask for it (messages).
        self.captured: List[object] = []

    # -- installing -----------------------------------------------------
    def _patch(self, owner: type, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        wrapper = make(original)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def span(self, owner: type, attr: str, layer: str,
             capture_arg: Optional[int] = None) -> None:
        """Wrap ``owner.attr`` so every call records a span in
        ``layer``.  ``capture_arg`` keeps that positional argument of
        every call on :attr:`captured`."""
        self._patch(owner, attr, lambda original: self._spanned(
            layer, f"{layer}:{attr}", original, capture_arg))

    def _spanned(self, layer: str, name: str, original: Callable,
                 capture_arg: Optional[int] = None) -> Callable:
        # Everything the hot path touches is a local of this closure.
        tracer = self
        stack = self._stack
        depth = self._depth
        calls, name_s = self.calls, self.name_s
        self_s, inclusive_s = self.self_s, self.inclusive_s
        captured = self.captured

        def traced(*args, **kwargs):
            if capture_arg is not None:
                captured.append(args[capture_arg])
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            depth[layer] = depth.get(layer, 0) + 1
            frame = [0.0, index]  # seconds inside children, span index
            stack.append(frame)
            start = _now()
            try:
                return original(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                elapsed = end - start
                calls[name] = calls.get(name, 0) + 1
                name_s[name] = name_s.get(name, 0.0) + elapsed
                self_s[layer] = self_s.get(layer, 0.0) + elapsed - frame[0]
                depth[layer] -= 1
                if not depth[layer]:  # outermost visit to this layer
                    inclusive_s[layer] = (
                        inclusive_s.get(layer, 0.0) + elapsed)
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent_index = parent[1]
                else:
                    tracer._running_covered += elapsed
                    parent_index = -1
                spans[index] = (name, layer, start, end, parent_index,
                                tracer.rep, tracer.round)

        return traced

    def leaf(self, owner: type, attr: str, layer: str) -> None:
        """Wrap ``owner.attr`` counting calls and seconds only."""
        name = f"{layer}:{attr}"
        tracer = self
        stack = self._stack
        calls = self.calls
        name_s = self.name_s
        self_s = self.self_s

        def make(original):
            def traced(*args, **kwargs):
                start = _now()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = _now() - start
                    calls[name] = calls.get(name, 0) + 1
                    name_s[name] = name_s.get(name, 0.0) + elapsed
                    self_s[layer] = self_s.get(layer, 0.0) + elapsed
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        tracer._running_covered += elapsed
            return traced

        self._patch(owner, attr, make)

    def count(self, owner: type, attr: str, layer: str) -> None:
        """Wrap ``owner.attr`` counting calls only."""
        name = f"{layer}:{attr}"
        calls = self.calls

        def make(original):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return counted

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span: the call-site form, for module
        functions the benchmark invokes itself."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._spanned(layer, f"{layer}:{name}", fn)(*args, **kwargs)

    # -- rep and window boundaries --------------------------------------
    def begin_rep(self, rep: int) -> None:
        self.rep = rep
        self.round = 0
        self.spans = []
        self.captured.clear()
        for kind in _KINDS:
            getattr(self, kind).clear()
        self.timed = {kind: {} for kind in _KINDS}
        self.covered_s = 0.0
        self._running_covered = 0.0
        self.enabled = True

    def end_rep(self) -> None:
        self.enabled = False

    def totals(self) -> Dict[str, object]:
        """A copy of this rep's totals: inside the timed windows, over
        the whole rep, and the window seconds covered by a span."""
        return {
            "timed": {k: dict(v) for k, v in self.timed.items()},
            "rep": {k: dict(getattr(self, k)) for k in _KINDS},
            "covered_s": self.covered_s,
        }

    def window_open(self) -> None:
        self._at_open = {k: dict(getattr(self, k)) for k in _KINDS}
        self._covered_at_open = self._running_covered

    def window_close(self) -> None:
        for kind in _KINDS:
            into, before = self.timed[kind], self._at_open[kind]
            for key, value in getattr(self, kind).items():
                into[key] = into.get(key, 0) + value - before.get(key, 0)
        self.covered_s += self._running_covered - self._covered_at_open
        self._at_open = None


def write_chrome_trace(path, spans: List[tuple], workload: str) -> None:
    """Write spans as Chrome trace-event JSON (one complete event per
    span; open in Perfetto or chrome://tracing)."""
    origin = min((span[2] for span in spans), default=0.0)
    events = [{
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": f"bench:{workload}"},
    }]
    for index, (name, layer, start, end, parent, rep, rnd) in enumerate(spans):
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"id": index, "parent": parent, "rep": rep,
                     "round": rnd},
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
