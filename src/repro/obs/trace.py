"""Delta-propagation tracing: causally-linked spans across the network.

A *trace id* is minted when a base fact is injected into an engine and
rides along every queued delta derived from it -- through rule firings
(``derive``), Z-set annihilation (``net``), the wire (``ship`` /
``receive``, piggybacked on :class:`~repro.net.message.NetDelta` next
to ``prov``), and table visibility transitions (``commit``).  The
result answers "where did this delta's latency go?" across a rule
firing, a wire hop and a remote commit -- on the simulator (virtual
timestamps) and on live inproc/UDP targets (wall timestamps) alike.

The spans are written by the observer seam
(:mod:`repro.obs.observer`), whose handles append to one shared
:class:`Tracer`'s log; an engine built without tracing carries
``None`` as every row's trace id and records nothing.

Export is Chrome trace-event JSON (``chrome://tracing`` /
https://ui.perfetto.dev): one process per node, one instant event per
span, and flow arrows linking each ``ship`` to its ``receive``.
``python -m repro.obs trace.json`` summarizes a saved file.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class TraceEvent(NamedTuple):
    """One span: a moment in a delta's life, stamped with the deployment
    clock (virtual seconds on the simulator, wall seconds live)."""

    ts: float
    trace: Optional[int]        # None for fault events outside any flow
    kind: str                   # inject|derive|net|renew|ship|receive|commit|...
    node: Optional[str]
    pred: Optional[str]
    args: Optional[Tuple]
    weight: Optional[int]
    src: Optional[str]
    dst: Optional[str]


class NodeTracer:
    """One node's name on the shared :class:`Tracer`: what an engine is
    handed as ``tracer=``.  :mod:`repro.obs.observer` unpacks it and
    appends spans to the shared log directly; :meth:`mint` is the
    single-row form of its ``inject`` event."""

    __slots__ = ("tracer", "node")

    def __init__(self, tracer: "Tracer", node: Optional[str]):
        self.tracer = tracer
        self.node = node

    def mint(self, fact, weight: int) -> int:
        """Mint a fresh trace id for a base-fact injection and record
        the root ``inject`` span."""
        tracer = self.tracer
        (trace,) = tracer.mint_run(1)
        tracer.events.append(TraceEvent(
            tracer.now(), trace, "inject", self.node,
            fact.pred, fact.args, weight, None, None,
        ))
        return trace


class Tracer:
    """The shared, deployment-wide event log.

    ``now`` is the deployment clock (``cluster.clock.now``), so sim
    traces carry virtual time and live traces wall time; the exported
    span *graph* is identical either way (see :meth:`span_graph`).
    """

    __slots__ = ("now", "events", "_next")

    def __init__(self, now: Callable[[], float]):
        self.now = now
        self.events: List[TraceEvent] = []
        self._next = 0

    def mint_run(self, count: int) -> range:
        """``count`` fresh consecutive trace ids."""
        first = self._next + 1
        self._next += count
        return range(first, first + count)

    def recorder(self, node: Optional[str] = None) -> NodeTracer:
        """A per-node handle stamping events with ``node``."""
        return NodeTracer(self, node)

    # -- analysis ------------------------------------------------------
    def span_graph(self) -> Dict[int, Tuple]:
        """trace id -> the causal span set with timestamps stripped.

        Each span is ``(kind, node, pred, args, weight, src, dst)``;
        the per-trace collection is sorted canonically, so two runs of
        the same program + workload on different targets (sim, inproc,
        UDP) produce *equal* graphs even though their clocks and
        interleavings differ."""
        graph: Dict[int, List[Tuple]] = {}
        for ev in self.events:
            if ev.trace is None:
                continue
            graph.setdefault(ev.trace, []).append(
                (ev.kind, ev.node, ev.pred, ev.args, ev.weight,
                 ev.src, ev.dst)
            )
        return {trace: tuple(sorted(spans, key=repr))
                for trace, spans in graph.items()}

    def trace_of(self, pred: str, args: Tuple) -> Optional[int]:
        """The trace id minted for the injection of ``pred(args)``."""
        args = tuple(args)
        for ev in self.events:
            if ev.kind == "inject" and ev.pred == pred and ev.args == args:
                return ev.trace
        return None

    # -- export --------------------------------------------------------
    def to_chrome(self) -> Dict:
        """Render as Chrome trace-event JSON (the ``traceEvents`` array
        format).  Nodes become processes, trace ids become threads, and
        every ship/receive pair is linked with a flow arrow."""
        events: List[Dict] = []
        pids: Dict[str, int] = {}

        def pid_of(node: Optional[str]) -> int:
            name = node if node is not None else "<cluster>"
            pid = pids.get(name)
            if pid is None:
                pid = pids[name] = len(pids) + 1
                events.append({
                    "ph": "M", "name": "process_name", "pid": pid,
                    "tid": 0, "args": {"name": name},
                })
            return pid

        flow_next = 0
        # (trace, pred, args, dst) -> pending flow ids, FIFO.
        flows: Dict[Tuple, List[int]] = {}
        for ev in self.events:
            pid = pid_of(ev.node)
            ts = round(ev.ts * 1e6, 3)
            entry = {
                "name": f"{ev.kind} {ev.pred}" if ev.pred else ev.kind,
                "cat": ev.kind, "ph": "i", "s": "t",
                "ts": ts, "pid": pid, "tid": ev.trace or 0,
                "args": {
                    "trace": ev.trace, "kind": ev.kind, "node": ev.node,
                    "pred": ev.pred,
                    "fact": list(ev.args) if ev.args else None,
                    "weight": ev.weight, "src": ev.src, "dst": ev.dst,
                },
            }
            events.append(entry)
            if ev.trace is None:
                continue
            if ev.kind == "ship":
                flow_next += 1
                flows.setdefault(
                    (ev.trace, ev.pred, ev.args, ev.dst), []
                ).append(flow_next)
                events.append({
                    "name": "delta", "cat": "flow", "ph": "s",
                    "id": flow_next, "ts": ts, "pid": pid,
                    "tid": ev.trace,
                })
            elif ev.kind == "receive":
                pending = flows.get((ev.trace, ev.pred, ev.args, ev.node))
                if pending:
                    events.append({
                        "name": "delta", "cat": "flow", "ph": "f",
                        "bp": "e", "id": pending.pop(0), "ts": ts,
                        "pid": pid, "tid": ev.trace,
                    })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save(self, path: str) -> str:
        """Write the Chrome trace-event JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle)
        return path


def load_trace(path: str) -> Dict:
    """Load a saved Chrome trace-event JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def summarize_trace(trace: Dict) -> str:
    """A text summary of a loaded Chrome trace: event totals, time
    span, per-kind and per-node counts, busiest trace ids."""
    events = trace.get("traceEvents", [])
    spans = [ev for ev in events if ev.get("ph") == "i"]
    names = {
        ev["pid"]: ev["args"]["name"]
        for ev in events
        if ev.get("ph") == "M" and ev.get("name") == "process_name"
    }
    lines = [f"events: {len(spans)}"]
    if spans:
        first = min(ev["ts"] for ev in spans)
        last = max(ev["ts"] for ev in spans)
        lines.append(f"span: {(last - first) / 1e3:.3f} ms")
    by_kind: Dict[str, int] = {}
    by_node: Dict[str, int] = {}
    by_trace: Dict[int, int] = {}
    for ev in spans:
        by_kind[ev.get("cat", "?")] = by_kind.get(ev.get("cat", "?"), 0) + 1
        node = names.get(ev.get("pid"), str(ev.get("pid")))
        by_node[node] = by_node.get(node, 0) + 1
        trace_id = ev.get("tid", 0)
        if trace_id:
            by_trace[trace_id] = by_trace.get(trace_id, 0) + 1
    lines.append("-- spans by kind --")
    for kind, count in sorted(by_kind.items()):
        lines.append(f"  {kind}: {count}")
    lines.append("-- spans by node --")
    for node, count in sorted(by_node.items()):
        lines.append(f"  {node}: {count}")
    if by_trace:
        lines.append("-- busiest traces --")
        busiest = sorted(by_trace.items(), key=lambda kv: (-kv[1], kv[0]))
        for trace_id, count in busiest[:10]:
            lines.append(f"  trace {trace_id}: {count} spans")
    return "\n".join(lines)


def render_trace(trace: Dict, trace_id: int) -> str:
    """An ordered textual timeline of one trace id's spans."""
    events = trace.get("traceEvents", [])
    names = {
        ev["pid"]: ev["args"]["name"]
        for ev in events
        if ev.get("ph") == "M" and ev.get("name") == "process_name"
    }
    spans = sorted(
        (ev for ev in events
         if ev.get("ph") == "i" and ev.get("tid") == trace_id),
        key=lambda ev: ev["ts"],
    )
    if not spans:
        return f"trace {trace_id}: no spans"
    start = spans[0]["ts"]
    lines = [f"trace {trace_id}: {len(spans)} spans"]
    for ev in spans:
        args = ev.get("args", {})
        where = names.get(ev.get("pid"), "?")
        fact = args.get("fact")
        detail = f"{args.get('pred')}{tuple(fact)}" if fact else ""
        hop = ""
        if args.get("kind") == "ship":
            hop = f" -> {args.get('dst')}"
        elif args.get("kind") == "receive" and args.get("src"):
            hop = f" <- {args.get('src')}"
        lines.append(
            f"  +{(ev['ts'] - start) / 1e3:9.3f} ms  {where:>10}  "
            f"{args.get('kind', ev.get('cat')):>8}{hop}  {detail}"
        )
    return "\n".join(lines)
