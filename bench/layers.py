"""Where the wrappers go, and how a rep's readings become the named
per-layer metrics.  Layer = module name under ``src/repro``.

``install`` is the whole list of traced functions.  All are public
except ``Transport._flush``: a buffered transport does its coalescing
and sending from a timer, which no public call encloses, and without
the wrapper that work would be booked to the simulator's dispatch loop
on the one workload (``bursty-update``) where it decides ``wire_mb``.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional

from repro.engine.aggregates import AggregateView, ArgExtremeView
from repro.engine.psn import PSNEngine
from repro.engine.table import Table
from repro.net.clock import WallClock
from repro.net.link import LinkChannel
from repro.net.live import (
    QueueChannel,
    UdpChannel,
    decode_message,
    encode_message,
)
from repro.net.sim import Simulator
from repro.runtime.cluster import Cluster
from repro.runtime.node import NodeRuntime
from repro.runtime.transport import Transport


def install(tracer) -> None:
    for attr in ("process_chunk", "process_next", "run"):
        tracer.span(PSNEngine, attr, "engine.psn")
    # Rows leave through force_delete; delete only lowers a count.
    for attr in ("insert", "delete", "force_delete", "lookup"):
        tracer.leaf(Table, attr, "engine.table")
    for view in (AggregateView, ArgExtremeView):
        tracer.leaf(view, "apply", "engine.aggregates")
        tracer.span(view, "apply_many", "engine.aggregates")
    tracer.leaf(NodeRuntime, "receive", "runtime.node")
    tracer.span(Transport, "send", "runtime.transport")
    tracer.span(Transport, "_flush", "runtime.transport")
    tracer.span(Cluster, "deliver", "runtime.cluster")
    tracer.span(Simulator, "run", "net.sim")
    # ``after`` funnels into ``at`` on the simulator and the other way
    # round on the wall clock: count each timer once.
    for owner, attrs in ((Simulator, ("at", "post")),
                         (WallClock, ("after", "post"))):
        for attr in attrs:
            tracer.count(owner, attr, "net.clock")
    for channel in (LinkChannel, QueueChannel, UdpChannel):
        # transmit(self, clock, message, deliver): keep the message for
        # the codec replay.
        tracer.span(channel, "transmit", "net.channel", capture_arg=2)


def codec_replay(messages) -> Dict[str, float]:
    """Push every captured message through the JSON wire codec, which
    in-process channels skip.  Raises if a frame does not round-trip."""
    if not messages:
        return {}
    encode_s = decode_s = 0.0
    frame_bytes = 0
    deltas = 0
    for message in messages:
        start = time.perf_counter()
        frame = encode_message(message)
        middle = time.perf_counter()
        decoded = decode_message(frame)
        decode_s += time.perf_counter() - middle
        encode_s += middle - start
        if decoded != message:
            raise AssertionError(
                f"wire codec did not round-trip {message!r}")
        frame_bytes += len(frame)
        deltas += len(message.deltas)
    return {
        "encode_us_per_msg": encode_s / len(messages) * 1e6,
        "decode_us_per_msg": decode_s / len(messages) * 1e6,
        "json_bytes_per_delta": frame_bytes / max(1, deltas),
    }


# ----------------------------------------------------------------------
# From samples to named metrics
# ----------------------------------------------------------------------
def _median(samples: List[dict], read) -> float:
    values = [read(sample) for sample in samples]
    return statistics.median(values) if values else 0.0


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def layer_metrics(samples: Dict[str, List[dict]]) -> Dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json from one traced set:
    the median over the reps of the variant that measures it.  Counts come from
    the ``plain`` reps (exact under the pinned hash seed), span times
    from the ``traced`` reps scaled to reference seconds, rule totals
    from the ``full`` reps.  A metric the workload has no layer for
    reads 0."""
    plain, traced = samples["plain"], samples["traced"]
    full = samples.get("full", [])

    def count(key: str, variant: Optional[List[dict]] = None) -> float:
        return _median(plain if variant is None else variant,
                       lambda s: s["counts"].get(key, 0))

    def span_s(kind: str, key: str, timed: bool = True) -> float:
        def read(sample):
            totals = sample["trace"]["timed" if timed else "rep"]
            return totals[kind].get(key, 0.0) * sample["factor"]
        return _median(traced, read)

    def calls(key: str) -> float:
        return _median(
            traced, lambda s: s["trace"]["timed"]["calls"].get(key, 0))

    plain_cpu = _median(plain, lambda s: s["converge_cpu_s"])
    traced_cpu = _median(traced, lambda s: s["converge_cpu_s"])
    steps, cancelled = count("steps"), count("cancelled")
    deltas, messages = count("deltas"), count("messages")
    shipped, coalesced = count("netdeltas_shipped"), count("netdeltas_coalesced")
    chunk_calls = calls("engine.psn:process_chunk")
    apply_calls = calls("engine.aggregates:apply")
    firings = count("rule_firings", full)

    metrics = {
        # The paper's three traffic quantities: end-to-end in kind, but
        # undefined on link-flap (no network), and BENCHMARK.json's
        # end-to-end list must hold on every workload.
        "wire_mb": count("bytes") / 1e6,
        "peak_node_kbps": count("peak_node_kbps"),
        "sim_converge_s": count("sim_converge_s"),
        "ndlog.parse_s": span_s("name_s", "ndlog:parse", timed=False),
        "api.compile_s": span_s("name_s", "api:compile", timed=False),
        "api.pass.aggsel_s": count("pass_aggsel_s"),
        "api.pass.localize_s": count("pass_localize_s"),
        "analysis.lint_s": span_s("name_s", "analysis:lint", timed=False),
        "topology.build_s": span_s("name_s", "topology:build", timed=False),
        "runtime.cluster.deploy_s": span_s(
            "name_s", "runtime.cluster:deploy", timed=False),
        "engine.psn.chunk_calls": chunk_calls,
        "engine.psn.chunk_s": span_s("inclusive_s", "engine.psn"),
        "engine.psn.self_s": span_s("self_s", "engine.psn"),
        "engine.psn.steps": steps,
        "engine.psn.inferences": count("inferences"),
        "engine.psn.cancelled": cancelled,
        "engine.psn.netted_frac": _ratio(cancelled, steps + cancelled),
        "engine.rules.firings": firings,
        "engine.rules.fire_s": _median(
            full, lambda s: s["counts"].get("fire_s", 0.0) * s["factor"]),
        "engine.rules.inferences_per_firing": _ratio(
            count("rule_inferences", full), firings),
        "engine.aggregates.apply_calls": apply_calls,
        "engine.aggregates.apply_s": span_s("self_s", "engine.aggregates"),
        "engine.aggregates.change_frac": _ratio(
            count("view_changes"), apply_calls),
        "runtime.node.receive_calls": calls("runtime.node:receive"),
        "runtime.node.receive_s": span_s("self_s", "runtime.node"),
        "runtime.node.deltas": deltas,
        "runtime.node.deltas_per_chunk": _ratio(deltas, chunk_calls),
        "runtime.node.queue_peak": count("queue_peak", full),
        "runtime.transport.send_calls": calls("runtime.transport:send"),
        "runtime.transport.send_s": span_s("self_s", "runtime.transport"),
        "runtime.transport.netdeltas_shipped": shipped,
        "runtime.transport.coalesced_frac": _ratio(
            coalesced, shipped + coalesced),
        "runtime.cluster.deliver_calls": calls("runtime.cluster:deliver"),
        "runtime.cluster.deliver_s": span_s("self_s", "runtime.cluster"),
        "runtime.softstate.expired": count("expired"),
        "runtime.live.loop_idle_frac": _median(
            plain, lambda s: s["idle_frac"]),
        "net.sim.events": count("events"),
        "net.sim.run_s": span_s("inclusive_s", "net.sim"),
        "net.sim.self_s": span_s("self_s", "net.sim"),
        "net.clock.timers": sum(
            calls(f"net.clock:{attr}") for attr in ("at", "after", "post")),
        "net.channel.transmit_calls": calls("net.channel:transmit"),
        "net.channel.transmit_s": span_s("self_s", "net.channel"),
        "net.message.messages": messages,
        "net.message.deltas_per_message": _ratio(shipped, messages),
        "net.message.bytes_per_delta": _ratio(count("bytes"), shipped),
        "net.live.udp_cpu_ratio": _ratio(
            _median(samples.get("udp", []), lambda s: s["converge_cpu_s"]),
            traced_cpu) if samples.get("udp") else 0.0,
        "obs.metrics_overhead": _ratio(
            _median(samples.get("metrics", []),
                    lambda s: s["converge_cpu_s"]), plain_cpu),
        "obs.full_overhead": _ratio(
            _median(full, lambda s: s["converge_cpu_s"]), plain_cpu),
        "bench.trace_overhead": _ratio(traced_cpu, plain_cpu),
        "bench.unattributed_frac": _median(
            traced, lambda s: max(0.0, 1.0 - _ratio(
                s["trace"]["covered_s"], s["converge_cpu_raw_s"]))),
        "bench.kernel_ms": _median(
            plain + traced, lambda s: s["kernel_ms"]),
    }
    for kind, attrs in (("insert", ("insert",)),
                        ("delete", ("delete", "force_delete")),
                        ("lookup", ("lookup",))):
        metrics[f"engine.table.{kind}_calls"] = sum(
            calls(f"engine.table:{attr}") for attr in attrs)
        metrics[f"engine.table.{kind}_s"] = sum(
            span_s("name_s", f"engine.table:{attr}") for attr in attrs)
    for key in ("encode_us_per_msg", "decode_us_per_msg",
                "json_bytes_per_delta"):
        metrics[f"net.live.{key}"] = _median(
            traced, lambda s: s.get("codec", {}).get(key, 0.0))
    return metrics
