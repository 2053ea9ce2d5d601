"""Observability subsystem: metrics registry, delta-propagation
tracing and profiling hooks.

Enable per deployment::

    deployment = compiled.deploy(overlay, metrics=True, trace=True,
                                 profile=True)
    ...
    snap = deployment.metrics()          # MetricsSnapshot
    print(deployment.metrics_text())     # Prometheus text exposition
    print(deployment.profile().report()) # per-strand CPU time
    deployment.save_trace("trace.json")  # Chrome trace-event JSON

``python -m repro.obs trace.json`` summarizes a saved trace file.

All three are subscribers behind one seam, :mod:`repro.obs.observer`
(which holds the payload table): an engine, a node and the wire each
hold one optional handle and raise the events of a delta's life on it
-- ``inject``, ``derive``, ``renew`` (per run), ``fire`` (per firing),
``net``, ``commit`` (per row) on an engine, ``tick`` / ``receive`` on a
node, ``ship``, ``netted``, ``retransmit``, ``fault`` on the wire.
Built without these flags and with no commit listener a deployment
holds ``None`` and pays one check per site.  Provenance is deliberately
*not* a subscriber: it is part of the run (it selects the capture
kernel and books base support where a row commits).
"""

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, NodeMetrics
from repro.obs.profile import Profiler
from repro.obs.trace import (
    NodeTracer,
    TraceEvent,
    Tracer,
    load_trace,
    render_trace,
    summarize_trace,
)

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "NodeMetrics",
    "NodeTracer",
    "Profiler",
    "TraceEvent",
    "Tracer",
    "load_trace",
    "render_trace",
    "summarize_trace",
]
