"""repro -- a reproduction of "Declarative Networking: Language, Execution
and Optimization" (Loo et al., SIGMOD 2006).

The package implements the NDlog language, centralized and relaxed
semi-naive evaluation (SN / BSN / PSN), distributed execution over a
simulated network with rule localization, incremental view maintenance
under network dynamics, and the paper's query optimizations, together
with an experiment harness that regenerates every figure of the paper's
evaluation section.

The public surface is the staged lifecycle of :mod:`repro.api` -- one
front door from source text to a live (simulated) declarative network:

Quickstart::

    import repro

    compiled = repro.compile('''
        SP1: path(@S, @D, @D, P, C) :- #link(@S, @D, C),
             P := f_concatPath(link(@S, @D, C), nil).
        SP2: path(@S, @D, @Z, P, C) :- #link(@S, @Z, C1),
             path(@Z, @D, @Z2, P2, C2), f_member(P2, S) == 0,
             C := C1 + C2, P := f_concatPath(link(@S, @Z, C1), P2).
        SP3: spCost(@S, @D, min<C>) :- path(@S, @D, @Z, P, C).
        SP4: shortestPath(@S, @D, P, C) :- spCost(@S, @D, C),
             path(@S, @D, @Z, P, C).
        Query: shortestPath(@S, @D, P, C).
    ''')
    print(compiled.explain())                 # pass diffs + join plans
    result = compiled.run(engine="psn",
                          facts={"link": [("a", "b", 1), ("b", "c", 2)]})
    print(result.rows("shortestPath"))

    deployment = compiled.deploy(n_nodes=24, degree=3)  # distributed
    deployment.advance()                                # run to quiescence
    print(deployment.query_rows())

    live = compiled.deploy(n_nodes=8, target="live",    # wall clock,
                           channels="udp")              # real sockets
    live.converge(timeout=30.0)
    print(live.query_rows())

``compile(source, passes=[...])`` picks and orders rewrites by name
from one fixed table, ``repro.PASSES`` (magic sets, aggregate
selections and localization, in that canonical order); ``passes=None``
runs ``repro.DEFAULT_PASSES``, aggregate selections alone.  Join order
is not a pass: every engine plans it per strand, from table sizes.

``deploy()`` returns the deployed network itself: a
:class:`~repro.runtime.cluster.Cluster` on the simulator, a
:class:`~repro.runtime.live.LiveCluster` on wall time.
``repro.Deployment`` and ``repro.LiveDeployment`` name the same two
classes.

Compile with ``provenance=True`` and any run or deployment records
rule-level derivation provenance: ``result.why(pred, row)`` /
``deployment.why(...)`` return derivation trees, ``why_not(...)``
explains absent tuples by failed-body analysis, and
``deployment.audit()`` cross-checks derivation counts against the
graph (see :mod:`repro.provenance` and ``examples/why_routing.py``).

Deployments can also be stress-tested: ``deploy(..., chaos=schedule,
reliable=True)`` injects a seeded fault plan (drops, duplication,
reordering, corruption, partitions, crashes, clock skew -- see
:mod:`repro.chaos`) while the ack/retransmit transport restores the
delivery guarantees the paper's theorems assume; a
:class:`~repro.chaos.ChaosMonitor` checks the post-chaos fixpoint
against a fault-free reference (``examples/chaos_routing.py``).

Observability rides the same switches: ``deploy(..., metrics=True,
trace=True, profile=True)`` wires a per-(node, rule, relation) metrics
registry (``deployment.metrics()`` snapshots, Prometheus text via
``metrics_text()``), delta-propagation tracing with ids piggybacked on
the wire (``save_trace(path)`` exports Chrome trace-event JSON;
``python -m repro.obs`` summarizes it), and per-strand CPU profiling
(``deployment.profile().report()``; ``explain(timings=True)`` adds
per-pass compile timings) -- see :mod:`repro.obs` and
``examples/observability.py``.

See ``examples/`` for full walkthroughs on simulated topologies and
``examples/live_routing.py`` for the live asyncio/UDP target.
"""

from repro import ndlog  # noqa: F401
from repro.analysis import AnalysisReport, Diagnostic, analyze
from repro.chaos import ChaosMonitor, ChaosSchedule  # noqa: F401
from repro.api import (
    DEFAULT_PASSES,
    PASSES,
    CompiledProgram,
    compile,
)
from repro.engine import Database
from repro.ndlog import parse, programs, validate  # noqa: F401
from repro.provenance import (  # noqa: F401
    AuditReport,
    DerivationTree,
    ProvenanceStore,
    WhyNotReport,
)
from repro.runtime import Cluster, Deployment, LiveDeployment, RuntimeConfig

__all__ = [
    "compile",
    "CompiledProgram",
    "Deployment",
    "LiveDeployment",
    "PASSES",
    "DEFAULT_PASSES",
    "Database",
    "parse",
    "validate",
    "programs",
    "Cluster",
    "RuntimeConfig",
    "ChaosSchedule",
    "ChaosMonitor",
    "ProvenanceStore",
    "DerivationTree",
    "WhyNotReport",
    "AuditReport",
    "analyze",
    "AnalysisReport",
    "Diagnostic",
]

__version__ = "1.1.0"
