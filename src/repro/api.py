"""One front door for the reproduction: a staged ``compile() ->
CompiledProgram -> run()/deploy()`` lifecycle.

The paper's system (P2) treats an NDlog program as a single artifact
that is parsed, rewritten, and then executed either centrally or
distributed.  This module exposes that lifecycle behind one surface:

* :func:`compile` parses (if needed), validates, and pushes the program
  through an explicit, introspectable **optimization-pass pipeline** --
  the rewrites of Sections 3-5 (aggregate selections, magic sets,
  predicate reordering, cost-based join ordering, the textual semi-naive
  rewrite, and rule localization) registered as named, ordered,
  toggleable passes in a :class:`PassRegistry`, with a before/after
  :class:`~repro.ndlog.ast.Program` snapshot recorded per pass;
* the returned :class:`CompiledProgram` is the compiled artifact:
  :meth:`~CompiledProgram.explain` pretty-prints the per-pass rule
  diffs and the final join plans, :meth:`~CompiledProgram.run`
  evaluates centrally on any of the four engines, and
  :meth:`~CompiledProgram.deploy` stands up a simulated declarative
  network, returning a :class:`Deployment` handle;
* :class:`Deployment` wraps :class:`~repro.runtime.cluster.Cluster`
  with the live-system verbs: ``inject`` / ``update`` / ``delete`` /
  ``watch`` / ``subscribe`` / ``advance`` / ``query_rows``.

Quickstart::

    import repro

    compiled = repro.compile(SOURCE)          # parse + validate + passes
    print(compiled.explain())                 # per-pass diffs, join plans
    result = compiled.run(engine="psn", facts={"link": LINKS})
    deployment = compiled.deploy(topology=overlay)
    deployment.advance()                      # run to quiescence
    deployment.query_rows()

Pass and engine failures raise the :mod:`repro.errors` taxonomy
(:class:`~repro.errors.PlanError` with the pass name attached,
:class:`~repro.errors.EvaluationError` with the engine name attached)
instead of leaking bare ``ValueError``/``KeyError`` from rewrite
internals.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine import bsn, naive, psn, seminaive
from repro.engine.database import Database
from repro.engine.fixpoint import EvalResult
from repro.engine.kernels import strand_kernel
from repro.engine.rules import (
    AssignStep,
    LiteralStep,
    shared_compiled_rules,
)
from repro.errors import (
    EvaluationError,
    NDlogValidationError,
    PlanError,
    ReproError,
    StaticAnalysisError,
)
from repro.ndlog.ast import Literal, Program
from repro.ndlog.parser import parse
from repro.ndlog.pretty import (
    format_diagnostic,
    format_literal,
    format_materialization,
    format_program,
    format_rule,
    format_term,
)
from repro.ndlog.validator import ValidationReport
from repro.ndlog.validator import validate as validate_program
from repro.net.stats import ResultTracker
from repro.opt import aggsel as _aggsel
from repro.opt.costbased import StatsCatalog
from repro.planner.localization import localize as _localize
from repro.planner.magic import magic_rewrite as _magic_rewrite
from repro.planner.reorder import (
    greedy_join_order,
    reorder_body,
    reorder_program,
)
from repro.planner.seminaive_rewrite import seminaive_rewrite as _sn_rewrite

__all__ = [
    "Pass",
    "PassRegistry",
    "PassSnapshot",
    "DEFAULT_REGISTRY",
    "ENGINES",
    "compile",
    "CompiledProgram",
    "Deployment",
]

#: Engine name -> ``evaluate(program, db, **opts)`` entry point.  This
#: table is the single place engine selection is decided; everything
#: else (examples, experiments) routes through
#: :meth:`CompiledProgram.run`.
ENGINES: Dict[str, Callable[..., EvalResult]] = {
    "naive": naive.evaluate,
    "seminaive": seminaive.evaluate,
    "bsn": bsn.evaluate,
    "psn": psn.evaluate,
}


# ----------------------------------------------------------------------
# The pass registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Pass:
    """One named program rewrite in the compile pipeline.

    ``semantics_preserving`` means the rewrite preserves the fixpoint of
    the program's *query predicate* (magic sets restrict it to the
    query-matching tuples); passes without the property (the textual
    semi-naive rewrite renames every derived relation) are inspection
    devices and excluded from the pipeline-equivalence guarantees.
    ``default`` marks passes that run when :func:`compile` is called
    without an explicit ``passes`` list.
    """

    name: str
    fn: Callable[..., Program]
    description: str
    semantics_preserving: bool = True
    default: bool = False


class PassRegistry:
    """Named, ordered, toggleable program-rewrite passes.

    Registration order is the canonical pipeline order: it is the order
    the default pipeline runs in, and the order listed by
    :meth:`describe`.  Callers of :func:`compile` may enable any subset
    in any order.
    """

    def __init__(self, passes: Sequence[Pass] = ()):
        self._passes: Dict[str, Pass] = {}
        for pass_ in passes:
            self.register(pass_)

    def register(self, pass_: Pass, replace: bool = False) -> Pass:
        if pass_.name in self._passes and not replace:
            raise PlanError(f"pass {pass_.name!r} already registered")
        self._passes[pass_.name] = pass_
        return pass_

    def get(self, name: str) -> Pass:
        pass_ = self._passes.get(name)
        if pass_ is None:
            raise PlanError(
                f"unknown pass {name!r}; registered passes: "
                f"{', '.join(self.names())}"
            )
        return pass_

    def names(self) -> Tuple[str, ...]:
        return tuple(self._passes)

    def default_pipeline(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self._passes.values() if p.default)

    def semantics_preserving_names(self) -> Tuple[str, ...]:
        return tuple(
            p.name for p in self._passes.values() if p.semantics_preserving
        )

    def __contains__(self, name: str) -> bool:
        return name in self._passes

    def __iter__(self):
        return iter(self._passes.values())

    def resolve(
        self,
        passes: Optional[Sequence[Union[str, Pass, Tuple]]],
    ) -> List[Tuple[Pass, Dict[str, object]]]:
        """Normalize a user pass list into ``(Pass, options)`` pairs.

        ``None`` selects the default pipeline; entries may be pass
        names, ``(name, options)`` pairs, or :class:`Pass` objects.
        """
        if passes is None:
            passes = self.default_pipeline()
        resolved: List[Tuple[Pass, Dict[str, object]]] = []
        for entry in passes:
            options: Dict[str, object] = {}
            if isinstance(entry, tuple):
                if len(entry) != 2 or not isinstance(entry[1], dict):
                    raise PlanError(
                        f"tuple pass specifiers must be (name, options "
                        f"dict); got {entry!r}"
                    )
                entry, options = entry
            if isinstance(entry, Pass):
                pass_ = entry
            elif isinstance(entry, str):
                pass_ = self.get(entry)
            else:
                raise PlanError(f"bad pass specifier {entry!r}")
            resolved.append((pass_, dict(options)))
        return resolved

    def describe(self) -> List[Tuple[str, str, str, str]]:
        """Rows of ``(name, default, semantics, description)`` for docs
        and ``explain()`` headers."""
        return [
            (
                p.name,
                "on" if p.default else "off",
                "preserving" if p.semantics_preserving else "inspection",
                p.description,
            )
            for p in self._passes.values()
        ]


# ----------------------------------------------------------------------
# The passes (wrappers over the planner/opt modules)
# ----------------------------------------------------------------------
def _recursive_preds(program: Program) -> List[str]:
    """Predicates defined by at least one directly-recursive rule."""
    out = []
    for rule in program.rules:
        pred = rule.head.pred
        if pred in out:
            continue
        if any(lit.pred == pred for lit in rule.body_literals):
            out.append(pred)
    return sorted(out)


def _pass_magic(program: Program, query: Optional[Literal] = None) -> Program:
    """Magic-sets rewrite (Section 5.1.2) for the program's query (or an
    explicit ``query`` literal); degenerates to the identity when the
    query binds nothing."""
    return _magic_rewrite(program, query=query)


def _pass_aggsel(program: Program, specs=None) -> Program:
    """Aggregate selections (Section 5.1.1): prune recursion through
    group-optimal ``__best`` views of monotonic aggregates."""
    return _aggsel.rewrite(program, specs=specs)


def _pass_reorder(
    program: Program, pred: Optional[str] = None, to_left: bool = False
) -> Program:
    """Recursion-orientation flip (Section 5.1.2): move the recursive
    literal first (``to_left=True``, Top-Down) or last (Bottom-Up) in
    the bodies of ``pred`` (default: every directly-recursive
    predicate)."""
    preds = [pred] if pred is not None else _recursive_preds(program)
    for recursive_pred in preds:
        program = reorder_program(program, recursive_pred, to_left)
    return program


def _pass_costbased(
    program: Program,
    sizes: Optional[Dict[str, float]] = None,
    default_rows: float = StatsCatalog.DEFAULT_ROWS,
) -> Program:
    """Cost-based join ordering (Section 5.3): greedily reorder each
    rule body by bound-ness then estimated candidate count from a
    :class:`~repro.opt.costbased.StatsCatalog` (``sizes`` maps relation
    names to cardinality estimates)."""
    stats = StatsCatalog(sizes, default_rows=default_rows)
    rules = []
    for rule in program.rules:
        literals = list(rule.body_literals)
        if len(literals) > 1:
            order = greedy_join_order(
                list(enumerate(literals)), set(), stats=stats
            )
            rule = reorder_body(rule, order)
        rules.append(rule)
    return Program(
        rules=rules,
        facts=list(program.facts),
        materializations=dict(program.materializations),
        query=program.query,
        name=program.name,
    )


def _pass_seminaive(program: Program, recursive_preds=None) -> Program:
    """The textual semi-naive delta rewrite (Section 3.1); an inspection
    rewrite -- it renames derived relations, so it is not part of the
    semantics-preserving pipeline."""
    return _sn_rewrite(program, recursive_preds=recursive_preds)


def _pass_localize(program: Program) -> Program:
    """Rule localization (Algorithm 2): rewrite every link-restricted
    rule so each body executes at a single node, with communication only
    along links."""
    return _localize(program)


def default_registry() -> PassRegistry:
    """The stock registry wrapping the planner/opt rewrites.  The
    registration order is the canonical pipeline order."""
    return PassRegistry([
        Pass(
            "magic", _pass_magic,
            "magic-sets rewrite for a bound query (Section 5.1.2)",
            semantics_preserving=True, default=False,
        ),
        Pass(
            "aggsel", _pass_aggsel,
            "aggregate selections: prune via group-optimal views "
            "(Section 5.1.1)",
            semantics_preserving=True, default=True,
        ),
        Pass(
            "reorder", _pass_reorder,
            "flip recursion orientation (TD/BU, Section 5.1.2)",
            semantics_preserving=True, default=False,
        ),
        Pass(
            "costbased", _pass_costbased,
            "greedy selectivity-driven body reorder (Section 5.3)",
            semantics_preserving=True, default=False,
        ),
        Pass(
            "seminaive", _pass_seminaive,
            "textual semi-naive delta rewrite (Section 3.1, inspection)",
            semantics_preserving=False, default=False,
        ),
        Pass(
            "localize", _pass_localize,
            "rule localization for distributed execution (Algorithm 2)",
            semantics_preserving=True, default=False,
        ),
    ])


#: The registry :func:`compile` uses unless given another one.
DEFAULT_REGISTRY = default_registry()


def _apply_pass(
    pass_: Pass, program: Program, options: Dict[str, object]
) -> Program:
    """Run one pass with taxonomy-enforcing error wrapping: anything
    that escapes is a :class:`PlanError` carrying the pass name."""
    try:
        result = pass_.fn(program, **options)
    except PlanError as exc:
        if exc.pass_name is not None:
            raise
        # Re-wrap from the raw message so an already-rendered "[rule ...]"
        # prefix is not duplicated.
        raise PlanError(
            exc.raw_message, pass_name=pass_.name, rule=exc.rule
        ) from exc
    except ReproError as exc:
        raise PlanError(str(exc), pass_name=pass_.name) from exc
    except Exception as exc:  # bare ValueError/KeyError/TypeError etc.
        raise PlanError(
            f"{type(exc).__name__}: {exc}", pass_name=pass_.name
        ) from exc
    if not isinstance(result, Program):
        raise PlanError(
            f"pass returned {type(result).__name__}, not a Program",
            pass_name=pass_.name,
        )
    return result


# ----------------------------------------------------------------------
# Snapshots and the compiled artifact
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PassSnapshot:
    """Before/after record of one pass application."""

    name: str
    options: Dict[str, object]
    before: Program
    after: Program
    #: Wall seconds the pass took (``explain(timings=True)`` renders
    #: these; 0.0 on snapshots that predate the timing hook).
    elapsed: float = 0.0

    @property
    def changed(self) -> bool:
        return format_program(self.before) != format_program(self.after)

    def _rule_texts(self, program: Program) -> List[str]:
        return [format_rule(rule) for rule in program.rules]

    @property
    def removed_rules(self) -> List[str]:
        after = set(self._rule_texts(self.after))
        return [t for t in self._rule_texts(self.before) if t not in after]

    @property
    def added_rules(self) -> List[str]:
        before = set(self._rule_texts(self.before))
        return [t for t in self._rule_texts(self.after) if t not in before]

    @property
    def added_materializations(self) -> List[str]:
        before = {
            format_materialization(m)
            for m in self.before.materializations.values()
        }
        return [
            text
            for text in (
                format_materialization(m)
                for m in self.after.materializations.values()
            )
            if text not in before
        ]


def _describe_plan(plan) -> str:
    """One-line rendering of a strand's join plan: the driving literal
    (every row of its table, or every delta, is a scan of it), then
    the step chain."""
    driver = plan.crule.body[plan.driver_index]
    parts: List[str] = [f"{format_literal(driver)} [scan]"]
    for step in plan.steps:
        if isinstance(step, LiteralStep):
            text = format_literal(step.literal)
            if step.positions:
                text += f" [probe {','.join(map(str, step.positions))}]"
            else:
                text += " [scan]"
            parts.append(text)
        elif isinstance(step, AssignStep):
            parts.append(f"{step.name} := {format_term(step.expr)}")
        else:
            parts.append(f"if {format_term(step.expr)}")
    return " -> ".join(parts)


class CompiledProgram:
    """The artifact :func:`compile` returns: the final rewritten
    :class:`Program`, the original, the per-pass trace, and the staged
    execution verbs (:meth:`run` central, :meth:`deploy` distributed,
    :meth:`explain` introspection)."""

    def __init__(
        self,
        source: Program,
        program: Program,
        trace: Tuple[PassSnapshot, ...],
        report: Optional[ValidationReport] = None,
        registry: Optional[PassRegistry] = None,
        provenance: bool = False,
        lint: str = "warn",
    ):
        self.source = source
        self.program = program
        self.trace = tuple(trace)
        self.report = report
        self.registry = registry or DEFAULT_REGISTRY
        #: Capture rule-level derivation provenance when this artifact
        #: runs or deploys (``compile(..., provenance=True)``).
        self.provenance = provenance
        #: ndlint mode: ``"off"`` / ``"warn"`` / ``"error"``.
        self.lint = lint
        self._analysis_report = None

    # -- introspection --------------------------------------------------
    @property
    def name(self) -> str:
        return self.program.name or self.source.name or "program"

    @property
    def applied_passes(self) -> Tuple[str, ...]:
        return tuple(snap.name for snap in self.trace)

    @property
    def pass_specs(self) -> Tuple[Tuple[str, Dict[str, object]], ...]:
        return tuple((snap.name, dict(snap.options)) for snap in self.trace)

    def before_pass(self, name: str) -> Optional[Program]:
        """The program as it stood entering the first application of
        pass ``name`` (``None`` if the pass never ran)."""
        for snap in self.trace:
            if snap.name == name:
                return snap.before
        return None

    def after_pass(self, name: str) -> Optional[Program]:
        """The program right after the last application of ``name``."""
        result = None
        for snap in self.trace:
            if snap.name == name:
                result = snap.after
        return result

    @property
    def diagnostics(self):
        """The ndlint :class:`~repro.analysis.AnalysisReport` for the
        rewritten program, or ``None`` when compiled with
        ``lint="off"``.  Computed lazily on first access and cached, so
        ``lint="warn"`` (the default) costs nothing until someone looks.
        """
        if self.lint == "off":
            return None
        if self._analysis_report is None:
            from repro.analysis import analyze

            self._analysis_report = analyze(self.program, name=self.name)
        return self._analysis_report

    def __repr__(self) -> str:
        passes = ", ".join(self.applied_passes) or "none"
        return (
            f"CompiledProgram({self.name!r}, passes=[{passes}], "
            f"rules={len(self.program.rules)})"
        )

    def explain(self, join_plans: bool = True, timings: bool = False,
                kernels: bool = False) -> str:
        """Human-readable compilation report: validation summary,
        per-pass rule diffs, the final rewritten program, and (by
        default) the join plan of every rule's lead strand -- the first
        body literal driving, which is how ``naive`` and ``seminaive``'s
        base case evaluate the rule in full.
        ``timings=True`` appends per-pass compile times (opt-in: the
        numbers vary run to run, so the default report stays
        deterministic for golden-output comparisons).
        ``kernels=True`` appends the generated source of every strand
        kernel -- one per (rule, driving literal).  They are what
        *every* engine runs: PSN / BSN when a tuple of that literal's
        relation commits, ``seminaive`` with an iteration's new tuples
        of it driving, ``naive`` the first literal's over its whole
        table."""
        lines: List[str] = []
        lines.append(f"== compiled program {self.name!r} ==")
        pipeline = ", ".join(self.applied_passes) or "(none)"
        lines.append(f"passes: {pipeline}")
        if self.report is not None:
            status = "ok" if self.report.ok else "FAILED"
            lines.append(
                f"validation: {status} "
                f"({len(self.report.local_rules)} local rules, "
                f"{len(self.report.link_restricted_rules)} link-restricted)"
            )
        for snap in self.trace:
            header = f"-- pass {snap.name}"
            if snap.options:
                opts = ", ".join(
                    f"{k}={v!r}" for k, v in sorted(snap.options.items())
                )
                header += f" ({opts})"
            if not snap.changed:
                lines.append(f"{header}: no change")
                continue
            lines.append(f"{header}:")
            for text in snap.removed_rules:
                lines.append(f"  - {text}")
            for text in snap.added_rules:
                lines.append(f"  + {text}")
            for text in snap.added_materializations:
                lines.append(f"  + {text}")
        lines.append("-- rewritten program --")
        lines.append(format_program(self.program).rstrip())
        analysis = self.diagnostics
        if analysis is not None:
            lines.append("-- diagnostics --")
            if not analysis.diagnostics:
                lines.append("ndlint: clean (no findings)")
            for diag in analysis:
                lines.append(format_diagnostic(diag))
        if join_plans:
            lines.append("-- join plans --")
            stats = StatsCatalog()
            for crule in shared_compiled_rules(self.program):
                plan = strand_kernel(crule, crule.literal_indexes[0],
                                     stats).plan
                suffix = ""
                if crule.aggregate is not None:
                    suffix = " (aggregate view)"
                elif crule.argmin is not None:
                    suffix = " (arg-extreme view)"
                lines.append(
                    f"{crule.label}{suffix}: {_describe_plan(plan)}")
        if timings:
            lines.append("-- pass timings --")
            total = 0.0
            for snap in self.trace:
                total += snap.elapsed
                lines.append(f"{snap.name}: {snap.elapsed * 1e3:.3f} ms")
            lines.append(f"total: {total * 1e3:.3f} ms")
        if kernels:
            lines.append("-- strand kernels --")
            stats = StatsCatalog()
            for crule in shared_compiled_rules(self.program):
                for index in crule.literal_indexes:
                    kernel = strand_kernel(crule, index, stats)
                    lines.append(f"{kernel.filename()}:")
                    lines.append(kernel.source().rstrip())
        return "\n".join(lines)

    # -- derived artifacts ----------------------------------------------
    def extended(
        self,
        passes: Sequence[Union[str, Pass, Tuple]],
        registry: Optional[PassRegistry] = None,
    ) -> "CompiledProgram":
        """A new artifact with further passes applied on top of this
        one's result (the trace is carried forward and extended).
        ``registry`` resolves the new pass names (default: the registry
        this artifact was compiled with) and becomes the result's
        registry."""
        registry = registry or self.registry
        trace = list(self.trace)
        current = self.program
        for pass_, options in registry.resolve(passes):
            before = current
            started = perf_counter()
            current = _apply_pass(pass_, before, options)
            trace.append(PassSnapshot(pass_.name, dict(options),
                                      before, current,
                                      elapsed=perf_counter() - started))
        return CompiledProgram(
            source=self.source,
            program=current,
            trace=tuple(trace),
            report=self.report,
            registry=registry,
            provenance=self.provenance,
            lint=self.lint,
        )

    def localized(self) -> "CompiledProgram":
        """This artifact with rule localization guaranteed to have run
        (the deployable form); a no-op if ``localize`` already ran."""
        if "localize" in self.applied_passes:
            return self
        return self.extended(["localize"])

    # -- execution ------------------------------------------------------
    def run(
        self,
        engine: str = "psn",
        facts: Optional[Dict[str, Iterable[Tuple]]] = None,
        db: Optional[Database] = None,
        provenance: Optional[bool] = None,
        **engine_opts,
    ) -> EvalResult:
        """Centralized evaluation to fixpoint.

        ``engine`` is one of ``naive`` / ``seminaive`` / ``bsn`` /
        ``psn``; ``facts`` maps relation names to rows loaded before
        evaluation; ``engine_opts`` pass through to the engine entry
        point (``batch_size``, ``max_steps``, ...).

        ``provenance`` overrides the artifact's compile-time flag for
        this run (``True``/``False``, or a pre-built
        :class:`~repro.provenance.store.ProvenanceRecorder` to share a
        store across runs); when capture is on, the result's
        :meth:`~repro.engine.fixpoint.EvalResult.why` walks the
        recorded derivation graph.
        """
        evaluate = ENGINES.get(engine)
        if evaluate is None:
            raise PlanError(
                f"unknown engine {engine!r}; pick from {sorted(ENGINES)}"
            )
        if db is None:
            db = Database.for_program(self.program)
        for pred, rows in (facts or {}).items():
            db.load_facts(pred, rows)
        if provenance is None:
            provenance = self.provenance
        if provenance and "provenance" not in engine_opts:
            from repro.provenance import ProvenanceStore

            if isinstance(provenance, bool):
                provenance = ProvenanceStore().recorder()
            engine_opts["provenance"] = provenance
        try:
            return evaluate(self.program, db, **engine_opts)
        except ReproError:
            raise
        except Exception as exc:  # taxonomy guarantee at the facade
            raise EvaluationError(
                f"{type(exc).__name__}: {exc}", engine=engine
            ) from exc

    def deploy(
        self,
        topology=None,
        config=None,
        link_loads: Optional[Dict[str, str]] = None,
        n_nodes: int = 100,
        degree: int = 4,
        seed: int = 1,
        metric: str = "latency",
        target: str = "sim",
        channels: str = "inproc",
        host: str = "127.0.0.1",
        chaos=None,
        reliable: bool = False,
        metrics: bool = False,
        trace: bool = False,
        profile: bool = False,
    ) -> "Deployment":
        """Stand up the program as a distributed declarative network.

        ``topology`` is an :class:`~repro.topology.overlay.Overlay`
        (default: a transit-stub overlay built from ``n_nodes`` /
        ``degree`` / ``seed``); ``config`` a
        :class:`~repro.runtime.config.RuntimeConfig`; ``link_loads``
        maps link relations to overlay metrics (default
        ``{"link": metric}``).  Localization is applied automatically
        if it has not run yet.

        ``target`` selects the execution substrate: ``"sim"`` (the
        default) returns a :class:`Deployment` over the deterministic
        virtual-time simulator (the network is *not* run; call
        :meth:`Deployment.advance`); ``"live"`` returns a
        :class:`~repro.runtime.live.LiveDeployment` that runs each node
        as an asyncio task on wall-clock time, exchanging deltas over
        ``channels`` -- in-process asyncio queues (``"inproc"``) or
        real UDP datagram sockets on ``host`` (``"udp"``).  Drive it
        with ``await start()`` / ``await quiescent()`` / ``await
        stop()``, or synchronously with ``converge()``.

        ``chaos`` attaches a fault-injection plan
        (:class:`repro.chaos.ChaosSchedule`) and ``reliable=True`` ships
        deltas over the ack/retransmit transport -- both are shorthand
        for the corresponding :class:`RuntimeConfig` fields and work on
        every target.

        Observability (:mod:`repro.obs`, also config shorthand, any
        target): ``metrics=True`` collects the per-(node, rule,
        relation) registry behind :meth:`Deployment.metrics` /
        ``metrics_text``; ``trace=True`` records causally-linked
        delta-propagation spans exported by
        :meth:`Deployment.save_trace`; ``profile=True`` accumulates
        per-rule/per-strand CPU time for :meth:`Deployment.profile`.
        """
        from repro.runtime.cluster import Cluster
        from repro.runtime.config import RuntimeConfig
        from repro.topology import build_overlay, transit_stub

        if topology is None:
            topology = build_overlay(
                transit_stub(seed=seed), n_nodes=n_nodes, degree=degree,
                seed=seed,
            )
        if link_loads is None:
            link_loads = {"link": metric}
        if chaos is not None or reliable or metrics or trace or profile:
            base = config if config is not None else RuntimeConfig()
            config = dataclasses.replace(
                base,
                chaos=chaos if chaos is not None else base.chaos,
                reliable=reliable or base.reliable,
                metrics=metrics or base.metrics,
                trace=trace or base.trace,
                profile=profile or base.profile,
            )
        compiled = self.localized()
        if target == "live":
            from repro.runtime.live import LiveDeployment

            return LiveDeployment(
                compiled, topology, config=config, link_loads=link_loads,
                channels=channels, host=host,
            )
        if target != "sim":
            raise PlanError(
                f"unknown deploy target {target!r}; pick 'sim' or 'live'"
            )
        cluster = Cluster(
            topology, compiled, config or RuntimeConfig(),
            link_loads=link_loads,
        )
        return Deployment(cluster, compiled)


# ----------------------------------------------------------------------
# compile()
# ----------------------------------------------------------------------
def _is_location_free(program: Program) -> bool:
    """True when no literal anywhere carries an ``@`` location marker --
    i.e. the program is plain Datalog, not NDlog, and the distributed
    validation constraints (Definitions 1-6) do not apply to it."""
    def marked(literal: Literal) -> bool:
        return any(getattr(term, "location", False) for term in literal.args)

    literals: List[Literal] = []
    for rule in program.rules:
        literals.append(rule.head)
        literals.extend(rule.body_literals)
    literals.extend(program.facts)
    if program.query is not None:
        literals.append(program.query)
    return not any(marked(literal) for literal in literals)


def compile(
    source_or_program: Union[str, Program, CompiledProgram],
    passes: Optional[Sequence[Union[str, Pass, Tuple]]] = None,
    *,
    strict: bool = True,
    validate: bool = True,
    strict_address_types: bool = False,
    name: Optional[str] = None,
    registry: Optional[PassRegistry] = None,
    provenance: Optional[bool] = None,
    lint: Optional[str] = None,
) -> CompiledProgram:
    """Compile NDlog source (or a parsed :class:`Program`) into a
    :class:`CompiledProgram`.

    ``passes`` selects and orders the optimization passes by name (see
    :data:`DEFAULT_REGISTRY`); entries may be ``(name, options)`` pairs,
    e.g. ``("reorder", {"pred": "path", "to_left": True})``.  ``None``
    runs the registry's default pipeline; ``[]`` runs no passes.
    ``strict=True`` raises :class:`NDlogValidationError` when validation
    fails; ``strict=False`` records the report on the artifact and
    continues.  ``validate=False`` skips validation entirely.  Programs
    with no ``@`` location specifiers anywhere are recognized as plain
    Datalog and validated without the NDlog distributed constraints
    (rule safety, arities, aggregate placement and ground facts still
    apply; deploying one still fails in ``localize``).

    ``provenance=True`` arms derivation capture on the artifact: every
    subsequent :meth:`CompiledProgram.run` / ``deploy`` records
    rule-level provenance queryable through ``why`` / ``why_not`` and
    auditable against the derivation counts (see
    :mod:`repro.provenance`).  Off by default; disabled runs pay
    nothing.  When re-compiling a :class:`CompiledProgram`, ``None``
    keeps the artifact's flag and an explicit ``True``/``False``
    produces a *derived* artifact with the flag set (the input artifact
    is never mutated).

    ``lint`` selects the ndlint mode (see :mod:`repro.analysis`):
    ``"warn"`` (the default) attaches a lazily computed diagnostic
    report to the artifact (``.diagnostics``, also rendered by
    :meth:`CompiledProgram.explain`); ``"error"`` runs the analyses
    eagerly and raises :class:`StaticAnalysisError` on any finding at
    warning severity or above; ``"off"`` disables analysis.

    A :class:`CompiledProgram` input composes instead of restarting:
    explicit ``passes`` are appended to its existing trace (see
    :meth:`CompiledProgram.extended`, honouring ``registry``) and
    ``passes=None`` returns the artifact unchanged -- the default
    pipeline never runs twice.  The validation arguments do not apply
    to an already-compiled artifact (its source was validated when it
    was first compiled).
    """
    if isinstance(source_or_program, CompiledProgram):
        # Re-compiling an artifact composes with what already ran: the
        # trace is carried forward and only the explicitly requested
        # passes are appended (running the *default* pipeline again on
        # an already-rewritten program would double-apply rewrites).
        # An explicit provenance flag yields a derived artifact; the
        # input is never mutated.
        artifact = source_or_program
        same_provenance = provenance is None or provenance == artifact.provenance
        same_lint = lint is None or lint == artifact.lint
        if passes is None and registry is None and same_provenance \
                and same_lint:
            return artifact
        derived = artifact.extended(passes or [], registry=registry)
        if not same_provenance:
            derived.provenance = provenance
        if not same_lint:
            derived.lint = _check_lint_mode(lint)
        _enforce_lint(derived)
        return derived
    registry = registry or DEFAULT_REGISTRY
    lint = _check_lint_mode("warn" if lint is None else lint)
    if isinstance(source_or_program, Program):
        program = source_or_program
    elif isinstance(source_or_program, str):
        program = parse(source_or_program, name=name)
    else:
        raise PlanError(
            f"cannot compile {type(source_or_program).__name__}; expected "
            f"NDlog source, a Program, or a CompiledProgram"
        )

    report: Optional[ValidationReport] = None
    if validate:
        # Location-free programs are plain Datalog: the distributed
        # constraints (Definitions 1-6) do not apply, but rule safety,
        # arities, aggregate placement and ground facts still do.
        report = validate_program(
            program,
            strict_address_types=strict_address_types,
            distributed=not _is_location_free(program),
        )
        if strict and not report.ok:
            raise NDlogValidationError(
                f"program {program.name or '<anonymous>'!r} failed "
                f"validation: " + "; ".join(report.errors)
                + " (pass validate=False to compile anyway)"
            )

    trace: List[PassSnapshot] = []
    current = program
    for pass_, options in registry.resolve(passes):
        before = current
        started = perf_counter()
        current = _apply_pass(pass_, before, options)
        trace.append(PassSnapshot(pass_.name, dict(options), before, current,
                                  elapsed=perf_counter() - started))

    artifact = CompiledProgram(
        source=program,
        program=current,
        trace=tuple(trace),
        report=report,
        registry=registry,
        provenance=bool(provenance),
        lint=lint,
    )
    _enforce_lint(artifact)
    return artifact


_LINT_MODES = ("off", "warn", "error")


def _check_lint_mode(lint: str) -> str:
    if lint not in _LINT_MODES:
        raise PlanError(
            f"unknown lint mode {lint!r}; pick from {_LINT_MODES}"
        )
    return lint


def _enforce_lint(artifact: CompiledProgram) -> None:
    """``lint="error"``: run the analyses eagerly and refuse to hand
    back an artifact with warning-or-worse findings."""
    if artifact.lint != "error":
        return
    analysis = artifact.diagnostics
    offending = analysis.at_least("warning")
    if not offending:
        return
    quoted = "; ".join(
        f"{d.code} {d.message}" for d in offending[:3]
    )
    more = len(offending) - 3
    if more > 0:
        quoted += f" (+{more} more)"
    # Name the program the caller handed in, not the pass-renamed
    # rewrite ("aggsel" for an anonymous source).
    name = artifact.source.name or "<anonymous>"
    raise StaticAnalysisError(
        f"program {name!r} failed static analysis with "
        f"{len(offending)} finding(s) at warning severity or above: "
        f"{quoted} (compile with lint=\"warn\" to inspect the full "
        f"report on .diagnostics)",
        report=analysis,
    )


# ----------------------------------------------------------------------
# The deployment handle
# ----------------------------------------------------------------------
class Deployment:
    """A deployed declarative network -- one object from source text to
    running distributed system, on either target.

    Thin, stable facade over :class:`~repro.runtime.cluster.Cluster`:
    data-plane verbs (``inject`` / ``update`` / ``delete``), observation
    (``watch`` / ``subscribe`` / ``rows`` / ``query_rows``), and
    lifecycle (``advance`` / ``quiescent``).  The underlying cluster
    stays reachable as ``.cluster`` for simulator-level control.
    The simulator's handle, and the base of the live one
    (:class:`~repro.runtime.live.LiveDeployment`).
    """

    def __init__(self, cluster, compiled: Optional[CompiledProgram] = None):
        self.cluster = cluster
        self.compiled = compiled if compiled is not None \
            else getattr(cluster, "compiled", None)

    # -- lifecycle ------------------------------------------------------
    def advance(self, until: Optional[float] = None) -> float:
        """Run the network until quiescence (or virtual time ``until``);
        returns the final virtual time."""
        return self.cluster.run(until=until)

    def run(self, until: Optional[float] = None) -> float:
        """Alias of :meth:`advance`."""
        return self.advance(until=until)

    def stop(self) -> None:
        """Tear down the deployment.  The simulator holds no external
        resources, so this is a no-op -- it exists so target-agnostic
        scripts can always call ``stop()`` (the live target's version
        closes sockets and cancels node tasks)."""

    @property
    def quiescent(self) -> bool:
        return self.cluster.quiescent

    @property
    def now(self) -> float:
        return self.cluster.clock.now

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at clock ``time`` (workload injection)."""
        self.cluster.clock.at(time, fn)

    # -- data plane -----------------------------------------------------
    def _op(self, verb: str, node: str, pred: str, args: Tuple) -> None:
        """The engine's ``insert`` / ``update`` / ``delete`` at ``node``."""
        getattr(self.cluster.node(node), verb)(pred, tuple(args))

    def inject(self, node: str, pred: str, args: Tuple) -> None:
        """Insert a base tuple at ``node`` (e.g. a magic seed fact)."""
        self._op("insert", node, pred, args)

    def update(self, node: str, pred: str, args: Tuple) -> None:
        """Update a base tuple at ``node``: a primary-key match commits
        as a deletion of the old row followed by this insertion."""
        self._op("update", node, pred, args)

    def delete(self, node: str, pred: str, args: Tuple) -> None:
        """Delete a base tuple at ``node`` outright."""
        self._op("delete", node, pred, args)

    # -- observation ----------------------------------------------------
    def _listen(self, listener) -> Callable[[], None]:
        return self.cluster.subscribe(listener)

    def watch(self, pred: str) -> ResultTracker:
        """Track completion times for ``pred``; returns the
        :class:`~repro.net.stats.ResultTracker`."""
        tracker = ResultTracker(watch_pred=pred)
        self._listen(tracker)
        return tracker

    def subscribe(
        self, pred: Optional[str], callback: Callable
    ) -> Callable[[], None]:
        """Call ``callback(time, fact, weight)`` on every weighted
        visibility transition of ``pred`` anywhere in the network
        (``pred=None`` observes every relation): ``+k`` derivations
        became visible, ``-k`` left.  Returns an unsubscribe
        callable."""
        if pred is None:
            on_commit = callback
        else:
            def on_commit(now: float, fact, weight: int) -> None:
                if fact.pred == pred:
                    callback(now, fact, weight)

        return self._listen(SimpleNamespace(on_commit=on_commit))

    def rows(self, pred: str, node: Optional[str] = None) -> frozenset:
        """Union of ``pred`` rows across nodes (or one node's rows)."""
        return self.cluster.rows(pred, node)

    def query_rows(self) -> frozenset:
        """Union of the query predicate's rows across all nodes."""
        return self.cluster.query_rows()

    # -- provenance -----------------------------------------------------
    @property
    def provenance(self):
        """The deployment's shared
        :class:`~repro.provenance.store.ProvenanceStore` (``None`` when
        capture is off)."""
        return self.cluster.provenance

    def why(self, pred: str, args: Tuple, max_depth: int = 128):
        """Derivation tree for ``pred(args)`` anywhere in the network:
        the lineage crosses nodes through the recorded firings (remote
        deltas piggyback their derivation ids on the wire).  Requires
        ``compile(..., provenance=True)``; returns ``None`` when the
        store holds no live support (then ask :meth:`why_not`)."""
        return self.cluster.why(pred, args, max_depth=max_depth)

    def why_not(self, pred: str, args: Tuple, depth: int = 2):
        """Failed-body analysis for the absent ``pred(args)`` against
        the pre-localization rule set and the union table state across
        nodes (``None`` entries are wildcards).  Works with or without
        provenance capture."""
        return self.cluster.why_not(pred, args, depth=depth)

    def audit(self, strict: Optional[bool] = None,
              exclude_nodes=()):
        """Cross-check every node's derivation counts against the
        provenance graph (see :func:`repro.provenance.audit_cluster`);
        call at quiescence."""
        return self.cluster.audit(strict=strict,
                                  exclude_nodes=exclude_nodes)

    # -- observability --------------------------------------------------
    @property
    def tracer(self):
        """The shared delta :class:`~repro.obs.Tracer` (``None`` when
        tracing is off)."""
        return self.cluster.tracer

    def metrics(self):
        """Point-in-time :class:`~repro.obs.MetricsSnapshot` of every
        counter the deployment exposes.  Requires
        ``deploy(..., metrics=True)``."""
        return self.cluster.metrics_snapshot()

    def metrics_text(self) -> str:
        """The snapshot in Prometheus text exposition format."""
        return self.cluster.metrics_text()

    def refresh_stats(self) -> None:
        """Feed live table sizes and commit churn into each node's
        :class:`~repro.opt.costbased.StatsCatalog`."""
        self.cluster.refresh_stats()

    def profile(self):
        """Merged per-(rule, strand) CPU :class:`~repro.obs.Profiler`
        across nodes.  Requires ``deploy(..., profile=True)``."""
        return self.cluster.profile_report()

    def save_trace(self, path: str) -> None:
        """Export recorded delta-propagation spans as Chrome
        trace-event JSON (``chrome://tracing`` / Perfetto).  Requires
        ``deploy(..., trace=True)``."""
        self.cluster.save_trace(path)

    # -- surfaces -------------------------------------------------------
    @property
    def overlay(self):
        return self.cluster.overlay

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def stats(self):
        return self.cluster.stats

    @property
    def nodes(self):
        return self.cluster.nodes

    @property
    def config(self):
        return self.cluster.config

    @property
    def program(self) -> Program:
        """The deployed (localized) program."""
        return self.cluster.program

    def explain(self, join_plans: bool = True, timings: bool = False,
                kernels: bool = False) -> str:
        if self.compiled is None:
            return format_program(self.cluster.program)
        return self.compiled.explain(join_plans=join_plans, timings=timings,
                                     kernels=kernels)

    def __repr__(self) -> str:
        return (
            f"Deployment({self.cluster.program.name!r}, "
            f"nodes={len(self.cluster.nodes)}, "
            f"quiescent={self.quiescent})"
        )
