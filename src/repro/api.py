"""One front door for the reproduction: a staged ``compile() ->
CompiledProgram -> run()/deploy()`` lifecycle.

The paper's system (P2) treats an NDlog program as a single artifact
that is parsed, rewritten, and then executed either centrally or
distributed.  This module exposes that lifecycle behind one surface:

* :func:`compile` parses (if needed), validates, and pushes the program
  through an explicit, introspectable **optimization-pass pipeline** --
  the program rewrites of Sections 3-5 (magic sets, aggregate
  selections, rule localization), one fixed table of named passes
  (:data:`PASSES`) that a caller picks and orders, with a before/after
  :class:`~repro.ndlog.ast.Program` snapshot recorded per pass.  Join
  order, the section's cost-based decision, is no pass: every engine
  plans it per strand (:func:`repro.engine.rules.compile_plan`);
* the returned :class:`CompiledProgram` is the compiled artifact:
  :meth:`~CompiledProgram.explain` pretty-prints the per-pass rule
  diffs and the final join plans, :meth:`~CompiledProgram.run`
  evaluates centrally on any of the four engines, and
  :meth:`~CompiledProgram.deploy` stands up a declarative network and
  returns it -- a :class:`~repro.runtime.cluster.Cluster` on the
  simulator, a :class:`~repro.runtime.live.LiveCluster` on wall time,
  one class per target -- with the live-system verbs: ``inject`` /
  ``update`` / ``delete`` / ``watch`` / ``subscribe`` / ``advance`` /
  ``query_rows``.

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
from functools import cached_property
from time import perf_counter
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

from repro.analysis.common import program_is_located
from repro.engine import bsn, naive, psn, seminaive
from repro.engine.database import Database, Schema, format_schemas, program_schemas
from repro.engine.fixpoint import EvalResult
from repro.engine.kernels import strand_kernel
from repro.engine.rules import (
    AssignStep,
    LiteralStep,
    StatsCatalog,
    shared_compiled_rules,
)
from repro.errors import (
    EvaluationError,
    NDlogValidationError,
    PlanError,
    ReproError,
    StaticAnalysisError,
)
from repro.ndlog.ast import Program
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
from repro.opt import aggsel
from repro.planner.localization import localize
from repro.planner.magic import magic_rewrite

__all__ = [
    "PASSES",
    "DEFAULT_PASSES",
    "PassSnapshot",
    "ENGINES",
    "compile",
    "CompiledProgram",
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
# The pass table
# ----------------------------------------------------------------------
#: Every compile pass by name, in canonical pipeline order: a function
#: from a program to the rewritten program.  ``magic`` rewrites for the
#: program's ``Query:`` clause (Section 5.1.2), ``aggsel`` prunes
#: through group-optimal views (Section 5.1.1), ``localize`` makes every
#: rule body single-site for distributed execution (Algorithm 2).  Join
#: order is not a pass: every engine plans it per strand
#: (:func:`repro.engine.rules.compile_plan`).
PASSES: Dict[str, Callable[[Program], Program]] = {
    "magic": magic_rewrite,
    "aggsel": aggsel.rewrite,
    "localize": localize,
}

#: The passes :func:`compile` runs when given no ``passes`` list.
DEFAULT_PASSES: Tuple[str, ...] = ("aggsel",)


def _check_passes(passes: Sequence[str]) -> Tuple[str, ...]:
    """``passes`` as a tuple of table names, or :class:`PlanError`
    naming the expected form."""
    expected = (f"a list of pass names from repro.PASSES "
                f"({', '.join(PASSES)})")
    if isinstance(passes, str):
        raise PlanError(
            f"passes must be {expected}, not the string {passes!r}")
    names = tuple(passes)
    for name in names:
        if not isinstance(name, str) or name not in PASSES:
            raise PlanError(
                f"unknown pass {name!r}; passes must be {expected}")
    return names


def _apply_pass(name: str, program: Program) -> Program:
    """Run one pass with taxonomy-enforcing error wrapping: anything
    that escapes is a :class:`PlanError` carrying the pass name."""
    try:
        return PASSES[name](program)
    except ReproError as exc:
        raise PlanError(str(exc), pass_name=name) from exc
    except Exception as exc:  # bare ValueError/KeyError/TypeError etc.
        raise PlanError(
            f"{type(exc).__name__}: {exc}", pass_name=name
        ) from exc


# ----------------------------------------------------------------------
# Snapshots and the compiled artifact
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PassSnapshot:
    """Before/after record of one pass application."""

    name: str
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
        provenance: bool = False,
        lint: str = "warn",
    ):
        self.source = source
        self.program = program
        self.trace = tuple(trace)
        self.report = report
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

    @cached_property
    def schemas(self) -> Dict[str, Schema]:
        """pred -> :class:`~repro.engine.database.Schema` of the
        rewritten program: derived on first read and kept, so every
        node of a deployment builds its tables from this one dict."""
        return program_schemas(self.program)

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
            lines.append(
                f"validation: ok "
                f"({len(self.report.local_rules)} local rules, "
                f"{len(self.report.link_restricted_rules)} link-restricted)"
            )
        for snap in self.trace:
            header = f"-- pass {snap.name}"
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
        lines.append("-- schemas --")
        lines.append(format_schemas(self.schemas))
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
    def extended(self, passes: Sequence[str]) -> "CompiledProgram":
        """A new artifact with further passes applied on top of this
        one's result (the trace is carried forward and extended).  Every
        name is checked before the first pass runs."""
        trace = list(self.trace)
        current = self.program
        for name in _check_passes(passes):
            before = current
            started = perf_counter()
            current = _apply_pass(name, before)
            trace.append(PassSnapshot(name, before, current,
                                      elapsed=perf_counter() - started))
        return CompiledProgram(
            source=self.source,
            program=current,
            trace=tuple(trace),
            report=self.report,
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
    ):
        """Stand up the program as a distributed declarative network and
        return it.

        ``topology`` is an :class:`~repro.topology.overlay.Overlay`
        (default: a transit-stub overlay built from ``n_nodes`` /
        ``degree`` / ``seed``); ``config`` a
        :class:`~repro.runtime.config.RuntimeConfig`; ``link_loads``
        maps link relations to overlay metrics (default
        ``{"link": metric}``).  Localization is applied automatically
        if it has not run yet.

        ``target`` selects the execution substrate: ``"sim"`` (the
        default) returns a :class:`~repro.runtime.cluster.Cluster` over
        the deterministic virtual-time simulator (the network is *not*
        run; call :meth:`~repro.runtime.cluster.Cluster.advance`);
        ``"live"`` returns a :class:`~repro.runtime.live.LiveCluster`
        that runs each node as an asyncio task on wall-clock time,
        exchanging deltas over ``channels`` -- in-process asyncio
        queues (``"inproc"``) or real UDP datagram sockets on ``host``
        (``"udp"``).  Drive it with ``await start()`` / ``await
        quiescent()`` / ``await stop()``, or synchronously with
        ``converge()``; verbs called before ``start()`` run at once and
        only the timers they schedule wait for it.

        ``chaos`` attaches a fault-injection plan
        (:class:`repro.chaos.ChaosSchedule`) and ``reliable=True`` ships
        deltas over the ack/retransmit transport -- both are shorthand
        for the corresponding :class:`RuntimeConfig` fields and work on
        every target.

        Observability (:mod:`repro.obs`, also config shorthand, any
        target): ``metrics=True`` collects the per-(node, rule,
        relation) registry behind ``metrics()`` / ``metrics_text()``;
        ``trace=True`` records causally-linked delta-propagation spans
        exported by ``save_trace(path)``; ``profile=True`` accumulates
        per-rule/per-strand CPU time for ``profile()``.
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
            from repro.runtime.live import LiveCluster

            return LiveCluster(
                topology, compiled, config, link_loads=link_loads,
                channels=channels, host=host,
            )
        if target != "sim":
            raise PlanError(
                f"unknown deploy target {target!r}; pick 'sim' or 'live'"
            )
        return Cluster(topology, compiled, config, link_loads=link_loads)


# ----------------------------------------------------------------------
# compile()
# ----------------------------------------------------------------------
def compile(
    source_or_program: Union[str, Program, CompiledProgram],
    passes: Optional[Sequence[str]] = None,
    *,
    validate: bool = True,
    name: Optional[str] = None,
    provenance: Optional[bool] = None,
    lint: Optional[str] = None,
) -> CompiledProgram:
    """Compile NDlog source (or a parsed :class:`Program`) into a
    :class:`CompiledProgram`.

    ``passes`` selects and orders the optimization passes: a list of
    names from :data:`PASSES` (anything else raises
    :class:`PlanError`).  ``None`` runs :data:`DEFAULT_PASSES`; ``[]``
    runs no passes.  A program that fails
    validation raises :class:`NDlogValidationError`; ``validate=False``
    skips validation entirely (``repro.ndlog.validate`` returns the
    report without raising).  Programs with no ``@`` location
    specifiers anywhere are recognized as plain Datalog and validated
    without the NDlog distributed constraints (rule safety, arities,
    aggregate placement and ground facts still apply; deploying one
    still fails in ``localize``).

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
    :meth:`CompiledProgram.extended`) and ``passes=None`` returns the
    artifact unchanged -- the default pipeline never runs twice.
    ``validate`` and ``name`` do not apply to an already-compiled
    artifact (its source was validated when it was first compiled).
    """
    if isinstance(source_or_program, CompiledProgram):
        # Re-compiling an artifact composes with what already ran: the
        # trace is carried forward and only the explicitly requested
        # passes are appended (running the *default* pipeline again on
        # an already-rewritten program would double-apply rewrites).
        # An explicit provenance or lint setting yields a derived
        # artifact; the input is never mutated.
        artifact = source_or_program
        if passes is None and provenance in (None, artifact.provenance) \
                and lint in (None, artifact.lint):
            return artifact
        artifact = artifact.extended(passes or ())
        if provenance is not None:
            artifact.provenance = provenance
        if lint is not None:
            artifact.lint = _check_lint_mode(lint)
        _enforce_lint(artifact)
        return artifact
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
            program, distributed=program_is_located(program)
        )
        if not report.ok:
            raise NDlogValidationError(
                f"program {program.name or '<anonymous>'!r} failed "
                f"validation: " + "; ".join(report.errors)
                + " (pass validate=False to compile anyway)"
            )

    artifact = CompiledProgram(
        source=program,
        program=program,
        trace=(),
        report=report,
        provenance=bool(provenance),
        lint=lint,
    ).extended(DEFAULT_PASSES if passes is None else passes)
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
