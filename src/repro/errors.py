"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing parse-time, validation-time, and run-time problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class NDlogSyntaxError(ReproError):
    """Raised by the lexer/parser on malformed NDlog source.

    Carries the source line and column to make errors actionable.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class NDlogValidationError(ReproError):
    """Raised when a syntactically valid program violates NDlog's
    semantic constraints (Definitions 1-6 of the paper): location
    specificity, address type safety, stored link relations, or
    link-restriction."""


class SchemaError(ReproError):
    """Raised on inconsistent relation schemas (arity mismatches,
    unknown predicates, bad primary-key declarations)."""


class EvaluationError(ReproError):
    """Raised during query evaluation (unbound variables reaching a
    function call, non-boolean conditions, unknown builtin functions).

    ``engine`` and ``rule`` identify, when known, which engine raised
    and which rule (by label) was firing; both are attached to the
    message and kept as attributes for programmatic handling.
    """

    def __init__(self, message: str, engine: str = None, rule: str = None):
        self.engine = engine
        self.rule = rule
        self.raw_message = message
        context = []
        if engine:
            context.append(f"engine {engine!r}")
        if rule:
            context.append(f"rule {rule!r}")
        if context:
            message = f"[{', '.join(context)}] {message}"
        super().__init__(message)


class PlanError(ReproError):
    """Raised during plan generation (localization, magic-sets, or
    strand compilation) when a program cannot be compiled, and by
    ``compile()`` when ``passes`` is not a list of names from
    ``repro.PASSES``.

    ``pass_name`` identifies, when known, which optimization pass of
    the compile pipeline failed; it is attached to the message and kept
    as an attribute for programmatic handling.
    """

    def __init__(self, message: str, pass_name: str = None):
        self.pass_name = pass_name
        if pass_name:
            message = f"[pass {pass_name!r}] {message}"
        super().__init__(message)


class NetworkError(ReproError):
    """Raised by the network layer on misuse (sending along a
    non-existent link, invalid chaos schedules) and on malformed wire
    data: ``decode_message`` converts any decode failure to this type,
    so live receive paths absorb garbage datagrams with one
    taxonomy-stable except clause instead of dying on a bare
    ``KeyError``/``JSONDecodeError``."""


class StaticAnalysisError(ReproError):
    """Raised by ``compile(..., lint="error")`` when the ndlint
    analyses find diagnostics at warning severity or above.

    ``report`` carries the full
    :class:`~repro.analysis.diagnostics.AnalysisReport` so callers can
    inspect every finding, not just the ones quoted in the message.
    """

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)
