"""``python -m repro.lint`` -- the ndlint command-line front end.

Targets may be:

* a path to an ``.ndlog`` source file;
* a path to a ``.py`` file -- every string constant in it that parses
  as an NDlog program (contains a rule) is linted, so example scripts
  with inline ``SOURCE`` blocks are covered;
* the name of a builtin program from :mod:`repro.ndlog.programs`
  (e.g. ``shortest_path``);
* ``--all``: every builtin program plus every program embedded in
  ``examples/*.py``.

By default each program is first compiled through the default pass
pipeline (so aggregate-selection views are in place, exactly as they
would be on deploy) and the *rewritten* form is analyzed; ``--raw``
lints the source program as written.

Exit status: 0 when no finding reaches warning severity, 1 when the
worst finding is a warning, 2 on errors (including targets that do
not parse or fail validation) -- so the CLI doubles as a CI gate.
"""

from __future__ import annotations

import argparse
import ast as python_ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.analysis import ANALYSES, AnalysisReport, analyze, severity_rank
from repro.errors import ReproError
from repro.ndlog import programs
from repro.ndlog.parser import parse
from repro.ndlog.pretty import format_analysis_report

#: Builtin program builders, by CLI name.
BUILTINS = {
    name: getattr(programs, name)
    for name in sorted(dir(programs))
    if not name.startswith("_")
    and name.islower()
    and callable(getattr(programs, name))
    and name not in ("parse",)
    and getattr(programs, name).__module__ == programs.__name__
}


def extract_ndlog_sources(path: Path) -> Iterator[Tuple[str, str]]:
    """Yield ``(name, source)`` for every string constant in a Python
    file that parses as an NDlog program with at least one rule."""
    try:
        tree = python_ast.parse(path.read_text())
    except SyntaxError:
        return
    for node in python_ast.walk(tree):
        if not (isinstance(node, python_ast.Constant)
                and isinstance(node.value, str)):
            continue
        text = node.value
        if ":-" not in text:
            continue
        try:
            program = parse(text)
        except ReproError:
            continue
        if program.rules:
            yield f"{path.stem}:{node.lineno}", text


def _collect(targets: List[str], all_programs: bool,
             examples_dir: Optional[Path]) -> List[Tuple[str, object]]:
    """Resolve CLI targets to ``(name, program_or_source)`` pairs."""
    out: List[Tuple[str, object]] = []
    if all_programs:
        for name, builder in BUILTINS.items():
            out.append((name, builder()))
        if examples_dir and examples_dir.is_dir():
            for path in sorted(examples_dir.glob("*.py")):
                out.extend(extract_ndlog_sources(path))
    for target in targets:
        path = Path(target)
        if path.suffix == ".py" and path.is_file():
            found = list(extract_ndlog_sources(path))
            if not found:
                raise SystemExit(
                    f"lint: no NDlog programs found in {target}")
            out.extend(found)
        elif path.is_file():
            out.append((path.stem, path.read_text()))
        elif target in BUILTINS:
            out.append((target, BUILTINS[target]()))
        else:
            raise SystemExit(
                f"lint: {target!r} is neither a file nor a builtin "
                f"program; builtins: {', '.join(BUILTINS)}"
            )
    return out


def lint_one(name: str, target, passes=None,
             raw: bool = False) -> AnalysisReport:
    """Lint one program: compile through the default pipeline (unless
    ``raw``) and analyze the rewritten form."""
    if raw:
        return analyze(target, passes=passes, name=name)
    from repro import api

    artifact = api.compile(target, name=name, lint="off")
    return analyze(artifact, passes=passes, name=name)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="ndlint: static analysis for NDlog programs",
    )
    parser.add_argument("targets", nargs="*",
                        help=".ndlog file, .py file, or builtin name")
    parser.add_argument("--all", action="store_true", dest="all_programs",
                        help="lint every builtin program and examples/")
    parser.add_argument("--passes",
                        help="comma-separated analysis subset "
                             f"(available: {', '.join(ANALYSES)})")
    parser.add_argument("--severity", default="info",
                        choices=("info", "warning", "error"),
                        help="only show findings at or above this level")
    parser.add_argument("--raw", action="store_true",
                        help="lint the program as written (skip the "
                             "default compile pipeline)")
    parser.add_argument("--verbose", action="store_true",
                        help="include rule source spans in findings")
    parser.add_argument("--examples-dir", default="examples",
                        help=argparse.SUPPRESS)
    options = parser.parse_args(argv)
    if not options.targets and not options.all_programs:
        parser.error("no targets given (or use --all)")
    passes = options.passes.split(",") if options.passes else None

    try:
        resolved = _collect(options.targets, options.all_programs,
                            Path(options.examples_dir))
    except ReproError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    worst = -1
    for name, target in resolved:
        try:
            report = lint_one(name, target, passes=passes, raw=options.raw)
        except ReproError as exc:
            print(f"{name}: failed to compile: {exc}", file=sys.stderr)
            worst = max(worst, severity_rank("error"))
            continue
        shown = report.at_least(options.severity)
        if report.diagnostics:
            worst = max(worst,
                        severity_rank(report.max_severity))
        if shown or not report.diagnostics:
            filtered = AnalysisReport(
                program_name=report.program_name or name,
                diagnostics=shown,
                summaries=report.summaries,
                analyses=report.analyses,
            )
            print(format_analysis_report(filtered,
                                         verbose=options.verbose))
            print()

    if worst >= severity_rank("error"):
        return 2
    if worst >= severity_rank("warning"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
