"""vidb.analysis — constraint-aware static analysis for query programs.

A lint layer over the rule language: rules whose constraint bodies can
never be satisfied (decided by the dense-order and set-order solvers),
redundant constraint atoms, singleton variables, cartesian products,
unreachable predicates, and the hard safety/stratification errors —
all reported as structured :class:`Diagnostic` values with stable
``VDB0xx`` codes and source spans instead of bare exceptions.

Entry points:

* :func:`analyze` — pure program/query analysis.
* :class:`ProgramAnalyzer` — program-level findings cached per
  fingerprint (the query engine embeds one).
* :func:`lint_text` / :func:`lint_file` — document-level linting used
  by ``vidb lint`` and the service ``lint`` op.
"""

from vidb.analysis.analyzer import ProgramAnalyzer, analyze
from vidb.analysis.checks import (
    AnalysisContext,
    check_streaming_safety,
    reachable_predicates,
)
from vidb.analysis.cost import CostReport, Stats, estimate_program
from vidb.analysis.dataflow import (
    DataflowResult,
    Interval,
    PredicateSummary,
    analyze_dataflow,
)
from vidb.analysis.diagnostics import (
    CODES,
    AnalysisResult,
    Diagnostic,
    ERROR,
    INFO,
    WARNING,
    make,
)
from vidb.analysis.fix import (
    FixOutcome,
    fix_file,
    fix_text,
    verify_equivalent,
)
from vidb.analysis.lint import exit_code, lint_file, lint_text, summarize

__all__ = [
    "AnalysisContext",
    "AnalysisResult",
    "CODES",
    "CostReport",
    "DataflowResult",
    "Diagnostic",
    "ERROR",
    "FixOutcome",
    "INFO",
    "Interval",
    "PredicateSummary",
    "ProgramAnalyzer",
    "Stats",
    "WARNING",
    "analyze",
    "analyze_dataflow",
    "check_streaming_safety",
    "estimate_program",
    "exit_code",
    "fix_text",
    "fix_file",
    "lint_file",
    "lint_text",
    "make",
    "reachable_predicates",
    "summarize",
    "verify_equivalent",
]
