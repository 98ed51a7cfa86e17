"""Structured diagnostics for the static analyzer.

Every finding the analyzer emits is a :class:`Diagnostic` with a stable
``VDB0xx`` code, a severity, a human-readable message and (when the AST
came from the parser) a source span.  Codes are grouped:

* ``VDB00x`` — hard errors: syntax, safety, stratification, unknown
  predicates.  These would make evaluation fail (or be rejected), so the
  engine short-circuits on them before the fixpoint.
* ``VDB02x`` — constraint-level findings decided by the dense-order and
  set-order solvers: dead rules, statically-false entailments, redundant
  atoms.
* ``VDB03x`` — structural lints: singleton variables, cartesian
  products, unreachable predicates.
* ``VDB04x`` — whole-program findings: interval-dataflow results
  (provably-empty predicates, inter-rule contradictions, narrowed-bound
  annotations) and cost/cardinality advisories estimated from database
  statistics.
* ``VDB06x`` — streaming-safety findings for standing queries, checked
  at ``subscribe`` time: non-monotone operators (rejected), unbounded
  answer-set growth, deletion-sensitive joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from typing import TYPE_CHECKING

from vidb.query.ast import SourceSpan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from vidb.analysis.dataflow import DataflowResult

#: Severities, ordered from worst to mildest.
ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}

#: code -> (default severity, short title).  ``docs/ANALYSIS.md`` tables
#: every code with its severity; a unit test keeps the two equal.
CODES: Dict[str, Tuple[str, str]] = {
    "VDB001": (ERROR, "syntax error"),
    "VDB002": (ERROR, "rule or query is not range-restricted"),
    "VDB003": (ERROR, "rule head redefines a reserved or database predicate"),
    "VDB004": (ERROR, "predicate defined with inconsistent arities"),
    "VDB005": (ERROR, "program is not stratifiable"),
    "VDB006": (ERROR, "reference to an undefined predicate"),
    "VDB007": (WARNING, "predicate used with unexpected arity"),
    "VDB020": (WARNING, "dead rule: dense-order constraints are unsatisfiable"),
    "VDB021": (WARNING, "dead rule: set-order constraints are unsatisfiable"),
    "VDB022": (WARNING, "entailment atom is statically false"),
    "VDB023": (WARNING, "redundant constraint atom"),
    "VDB024": (INFO, "inline constraint is unsatisfiable"),
    "VDB030": (WARNING, "singleton variable"),
    "VDB031": (WARNING, "cartesian product between body literals"),
    "VDB032": (WARNING, "predicate is unreachable from the query"),
    "VDB040": (WARNING, "derived predicate is provably empty"),
    "VDB041": (WARNING, "inter-rule contradiction: producer bounds are "
                        "incompatible with this body"),
    "VDB042": (WARNING, "estimated cartesian blowup in join"),
    "VDB044": (INFO, "narrowed bounds inferred for derived predicate"),
    "VDB060": (ERROR, "standing query uses a non-monotone operator"),
    "VDB061": (WARNING, "standing query answer set can grow without bound"),
    "VDB062": (INFO, "standing query join is deletion-sensitive"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: str
    message: str
    span: Optional[SourceSpan] = None
    rule_index: Optional[int] = None
    rule_name: Optional[str] = None
    predicate: Optional[str] = None

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def as_dict(self) -> dict:
        out: dict = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.span is not None:
            out["span"] = self.span.as_dict()
        if self.rule_index is not None:
            out["rule_index"] = self.rule_index
        if self.rule_name is not None:
            out["rule_name"] = self.rule_name
        if self.predicate is not None:
            out["predicate"] = self.predicate
        return out

    def render(self, path: Optional[str] = None) -> str:
        """``file:line:col: severity[code] message`` (parts optional)."""
        location = path or ""
        if self.span is not None:
            location += f":{self.span.line}:{self.span.column}"
        prefix = f"{location}: " if location else ""
        return f"{prefix}{self.severity}[{self.code}] {self.message}"

    def __str__(self) -> str:
        return self.render()


def make(code: str, message: str, *, span: Optional[SourceSpan] = None,
         severity: Optional[str] = None, rule_index: Optional[int] = None,
         rule_name: Optional[str] = None,
         predicate: Optional[str] = None) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the code registry."""
    if code not in CODES:
        raise ValueError(f"unknown diagnostic code {code!r}")
    if severity is None:
        severity = CODES[code][0]
    if severity not in _SEVERITY_ORDER:
        raise ValueError(f"unknown severity {severity!r}")
    return Diagnostic(code=code, severity=severity, message=message,
                      span=span, rule_index=rule_index, rule_name=rule_name,
                      predicate=predicate)


def _sort_key(diagnostic: Diagnostic):
    span = diagnostic.span
    position = (span.line, span.column) if span is not None else (1 << 30, 0)
    return (position, _SEVERITY_ORDER[diagnostic.severity], diagnostic.code,
            diagnostic.message)


@dataclass(frozen=True)
class AnalysisResult:
    """The diagnostics of one analysis run, plus reachability context.

    ``reachable`` is the set of predicates the analyzed query (or queries)
    can touch, when a query was part of the run — the engine uses it to
    decide which errors actually block execution under rule pruning.
    """

    diagnostics: Tuple[Diagnostic, ...] = ()
    reachable: Optional[FrozenSet[str]] = field(default=None, compare=False)
    #: Whole-program interval dataflow (summaries + per-rule flows), when
    #: the dataflow pass ran; consumed by EXPLAIN profiles and ``--fix``.
    dataflow: Optional["DataflowResult"] = field(default=None, compare=False)
    #: One streaming-safety classification dict per analyzed query
    #: (maintenance strategy / deletion sensitivity / growth), filled only
    #: when the run's streaming pass was on; consumed by subscriptions.
    streaming: Tuple[Dict[str, Any], ...] = field(default=(), compare=False)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    @property
    def infos(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == INFO)

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    def codes(self) -> FrozenSet[str]:
        return frozenset(d.code for d in self.diagnostics)

    def extend(self, extra: Iterable[Diagnostic]) -> "AnalysisResult":
        merged = list(self.diagnostics)
        seen = set(merged)
        for diagnostic in extra:
            if diagnostic not in seen:
                seen.add(diagnostic)
                merged.append(diagnostic)
        return AnalysisResult(tuple(sorted(merged, key=_sort_key)),
                              reachable=self.reachable,
                              dataflow=self.dataflow,
                              streaming=self.streaming)

    def as_dicts(self) -> List[dict]:
        return [d.as_dict() for d in self.diagnostics]

    def render(self, path: Optional[str] = None) -> List[str]:
        return [d.render(path) for d in self.diagnostics]


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> Tuple[Diagnostic, ...]:
    """Source order, then severity, then code — the stable output order."""
    return tuple(sorted(diagnostics, key=_sort_key))
