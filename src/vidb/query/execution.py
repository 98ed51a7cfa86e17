"""The unified execution API: options in, report out.

Every way of running a query — :meth:`QueryEngine.execute`, the legacy
:meth:`QueryEngine.query`/:meth:`~QueryEngine.ask` aliases, the service
session's :meth:`~vidb.service.session.Session.run`, the JSON-lines
server's ``query`` op and the CLI — spells its knobs through one
:class:`ExecutionOptions` value and gets one :class:`ExecutionReport`
back: answers + statistics + (optionally) the span trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from vidb.errors import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from vidb.analysis.cost import CostReport
    from vidb.analysis.diagnostics import Diagnostic
    from vidb.obs.trace import Span
    from vidb.query.engine import AnswerSet
    from vidb.query.fixpoint import EvaluationStats

#: Evaluation modes an options object may select (None = engine default).
_MODES = (None, "seminaive", "naive")


@dataclass(frozen=True)
class ExecutionOptions:
    """How one query should run.

    ``None`` fields defer to the engine's (or service's) own defaults, so
    an empty options object reproduces the legacy behaviour exactly.

    timeout_s:
        Cooperative deadline in seconds: the fixpoint checks it at every
        iteration boundary and raises
        :class:`~vidb.errors.QueryTimeoutError` when exceeded.
    trace:
        Collect a span tree + hot-path aggregates; enables
        :meth:`ExecutionReport.profile`.
    mode:
        ``"seminaive"`` / ``"naive"`` override of the engine's mode.
    prune_rules:
        Per-query override of the engine's rule-pruning toggle.
    provenance:
        Optional dict filled with ``fact -> (rule, binding)`` for
        ``explain()``-style derivation trees.
    analyze:
        Per-query override of the engine's prepare-time static analysis
        (``None`` = engine default, which is on).  When on, analyzer
        warnings are attached to the report as ``diagnostics`` and
        blocking errors raise before the fixpoint runs.
    kernel:
        Per-query constraint kernel backend name (``"interned"``,
        ``"reference"``, or any registered backend; ``None`` = the
        engine's kernel).  The name is resolved against the registry when
        the query runs, so an unknown name fails at execution, not here.
    """

    timeout_s: Optional[float] = None
    trace: bool = False
    mode: Optional[str] = None
    prune_rules: Optional[bool] = None
    provenance: Optional[Dict] = None
    analyze: Optional[bool] = None
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise EvaluationError(
                f"mode must be 'seminaive', 'naive' or None, got {self.mode!r}")
        if self.timeout_s is not None and self.timeout_s < 0:
            raise EvaluationError(
                f"timeout_s must be non-negative, got {self.timeout_s!r}")
        if self.kernel is not None and not isinstance(self.kernel, str):
            raise EvaluationError(
                f"kernel must be a backend name or None, got {self.kernel!r}")

    def merged(self, **overrides: Any) -> "ExecutionOptions":
        """A copy with the given fields replaced."""
        return replace(self, **overrides) if overrides else self

    @classmethod
    def coerce(cls, options: Optional["ExecutionOptions"] = None,
               **overrides: Any) -> "ExecutionOptions":
        """Normalise the ``(options, **kwargs)`` calling convention."""
        if options is None:
            return cls(**overrides)
        if not isinstance(options, ExecutionOptions):
            raise EvaluationError(
                f"options must be ExecutionOptions, got {type(options).__name__}")
        return options.merged(**overrides)


class StageTimer:
    """Times one pipeline stage into a dict *and* opens a tracer span.

    The dict is what ``stats.stages`` (and the profile's stage table) is
    built from; the span gives the same stage its node in the trace tree.
    Stage times accumulate, so re-entering a name adds to it.
    """

    __slots__ = ("_stages", "_name", "_span", "_t0")

    def __init__(self, stages: Dict[str, float], tracer, name: str):
        self._stages = stages
        self._name = name
        self._span = tracer.span(name)

    def __enter__(self):
        self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._t0
        self._stages[self._name] = self._stages.get(self._name, 0.0) + elapsed
        self._span.__exit__(*exc)
        return False


@dataclass
class ExecutionReport:
    """Everything one execution produced.

    ``answers`` is the same :class:`~vidb.query.engine.AnswerSet` the
    legacy ``query()`` path returns; ``stats`` carries the counters,
    per-stage and per-rule timings; ``trace``/``aggregates`` are filled
    only when the run was traced; ``cached`` marks service cache hits
    (whose ``stats`` describe the original computation).
    """

    answers: "AnswerSet"
    stats: "EvaluationStats"
    options: ExecutionOptions
    trace: Optional["Span"] = None
    aggregates: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cached: bool = False
    #: Static-analysis findings from prepare time (warnings/infos only:
    #: errors raise instead of producing a report).
    diagnostics: Tuple["Diagnostic", ...] = ()
    #: Cost/cardinality estimates from prepare time (None when analysis
    #: or estimation was off); rendered as the profile's cost section.
    cost: Optional["CostReport"] = None
    #: Rendered interval-dataflow bounds relevant to this query.
    bounds: Tuple[str, ...] = ()
    #: Traced runs only: the adorned goals, then per rule the join order
    #: that ran and where each constraint atom was checked.
    demand: Tuple[str, ...] = ()

    @property
    def elapsed_s(self) -> float:
        return self.stats.elapsed_s

    def profile(self) -> str:
        """The ``EXPLAIN ANALYZE``-style profile text."""
        from vidb.obs.profile import format_profile

        return format_profile(self)

    def as_dict(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """A JSON-serializable summary (values rendered as strings)."""
        rows = [[str(value) for value in row] for row in self.answers.rows()]
        if limit is not None:
            rows = rows[:limit]
        out: Dict[str, Any] = {
            "variables": list(self.answers.variables),
            "rows": rows,
            "count": len(self.answers),
            "elapsed_s": round(self.elapsed_s, 6),
            "cached": self.cached,
            "stats": self.stats.as_dict(),
        }
        if self.diagnostics:
            out["diagnostics"] = [d.as_dict() for d in self.diagnostics]
        if self.cost is not None and self.cost.costs:
            out["cost"] = [
                {"label": c.label, "estimate": round(c.estimate, 2),
                 "peak": round(c.peak, 2), "blowup": round(c.blowup, 2)}
                for c in self.cost.costs
            ]
        if self.bounds:
            out["bounds"] = list(self.bounds)
        if self.trace is not None:
            out["trace"] = self.trace.as_dict()
        if self.aggregates:
            out["aggregates"] = {
                name: {"count": int(agg.get("count", 0)),
                       "seconds": round(agg.get("seconds", 0.0), 6)}
                for name, agg in self.aggregates.items()
            }
        return out

    def __repr__(self) -> str:
        return (f"ExecutionReport({len(self.answers)} answers, "
                f"{self.elapsed_s:.6f}s, cached={self.cached}, "
                f"traced={self.trace is not None})")
