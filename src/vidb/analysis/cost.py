"""Cost and cardinality estimation for rule bodies (VDB042).

A classic System-R-flavoured estimator over the rule language, walking
each body in the order the join planner runs it
(:func:`~vidb.query.fixpoint._reorder_literals`, fed these estimates):
every body literal contributes its relation's row count (from live
database statistics), a join on an already-bound variable — or a class
literal generated from a bound membership collection — keeps the
running cardinality flat (foreign-key assumption: distinct count =
relation size), and a literal sharing *no* variable with what came
before multiplies — the cartesian blowup this pass exists to flag.
Derived predicates are sized bottom-up through the dependency graph
with a few rounds of iteration so recursive programs converge to a
(capped) fixed point.

The numbers are advisories, not guarantees: they drive the VDB042
cartesian-blowup warning and the ``-- cost --`` section of EXPLAIN
profiles.  Estimation runs only
when statistics are supplied (``vidb lint --database``, or the engine's
prepare path, which snapshots them per epoch), so plain file lints are
unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from vidb.analysis.diagnostics import Diagnostic, make
from vidb.query.ast import (
    CLASS_PREDICATES,
    BodyItem,
    Literal,
    Program,
    Query,
    SourceSpan,
    Variable,
    term_variables,
)
from vidb.query.fixpoint import _reorder_literals

#: Cardinality assumed for predicates the statistics know nothing about
#: (service-declared stream relations before their first fact, etc.).
DEFAULT_SIZE = 32.0

#: Selectivity of a constraint atom / computed predicate / negation.
FILTER_SELECTIVITY = 0.5

#: Estimates are capped here so recursive programs cannot overflow.
SIZE_CAP = 1e12

#: VDB042 fires when the estimated peak intermediate reaches this many
#: rows *and* exceeds the largest single input by ``BLOWUP_FACTOR``.
BLOWUP_ROWS = 1000.0
BLOWUP_FACTOR = 8.0

_SIZING_ROUNDS = 4


@dataclass(frozen=True)
class Stats:
    """A cardinality snapshot of one database."""

    relations: Mapping[str, int] = field(default_factory=dict)
    entities: int = 0
    intervals: int = 0

    @staticmethod
    def from_database(db) -> "Stats":
        relations = {name: len(db.relation(name))
                     for name in db.relation_names()}
        return Stats(relations=relations,
                     entities=len(db.relation("object")),
                     intervals=len(db.relation("interval")))

    def size_of(self, predicate: str) -> Optional[float]:
        """Base size of an EDB/class predicate, or None when unknown."""
        if predicate == "interval":
            return float(self.intervals)
        if predicate in CLASS_PREDICATES:
            return float(self.entities)
        if predicate in self.relations:
            return float(self.relations[predicate])
        return None


@dataclass(frozen=True)
class RuleCost:
    """The estimate for one rule body (or the query body)."""

    label: str
    rule_index: Optional[int]
    span: Optional[SourceSpan]
    estimate: float
    peak: float
    largest_input: float
    rule_name: Optional[str] = None
    predicate: Optional[str] = None

    @property
    def blowup(self) -> float:
        return self.peak / max(self.largest_input, 1.0)


@dataclass(frozen=True)
class CostReport:
    """Per-rule cost estimates plus derived-predicate sizes."""

    costs: Tuple[RuleCost, ...] = ()
    sizes: Mapping[str, float] = field(default_factory=dict)

    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        out: List[Diagnostic] = []
        for cost in self.costs:
            if cost.peak >= BLOWUP_ROWS and cost.blowup >= BLOWUP_FACTOR:
                out.append(make(
                    "VDB042",
                    f"{cost.label}: estimated peak intermediate of "
                    f"~{_fmt(cost.peak)} rows is {_fmt(cost.blowup)}x the "
                    f"largest input ({_fmt(cost.largest_input)} rows); "
                    "a join is close to a cartesian product",
                    span=cost.span, rule_index=cost.rule_index,
                    rule_name=cost.rule_name, predicate=cost.predicate))
        return tuple(out)

    def located(self, span: Optional[SourceSpan]) -> "CostReport":
        """This report with its last row — the query body's — at
        *span*."""
        if not self.costs:
            return self
        *rules, query = self.costs
        return CostReport((*rules, RuleCost(
            query.label, query.rule_index, span, query.estimate, query.peak,
            query.largest_input, query.rule_name, query.predicate)),
            self.sizes)

    def rows(self) -> List[Tuple[str, str, str, str]]:
        """``(label, est, peak, blowup)`` rows for the profile."""
        return [(cost.label, _fmt(cost.estimate), _fmt(cost.peak),
                 f"{cost.blowup:.1f}x") for cost in self.costs]


def _fmt(value: float) -> str:
    if value != value or value >= SIZE_CAP:  # NaN guard / cap
        return "inf"
    if value >= 1000:
        return f"{value:.3g}"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def _body_shape(body) -> Tuple[List[Literal], List[BodyItem]]:
    """Positive literals, and the filter items the planner schedules
    around them (constraint atoms and negations)."""
    positives: List[Literal] = []
    filters: List[BodyItem] = []
    for item in body:
        if isinstance(item, Literal):
            positives.append(item)
        else:
            filters.append(item)
    return positives, filters


class _Estimator:
    def __init__(self, stats: Stats, computed: frozenset,
                 sizes: Dict[str, float]):
        self.stats = stats
        self.computed = computed
        self.sizes = sizes

    def size_of(self, predicate: str) -> Optional[float]:
        if predicate in self.computed:
            return None  # filter, not a generator
        if predicate in self.sizes:
            return min(self.sizes[predicate], SIZE_CAP)
        base = self.stats.size_of(predicate)
        if base is None:
            return DEFAULT_SIZE
        return base

    def _planner_size(self, predicate: str) -> float:
        size = self.size_of(predicate)
        return -1 if size is None else size

    def estimate_body(self, body) -> Tuple[float, float, float]:
        """``(final rows, peak rows, largest input)`` of *body* joined in
        the order the planner runs it."""
        positives, filters = _body_shape(body)
        order, generators = _reorder_literals(
            positives, self._planner_size, filters)
        rows = 1.0
        peak = 1.0
        largest = 0.0
        bound: Set[Variable] = set()
        for index, literal in enumerate(order):
            size = self.size_of(literal.predicate)
            if size is None:  # computed predicate: pure filter
                rows *= FILTER_SELECTIVITY
                continue
            largest = max(largest, size)
            if index in generators:
                bound |= term_variables(generators[index].element)
            variables = literal.variables()
            joins = len(variables & bound) + sum(
                1 for arg in literal.args if not isinstance(arg, Variable))
            rows *= size / max(size, 1.0) ** min(joins, 2)
            rows = min(rows, SIZE_CAP)
            peak = max(peak, rows)
            bound |= variables
        rows *= FILTER_SELECTIVITY ** len(filters)
        return rows, peak, largest


def size_program(program: Program, stats: Stats, *,
                 computed: Sequence[str] = ()) -> Dict[str, float]:
    """Derived-predicate sizes, bottom-up through the dependency graph
    (a few rounds, capped, so recursive programs settle)."""
    derived = program.idb_predicates() - CLASS_PREDICATES
    sizes: Dict[str, float] = {name: 0.0 for name in derived}
    estimator = _Estimator(stats, frozenset(computed), sizes)
    for _ in range(_SIZING_ROUNDS):
        changed = False
        totals: Dict[str, float] = {name: 0.0 for name in derived}
        for rule in program:
            name = rule.head.predicate
            if name not in totals:
                continue
            rows, _, _ = estimator.estimate_body(rule.body)
            totals[name] = min(totals[name] + rows, SIZE_CAP)
        for name, total in totals.items():
            if sizes.get(name) != total:
                sizes[name] = total
                changed = True
        if not changed:
            break
    return sizes


def estimate_program(program: Program, stats: Stats, *,
                     computed: Sequence[str] = (),
                     queries: Sequence[Query] = (),
                     relevant: Optional[frozenset] = None,
                     sizes: Optional[Dict[str, float]] = None) -> CostReport:
    """Estimate every (relevant) rule body and query body.

    ``relevant`` restricts the per-rule advisories to rules whose head
    predicate the queries can reach; derived-predicate *sizes* are still
    computed over the whole program so consumers see correct inputs
    (pass ``sizes`` — :func:`size_program` of the same program and
    statistics — to reuse them across queries).
    """
    if sizes is None:
        sizes = size_program(program, stats, computed=computed)
    estimator = _Estimator(stats, frozenset(computed), sizes)
    costs: List[RuleCost] = []
    for index, rule in enumerate(program):
        if relevant is not None and rule.head.predicate not in relevant:
            continue
        rows, peak, largest = estimator.estimate_body(rule.body)
        label = rule.name or f"rule #{index} ({rule.head.predicate})"
        costs.append(RuleCost(label, index, rule.span, rows, peak, largest,
                              rule_name=rule.name,
                              predicate=rule.head.predicate))
    for position, query in enumerate(queries):
        rows, peak, largest = estimator.estimate_body(query.body)
        label = "query" if len(queries) == 1 else f"query #{position}"
        costs.append(RuleCost(label, None, query.span, rows, peak,
                              largest))
    return CostReport(tuple(costs), dict(sizes))
