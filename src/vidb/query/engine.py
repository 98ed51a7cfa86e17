"""The query engine: programs + database -> answers.

:class:`QueryEngine` is the public face of the rule language.  It holds a
database and a program, and evaluates conjunctive queries bottom-up::

    engine = QueryEngine(db)
    engine.add_rules('''
        contains(G1, G2) :- interval(G1), interval(G2),
                            G2.duration => G1.duration.
    ''')
    for answer in engine.query("?- contains(G1, G2)."):
        print(answer["G1"], answer["G2"])

A query is compiled to an anonymous rule whose head projects the answer
variables, the program (plus that rule) is saturated, and the answer
relation is read off.  ``explain()`` returns the derivation tree of a
fact, built from the provenance the fixpoint records.

The constructive closure (:func:`~vidb.query.demand.constructive_closure`)
does not depend on the query, so the engine evaluates it once per
database epoch — the ⊕ *overlay* — and every query that needs it reads
it as stored relations.

Nor does anything before the fixpoint depend on a query's constants:
the engine compiles each query *shape* (:mod:`vidb.query.shape`) once
per program version — the demand rewrite and the analysis passes that
read no constant value — and a new text only lifts its constants, looks
the shape up and binds them in.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from vidb.analysis.analyzer import (
    ProgramAnalyzer,
    _LruCache,
    body_context,
    query_body_diagnostics,
    query_shape_diagnostics,
)
from vidb.analysis.checks import AnalysisContext, check_streaming_safety
from vidb.analysis.cost import (
    CostReport,
    Stats,
    estimate_program,
    size_program,
)
from vidb.analysis.dataflow import DataflowResult, query_bounds
from vidb.analysis.diagnostics import (
    AnalysisResult,
    Diagnostic,
    sort_diagnostics,
)
from vidb.constraints.kernel import KernelSpec, resolve_kernel
from vidb.errors import (
    QueryError,
    SafetyError,
    StandingQueryError,
    UnknownPredicateError,
)
from vidb.model.oid import Oid
from vidb.obs.trace import NULL_TRACER, Tracer, activate, current_tracer
from vidb.query import stdlib
from vidb.query.demand import (
    Demand,
    constructive_closure,
    goal_predicates,
    linear_recursion,
    reachable_predicates,
    relevant_rules as relevant_rules,  # re-exported: the public name
    rewrite,
)
from vidb.query.execution import (
    ExecutionOptions,
    ExecutionReport,
    StageTimer,
)
from vidb.query.ast import (
    Literal,
    Program,
    Query,
    Rule,
    Variable,
)
from vidb.query.fixpoint import (
    ComputedPredicate,
    EvaluationContext,
    EvaluationStats,
    FixpointResult,
    GroundTuple,
    _reorder_literals,
    evaluate,
    rule_labels,
)
from vidb.query.parser import parse_program
from vidb.query.safety import check_program, check_query
from vidb.query.shape import Lifted, bind_rule, lift, reanchor
from vidb.storage.database import VideoDatabase

ANSWER_PREDICATE = "q__answer"

#: Entries of the engine's query-shape cache (and of each epoch's
#: per-shape cost reports).
SHAPE_CAPACITY = 256


class Answer:
    """One query answer: a mapping from variable name to value."""

    __slots__ = ("_values",)

    def __init__(self, values: Dict[str, Any]):
        self._values = values

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise QueryError(f"no answer variable {name!r}") from None

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def keys(self) -> Iterable[str]:
        return self._values.keys()

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Answer) and self._values == other._values

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"{{{inner}}}"


class AnswerSet:
    """The (deduplicated, deterministic-ordered) answers of one query."""

    def __init__(self, variables: Sequence[str], rows: Iterable[GroundTuple],
                 stats: EvaluationStats):
        self.variables: Tuple[str, ...] = tuple(variables)
        seen = set()
        ordered: List[GroundTuple] = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                ordered.append(row)
        ordered.sort(key=_row_sort_key)
        self._rows = ordered
        self.stats = stats

    def __iter__(self) -> Iterator[Answer]:
        for row in self._rows:
            yield Answer(dict(zip(self.variables, row)))

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __getitem__(self, index: int) -> Answer:
        return Answer(dict(zip(self.variables, self._rows[index])))

    def rows(self) -> List[GroundTuple]:
        """Raw value tuples, ordered deterministically."""
        return list(self._rows)

    def column(self, variable: str) -> List[Any]:
        """All values of one answer variable."""
        if variable not in self.variables:
            raise QueryError(f"no answer variable {variable!r}")
        index = self.variables.index(variable)
        return [row[index] for row in self._rows]

    def first(self) -> Optional[Answer]:
        return self[0] if self._rows else None

    def group_by(self, variable: str) -> Dict[Any, List[Answer]]:
        """Answers grouped by one variable's value (insertion-ordered)."""
        if variable not in self.variables:
            raise QueryError(f"no answer variable {variable!r}")
        index = self.variables.index(variable)
        groups: Dict[Any, List[Answer]] = {}
        for row in self._rows:
            groups.setdefault(row[index], []).append(
                Answer(dict(zip(self.variables, row))))
        return groups

    def counts(self, variable: str) -> Dict[Any, int]:
        """How many answers per value of one variable — the poor man's
        GROUP BY ... COUNT(*) over query results."""
        return {key: len(members)
                for key, members in self.group_by(variable).items()}

    def __repr__(self) -> str:
        return f"AnswerSet({len(self._rows)} answers over {self.variables})"


def _demand_lines(demand: Optional[Demand], result: FixpointResult,
                  overlay: str) -> Tuple[str, ...]:
    """The EXPLAIN ``-- demand --`` section: which goals were adorned and
    where the overlay's predicates came from, then per rule the join
    order that ran and where each constraint was checked."""
    lines = (demand.describe(overlay) if demand
             else ["adorned: (rule pruning off)"])
    for plan in result.plans:
        line = f"{plan.label}: {plan.describe()}"
        lines.append(demand.display(line) if demand else line)
    return tuple(lines)


def _row_sort_key(row: GroundTuple):
    return tuple(
        (0, str(v)) if isinstance(v, Oid) else (1, str(v)) for v in row
    )


def _answer_head(query: Query) -> Literal:
    # A boolean query projects an arbitrary constant.
    return Literal(ANSWER_PREDICATE, list(query.answer_variables) or [0])


def _labels(program: Program, demand: Optional[Demand]) -> Dict[int, str]:
    """The label of each rule of *program*: a rewritten rule is labelled
    as the rule as written it came from."""
    if demand is None:
        return rule_labels(program)
    written = [demand.source.get(id(rule), rule) for rule in program]
    by_source = rule_labels({id(rule): rule for rule in written}.values())
    return {id(rule): by_source[id(source)]
            for rule, source in zip(program, written)}


class _EpochState:
    """What an engine derives from one ``(program version, database
    epoch)``: the statistics and derived-predicate sizes the cost
    advisories use, the cost report of each query shape, and the ⊕
    overlay.  Each is filled on first use; two threads racing to fill
    one compute equal values and publish with one assignment each."""

    __slots__ = ("key", "sizing", "costs", "overlay")

    def __init__(self, key: Optional[Tuple[int, int]]):
        self.key = key
        self.sizing: Optional[Tuple[Stats, Dict[str, float]]] = None
        #: shape entry -> ``(cost report, its advisories)`` on the lifted
        #: query; never filled inside a transaction (``key`` is None).
        self.costs = _LruCache(SHAPE_CAPACITY)
        self.overlay: Optional[FixpointResult] = None


class _Compiled(NamedTuple):
    """A lifted query compiled: the program it evaluates, the label of
    each rule, the demand rewrite, the query rule, and the positions of
    the rules that carry its parameters — the query rule and the demand
    rules it emits; program rules never do."""

    program: Program
    labels: Dict[int, str]
    demand: Optional[Demand]
    query_rule: Rule
    carriers: Tuple[int, ...]


class _Findings(NamedTuple):
    """The analysis of a lifted query that reads no constant value: the
    program-level and shape-level findings — in source order those that
    every text of the shape shares, apart those that point at the lifted
    query's positional anchors."""

    fixed: Tuple[Diagnostic, ...]
    anchored: Tuple[Diagnostic, ...]
    reachable: FrozenSet[str]
    context: AnalysisContext
    body_context: AnalysisContext
    dataflow: Optional[DataflowResult]


class _ShapeKey(NamedTuple):
    """Everything a compiled shape reads: the program (and computed
    predicates) by version, the relation names, the compile switches
    and the shape itself."""

    version: int
    relations: FrozenSet[str]
    inline: bool
    prune: bool
    reorder_joins: bool
    shape: tuple


class _Shape:
    """What an engine derives from one ``(program version, query
    shape)``: the compiled lifted query and its findings.  Each is
    filled on first use and published with one assignment; a finding
    set with a blocking error is never stored, so each text raises it
    from its own analysis."""

    __slots__ = ("key", "query", "compiled", "findings")

    def __init__(self, key: _ShapeKey, query: Query):
        self.key = key
        self.query = query
        self.compiled: Optional[_Compiled] = None
        self.findings: Optional[_Findings] = None


class QueryEngine:
    """Evaluates the rule language over one :class:`VideoDatabase`."""

    def __init__(self, db: VideoDatabase,
                 rules: Union[str, Program, Iterable[Rule], None] = None,
                 use_stdlib_rules: bool = False,
                 mode: str = "seminaive",
                 extended_domain: str = "lazy",
                 max_objects: int = 50_000,
                 reorder_joins: bool = True,
                 prune_rules: bool = True,
                 analyze: bool = True,
                 kernel: KernelSpec = None):
        self.db = db
        self.mode = mode
        self.extended_domain = extended_domain
        self.max_objects = max_objects
        #: The constraint kernel backend every evaluation of this engine
        #: uses (a name, an instance, or None = the process default).
        #: Per-query override: ``ExecutionOptions(kernel="reference")``.
        self.kernel = resolve_kernel(kernel)
        #: Optimiser switches (kept togglable for the ablation benchmarks):
        #: greedy selectivity-based join reordering inside each rule, and
        #: per-query pruning of rules unreachable from the query goals.
        self.reorder_joins = reorder_joins
        self.prune_rules = prune_rules
        #: Prepare-time static analysis (warnings on the report, errors
        #: raised before the fixpoint).  Findings that read no constant
        #: value are cached per query shape under the program version.
        self.analyze = analyze
        self._analyzer = ProgramAnalyzer()
        #: Compiled query shapes (see :mod:`vidb.query.shape`), keyed by
        #: program version, relation names, the compile switches and the
        #: shape; ``hits`` / ``misses`` count the lookups.
        self.shapes = _LruCache(SHAPE_CAPACITY)
        #: The current epoch's state (see :meth:`_epoch_state`).
        self._state: Optional[_EpochState] = None
        self._program_version = 0
        self.program = Program()
        self.computed: Dict[str, Tuple[int, ComputedPredicate]] = (
            stdlib.computed_predicates()
        )
        if use_stdlib_rules:
            self.add_rules(stdlib.STDLIB_RULES)
        if rules is not None:
            self.add_rules(rules)

    # -- program management -------------------------------------------------
    @property
    def program(self) -> Program:
        """The rules queries run against; assigning bumps the program
        version every per-program cache is keyed on."""
        return self._program

    @program.setter
    def program(self, program: Program) -> None:
        self._program = program
        self._closure = constructive_closure(program)
        self._overlay_predicates = self._closure.idb_predicates()
        self._linear = linear_recursion(program)
        self._program_version += 1

    def add_rules(self, rules: Union[str, Program, Rule, Iterable[Rule]]
                  ) -> "QueryEngine":
        """Append rules (text or AST); re-checks program safety."""
        if isinstance(rules, str):
            addition = parse_program(rules)
        elif isinstance(rules, Program):
            addition = rules
        elif isinstance(rules, Rule):
            addition = Program([rules])
        else:
            addition = Program(list(rules))
        candidate = self.program.extend(addition)
        check_program(candidate, edb_relations=self.db.relation_names())
        self.program = candidate
        return self

    def register_computed(self, name: str, arity: int,
                          fn: ComputedPredicate) -> "QueryEngine":
        """Register a filter-only computed predicate."""
        self.computed[name] = (arity, fn)
        self._program_version += 1
        return self

    @property
    def program_version(self) -> int:
        """Bumped whenever the answers of a query may change for a
        reason other than the database epoch: a program assignment, a
        registered computed predicate, an analysis invalidation."""
        return self._program_version

    def invalidate_analysis(self) -> None:
        """Drop every cached analysis, compiled shape and cost result.

        Cache keys are value-based (program version and fingerprint, EDB
        relation names, database epoch), so stale hits are impossible
        even without this call — but schema-affecting mutations such as
        ``declare_relation`` should still invalidate explicitly so dead
        entries are reclaimed and the closed-world undefined-predicate
        contract is visibly re-evaluated.  The service executor calls
        this whenever a transaction changes the set of relation names.
        """
        self._analyzer.clear()
        self.shapes.clear()
        self._program_version += 1

    # -- evaluation -----------------------------------------------------------
    def materialize(self, provenance: Optional[Dict] = None) -> FixpointResult:
        """Saturate the program over the database (no query)."""
        return evaluate(
            self.db, self.program, mode=self.mode, computed=self.computed,
            max_objects=self.max_objects, extended_domain=self.extended_domain,
            reorder_joins=self.reorder_joins, provenance=provenance,
            kernel=self.kernel,
        )

    def execute(self, query: Union[str, Query, Lifted],
                options: Optional[ExecutionOptions] = None,
                **overrides) -> ExecutionReport:
        """Run one query end to end under one set of options.

        This is the single execution path: parsing and lifting (see
        :mod:`vidb.query.shape`; a caller that lifted the query already
        passes the :class:`~vidb.query.shape.Lifted`), the safety check,
        rule pruning, fixpoint evaluation and answer collection all run
        (and are timed) here; ``query()``, ``ask()``, the service layer
        and the CLI are thin wrappers over it.  Options may be passed as
        an :class:`ExecutionOptions` value, as keyword overrides, or
        both (keywords win)::

            report = engine.execute("?- object(O).", trace=True)
            report.answers           # the AnswerSet
            report.stats.elapsed_s   # wall-clock
            print(report.profile())  # EXPLAIN ANALYZE-style table

        An enabled ambient tracer (a sampled request, see
        :mod:`vidb.obs.trace`) records this run as its ``query.execute``
        span; otherwise ``trace=True`` records into a tracer of its own.
        Either way ``report.trace`` is that span.

        A query that reads the ⊕ overlay's predicates reads the engine's
        overlay for the current epoch, building it first if no query has
        (inside this query's ``evaluate`` stage, under its deadline).  A
        run that overrides ``kernel`` or ``mode`` or records
        ``provenance``, and every run of an ``extended_domain="eager"``
        engine, evaluates the overlay's rules inline instead and factors
        no linear recursion, so those oracles stay independent of both.
        """
        options = ExecutionOptions.coerce(options, **overrides)
        tracer = current_tracer()
        if not tracer.enabled:
            tracer = Tracer() if options.trace else NULL_TRACER
        traced = tracer.enabled
        deadline = (time.monotonic() + options.timeout_s
                    if options.timeout_s is not None else None)
        stages: Dict[str, float] = {}
        state = self._epoch_state()
        inline = (options.kernel is not None or options.mode is not None
                  or options.provenance is not None
                  or self.extended_domain == "eager")

        def stage(name: str):
            return StageTimer(stages, tracer, name)

        started = time.perf_counter()
        with activate(tracer), tracer.span("query.execute") as span:
            with stage("parse"):
                lifted = query if isinstance(query, Lifted) else lift(query)
                query = lifted.source
            with stage("safety"):
                check_query(query)
            prune = (self.prune_rules if options.prune_rules is None
                     else options.prune_rules)
            diagnostics: Tuple[Diagnostic, ...] = ()
            cost: Optional[CostReport] = None
            bounds: Tuple[str, ...] = ()
            analyze = (self.analyze if options.analyze is None
                       else options.analyze)
            with stage("analyze"):
                shape = self._shape(lifted, inline, prune)
                if analyze:
                    analysis = self._prepare_analysis(lifted, shape, prune)
                    if analysis is not None:
                        diagnostics = analysis.diagnostics
                        bounds = self._bounds_lines(query, analysis)
                    cost, cost_diags = self._cost_estimate(lifted, shape,
                                                           prune, state)
                    if cost_diags:
                        diagnostics = tuple(diagnostics) + cost_diags
            with stage("prune"):
                program, labels, demand = self._bind(shape, lifted, "query")
            base: Optional[EvaluationContext] = None
            built = False
            with stage("evaluate"):
                if demand is not None and demand.served and not inline:
                    overlay, built = self._overlay(state, deadline, tracer)
                    base = overlay.context
                result = evaluate(
                    self.db, program,
                    mode=options.mode or self.mode,
                    computed=self.computed,
                    max_objects=self.max_objects,
                    extended_domain=self.extended_domain,
                    reorder_joins=self.reorder_joins,
                    provenance=options.provenance,
                    deadline=deadline,
                    tracer=tracer,
                    kernel=(options.kernel if options.kernel is not None
                            else self.kernel),
                    labels=labels,
                    guarded=demand.guarded if demand else (),
                    base=base,
                )
                if built:
                    result.stats.absorb(overlay.stats)
            with stage("collect"):
                rows = result.relation(ANSWER_PREDICATE)
                answers = AnswerSet(
                    [v.name for v in query.answer_variables], rows,
                    result.stats)
                if demand is not None and options.provenance is not None:
                    demand.translate_provenance(options.provenance)
        stats = result.stats
        stats.elapsed_s = time.perf_counter() - started
        stats.stages = dict(stages)
        demand_lines: Tuple[str, ...] = ()
        if options.trace:
            demand_lines = _demand_lines(
                demand, result,
                "inline" if inline else
                f"epoch {self.db.epoch}, {'built' if built else 'reused'}")
        return ExecutionReport(
            answers=answers, stats=stats, options=options,
            trace=span if traced else None,
            aggregates=dict(tracer.aggregates) if traced else {},
            diagnostics=diagnostics, cost=cost, bounds=bounds,
            demand=demand_lines,
        )

    def _epoch_state(self) -> _EpochState:
        """The state of the current program version and database epoch.

        Inside a transaction it is a fresh one that is never stored: a
        rollback restores the epoch number, so a later, different state
        can reach it again.
        """
        if self.db.in_transaction:
            return _EpochState(None)
        key = (self._program_version, self.db.epoch)
        state = self._state
        if state is None or state.key != key:
            state = self._state = _EpochState(key)
        return state

    def _overlay(self, state: _EpochState, deadline: Optional[float],
                 tracer) -> Tuple[FixpointResult, bool]:
        """The ⊕ overlay of *state* and whether this call built it.

        The overlay is the least fixpoint of the constructive closure;
        it is published only once complete, so a timeout or a budget
        error leaves nothing behind and the next query retries.
        """
        overlay = state.overlay
        if overlay is not None:
            return overlay, False
        with tracer.span("query.overlay", epoch=self.db.epoch):
            overlay = evaluate(
                self.db, self._closure, mode=self.mode,
                computed=self.computed, max_objects=self.max_objects,
                reorder_joins=self.reorder_joins, deadline=deadline,
                tracer=tracer, kernel=self.kernel)
        state.overlay = overlay
        return overlay, True

    def compile(self, query: Union[Query, Lifted], *, inline: bool,
                prune: bool = True, name: str = "query"
                ) -> Tuple[Program, Dict[int, str], Optional[Demand]]:
        """The program one query evaluates, the label of each of its
        rules, and its demand rewrite.

        The query becomes an anonymous rule *name* deriving
        :data:`ANSWER_PREDICATE`; *prune* demand-rewrites the engine's
        program for it (see :func:`~vidb.query.demand.rewrite`, which
        also says what *inline* does), otherwise it is appended to the
        whole program and the demand is None.  A rewritten rule is
        labelled as the rule as written it came from.  Ad-hoc and
        standing queries both compile here, through the query's shape.
        """
        lifted = query if isinstance(query, Lifted) else lift(query)
        return self._bind(self._shape(lifted, inline, prune), lifted, name)

    def _shape(self, lifted: Lifted, inline: bool, prune: bool) -> _Shape:
        """The cache entry of *lifted*'s shape under the current program,
        relation names and compile switches (new and empty on a miss)."""
        key = _ShapeKey(self._program_version, self.db.relation_names(),
                        inline, prune, self.reorder_joins, lifted.key)
        shape = self.shapes.get(key)
        if shape is None:
            shape = _Shape(key, lifted.query)
            self.shapes.put(key, shape)
        return shape

    def _compile_shape(self, shape: _Shape) -> _Compiled:
        query_rule = Rule(_answer_head(shape.query), shape.query.body,
                          name="query")
        if not shape.key.prune:
            program = self.program.extend([query_rule])
            return _Compiled(program, rule_labels(program), None,
                             query_rule, (len(program) - 1,))
        order = None
        if self.reorder_joins:
            computed = self.computed

            def order(literals, bound, constraints):
                # The planner's order without cardinalities: they are
                # not known until the rules being rewritten have run.
                return _reorder_literals(
                    literals, lambda p: -1 if p in computed else 0,
                    constraints, bound)[0]

        demand = rewrite(self.program, query_rule, order=order,
                         taken=shape.key.relations | set(self.computed),
                         stored=self._overlay_predicates,
                         linear=self._linear, inline=shape.key.inline)
        carriers = tuple(
            index for index, rule in enumerate(demand.program)
            if demand.source.get(id(rule), rule) is query_rule)
        return _Compiled(demand.program, _labels(demand.program, demand),
                         demand, query_rule, carriers)

    def _bind(self, shape: _Shape, lifted: Lifted, name: str
              ) -> Tuple[Program, Dict[int, str], Optional[Demand]]:
        """:meth:`compile`'s result for *lifted*: its shape's compiled
        program (compiled here on first use) with *lifted*'s constants
        bound into the rules that carry them.  Rules are keyed by
        ``id`` in the labels and the demand tables, so each bound rule
        takes over the entries of the rule it replaces; the query rule
        as written is the query as written, which provenance reports."""
        compiled = shape.compiled
        if compiled is None:
            compiled = shape.compiled = self._compile_shape(shape)
        query = lifted.source
        written = Rule(_answer_head(query), query.body, name=name)
        rules = list(compiled.program.rules)
        replaced = []
        for index in compiled.carriers:
            rule = rules[index]
            rules[index] = (written if rule is compiled.query_rule
                            else bind_rule(rule, lifted.values, name))
            replaced.append((rule, rules[index]))
        program = Program(rules)
        demand = compiled.demand
        if demand is not None:
            source = dict(demand.source)
            guarded = demand.guarded
            for rule, bound in replaced:
                if bound is not written:
                    source[id(bound)] = written
                if id(rule) in guarded:
                    guarded = guarded | {id(bound)}
            demand = demand.bound(program, source, guarded)
        if name == compiled.query_rule.name:
            labels = dict(compiled.labels)
            for rule, bound in replaced:
                labels[id(bound)] = labels[id(rule)]
        else:
            labels = _labels(program, demand)
        return program, labels, demand

    def _prepare_analysis(self, lifted: Lifted, shape: _Shape,
                          prune: bool) -> Optional[AnalysisResult]:
        """Prepare-time static analysis for one query.

        Raises on blocking errors (so broken queries fail before the
        fixpoint spends any time) and returns the analysis result whose
        diagnostics go on the report.  An error that lives inside a rule
        the evaluation will prune away does not block — the fixpoint
        would never have reached it — but is still surfaced as a
        diagnostic.
        """
        try:
            analysis = self._analysis(lifted, shape, prune)
        except Exception:
            # The analyzer is advisory infrastructure: a defect in it must
            # never take down query execution.
            return None
        self._raise_blocking(analysis, prune)
        return analysis

    def _analysis(self, lifted: Lifted, shape: _Shape, prune: bool,
                  streaming: bool = False) -> AnalysisResult:
        """The analysis of the query as written: its shape's findings,
        re-anchored onto its nodes, plus the passes whose verdict reads
        constant values (and, *streaming*, the standing-query pass), run
        on the query itself."""
        query = lifted.source
        findings = shape.findings
        if findings is None:
            findings = self._shape_findings(shape)
            if self._blocking(findings.fixed + findings.anchored,
                              findings.reachable, prune) is None:
                shape.findings = findings
        extra = [reanchor(diag, lifted.anchors) for diag in findings.anchored]
        extra += query_body_diagnostics(
            findings.body_context, (query,), findings.dataflow)
        classifications: Tuple[Dict[str, Any], ...] = ()
        if streaming:
            stream_diags, classification = check_streaming_safety(
                findings.context, query)
            extra += stream_diags
            classifications = (classification,)
        diagnostics = findings.fixed
        if extra:
            diagnostics = sort_diagnostics(
                dict.fromkeys(diagnostics + tuple(extra)))
        return AnalysisResult(
            diagnostics, reachable=findings.reachable,
            dataflow=findings.dataflow, streaming=classifications)

    def _shape_findings(self, shape: _Shape) -> _Findings:
        edb = shape.key.relations
        computed = {name: arity for name, (arity, _) in self.computed.items()}
        program_level = self._analyzer.analyze(self.program, edb=edb,
                                               computed=computed)
        context = AnalysisContext(program=self.program, edb=edb,
                                  computed=computed)
        shape_diags, reachable = query_shape_diagnostics(context,
                                                         (shape.query,))
        diagnostics = program_level.diagnostics + tuple(shape_diags)
        anchored = tuple(diag for diag in diagnostics
                         if diag.span is not None and diag.span.line == 0)
        fixed = sort_diagnostics(dict.fromkeys(
            diag for diag in diagnostics if diag not in anchored))
        return _Findings(fixed, anchored, reachable, context,
                         body_context(context), program_level.dataflow)

    def _blocking(self, diagnostics: Iterable[Diagnostic],
                  reachable: Optional[FrozenSet[str]],
                  prune: bool) -> Optional[Diagnostic]:
        """The first error that blocks execution, if any."""
        rules = self.program.rules
        for diag in diagnostics:
            if not diag.is_error:
                continue
            if diag.rule_index is not None and prune and reachable is not None:
                if (diag.rule_index < len(rules) and
                        rules[diag.rule_index].head.predicate not in reachable):
                    continue
            return diag
        return None

    def _raise_blocking(self, analysis: AnalysisResult, prune: bool) -> None:
        diag = self._blocking(analysis.diagnostics, analysis.reachable, prune)
        if diag is None:
            return
        if diag.code == "VDB006":
            raise UnknownPredicateError(diag.message)
        if diag.code.startswith("VDB06"):
            raise StandingQueryError(diag.message,
                                     diagnostics=analysis.diagnostics)
        raise SafetyError(diag.message)

    def _cost_estimate(self, lifted: Lifted, shape: _Shape, prune: bool,
                       state: _EpochState
                       ) -> Tuple[Optional[CostReport],
                                  Tuple[Diagnostic, ...]]:
        """Cost advisories for one query: those of its shape, estimated
        once per database epoch (never inside a transaction, like
        :meth:`_epoch_state`) and re-anchored onto the query."""
        value = state.costs.get(shape) if state.key else None
        if value is None:
            try:
                stats, sizes = self._sizing(state)
                relevant = None
                if prune:
                    relevant = reachable_predicates(
                        self.program, goal_predicates(shape.query.body))
                report = estimate_program(
                    self.program, stats, computed=tuple(self.computed),
                    queries=(shape.query,), relevant=relevant, sizes=sizes)
                value = (report, report.diagnostics())
            except Exception:
                # Advisory infrastructure: estimation defects must never
                # take down query execution.
                value = (None, ())
            if state.key:
                state.costs.put(shape, value)
        report, diagnostics = value
        if report is None:
            return None, ()
        anchors = lifted.anchors
        return (report.located(anchors[0]),
                tuple(reanchor(diag, anchors) for diag in diagnostics))

    def _sizing(self, state: Optional[_EpochState] = None
                ) -> Tuple[Stats, Dict[str, float]]:
        """Database statistics and derived-predicate sizes, computed once
        per epoch state, so a new query text pays only for its own
        body."""
        if state is None:
            state = self._epoch_state()
        if state.sizing is None:
            stats = Stats.from_database(self.db)
            state.sizing = (stats, size_program(
                self.program, stats, computed=tuple(self.computed)))
        return state.sizing

    def _bounds_lines(self, query: Query, analysis: AnalysisResult
                      ) -> Tuple[str, ...]:
        """Rendered dataflow bounds for the profile (query-relevant)."""
        flow = analysis.dataflow
        if flow is None:
            return ()
        reachable = analysis.reachable
        lines = [summary.render() for summary in flow.narrowed()
                 if reachable is None or summary.predicate in reachable]
        try:
            for name, interval in sorted(query_bounds(query, flow).items()):
                lines.append(f"query: {name} in {interval.render()}")
        except Exception:
            pass
        return tuple(lines)

    def analyze_standing(self, query: Union[str, Query, Lifted]
                         ) -> AnalysisResult:
        """Full prepare-time analysis for a *standing* query.

        Runs the safety check, every regular pass and the
        streaming-safety pass (VDB06x) and raises
        :class:`~vidb.errors.StandingQueryError` on any error-severity
        finding, carrying the located diagnostics — the subscribe-time
        contract mirroring ``execute``'s prepare path.
        """
        lifted = query if isinstance(query, Lifted) else lift(query)
        check_query(lifted.source)
        shape = self._shape(lifted, True, self.prune_rules)
        analysis = self._analysis(lifted, shape, self.prune_rules,
                                  streaming=True)
        self._raise_blocking(analysis, self.prune_rules)
        return analysis

    def query(self, query: Union[str, Query],
              provenance: Optional[Dict] = None) -> AnswerSet:
        """Evaluate a conjunctive query; returns an :class:`AnswerSet`.

        Thin alias for :meth:`execute` kept for the established API; the
        report's statistics remain reachable via ``answers.stats``.
        """
        return self.execute(query, provenance=provenance).answers

    def ask(self, query: Union[str, Query],
            options: Optional[ExecutionOptions] = None) -> bool:
        """Does the query have at least one answer?"""
        return bool(self.execute(query, options).answers)

    def facts(self, predicate: str) -> FrozenSet[GroundTuple]:
        """Materialise the program and return one derived relation."""
        return self.materialize().relation(predicate)

    # -- explanation -----------------------------------------------------------
    def explain(self, query: Union[str, Query]) -> List["Derivation"]:
        """Answers plus their derivation trees."""
        provenance: Dict = {}
        answers = self.query(query, provenance=provenance)
        out: List[Derivation] = []
        for row in answers.rows():
            fact = (ANSWER_PREDICATE, row)
            out.append(_derivation_of(fact, provenance))
        return out


class Derivation:
    """A derivation tree node: a fact, the rule that derived it, and the
    derivations of the body facts it used (empty for EDB facts)."""

    __slots__ = ("fact", "rule", "children")

    def __init__(self, fact: Tuple[str, GroundTuple], rule: Optional[Rule],
                 children: Sequence["Derivation"]):
        self.fact = fact
        self.rule = rule
        self.children = tuple(children)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        name, row = self.fact
        args = ", ".join(map(str, row))
        label = f"{pad}{name}({args})"
        if self.rule is not None:
            label += f"   [via {self.rule.name or self.rule.head.predicate}]"
        else:
            label += "   [database fact]"
        lines = [label]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return self.render()


def _derivation_of(fact: Tuple[str, GroundTuple], provenance: Dict,
                   seen: Optional[frozenset] = None) -> Derivation:
    seen = seen or frozenset()
    if fact in seen or fact not in provenance:
        return Derivation(fact, None, ())
    rule, binding = provenance[fact]
    children = []
    for literal in rule.literals():
        child_row = []
        grounded = True
        for arg in literal.args:
            if isinstance(arg, Variable):
                if arg in binding:
                    child_row.append(binding[arg])
                else:
                    grounded = False
                    break
            elif isinstance(arg, (int, float, str)):
                child_row.append(arg)
            elif isinstance(arg, Oid):
                child_row.append(arg)
            else:
                grounded = False
                break
        if grounded:
            child_fact = (literal.predicate, tuple(child_row))
            children.append(
                _derivation_of(child_fact, provenance, seen | {fact})
            )
    return Derivation(fact, rule, children)
