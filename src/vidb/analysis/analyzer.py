"""The analysis driver: compose the passes, cache per fingerprint.

``analyze`` is the pure entry point: program (+ optional queries) in,
:class:`AnalysisResult` out.  :class:`ProgramAnalyzer` wraps it with a
thread-safe LRU cache of the program-level findings, keyed by the
program fingerprint and its surroundings.  Query-level findings are not
cached here: the query engine caches the passes that read no constant
value per query *shape* (:func:`query_shape_diagnostics`) and runs the
rest on each text (:func:`query_body_diagnostics`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from vidb.analysis.checks import (
    AnalysisContext,
    check_constraints,
    check_dataflow,
    check_joins,
    check_predicate_uses,
    check_query_dataflow,
    check_query_safety,
    check_reachability,
    check_safety,
    check_singletons,
    check_streaming_safety,
    conflicted_arities,
    query_goals,
    reachable_predicates,
)
from vidb.analysis.dataflow import DataflowResult
from vidb.analysis.diagnostics import (
    AnalysisResult,
    Diagnostic,
    sort_diagnostics,
)
from vidb.query.ast import Program, Query
from vidb.query.render import program_fingerprint


def _context(program: Program, edb: Iterable[str],
             computed: Optional[Dict[str, int]],
             extra: Optional[Dict[str, Optional[int]]],
             closed_world: bool) -> AnalysisContext:
    return AnalysisContext(
        program=program, edb=frozenset(edb),
        computed=dict(computed or {}), extra=dict(extra or {}),
        closed_world=closed_world,
    )


def _program_diagnostics(ctx: AnalysisContext, annotate_bounds: bool
                         ) -> Tuple[Tuple[Diagnostic, ...], DataflowResult]:
    diagnostics, conflicted = check_safety(ctx)
    diagnostics += check_predicate_uses(ctx, conflicted)
    diagnostics += check_constraints(ctx)
    diagnostics += check_singletons(ctx)
    diagnostics += check_joins(ctx)
    flow_diags, flow = check_dataflow(ctx, annotate_bounds=annotate_bounds)
    diagnostics += flow_diags
    return sort_diagnostics(diagnostics), flow


def query_shape_diagnostics(ctx: AnalysisContext, queries: Sequence[Query]
                            ) -> Tuple[List[Diagnostic], FrozenSet[str]]:
    """The query-level findings that read no constant value (safety,
    predicate uses, joins, reachability), and the predicates the queries
    reach.  The engine runs them once per query shape."""
    diagnostics: List[Diagnostic] = []
    for query in queries:
        diagnostics += check_query_safety(query)
    diagnostics += check_predicate_uses(ctx, conflicted_arities(ctx.program),
                                        queries, include_rules=False)
    # Rule-level findings were already reported at the program level;
    # re-run the body passes on the query bodies only.
    diagnostics += check_joins(body_context(ctx), queries)
    reachable = reachable_predicates(ctx.program, query_goals(queries))
    diagnostics += check_reachability(ctx, queries, reachable)
    return diagnostics, reachable


def query_body_diagnostics(body_ctx: AnalysisContext,
                           queries: Sequence[Query],
                           flow: Optional[DataflowResult]) -> List[Diagnostic]:
    """The query-level findings whose verdict reads constant values: the
    solver-backed constraint passes and the dataflow contradictions
    (under the program's dataflow *flow*, when it ran).  *body_ctx* is
    :func:`body_context` of the analysis context."""
    diagnostics = check_constraints(body_ctx, queries)
    if flow is not None:
        diagnostics += check_query_dataflow(flow, queries)
    return diagnostics


def body_context(ctx: AnalysisContext) -> AnalysisContext:
    """*ctx* without its rules, for passes over query bodies alone."""
    return AnalysisContext(
        program=Program(), edb=ctx.edb, computed=ctx.computed,
        extra=ctx.extra, closed_world=ctx.closed_world)


def _query_diagnostics(ctx: AnalysisContext, queries: Sequence[Query],
                       flow: Optional[DataflowResult], streaming: bool
                       ) -> Tuple[Tuple[Diagnostic, ...], FrozenSet[str],
                                  Tuple[Dict[str, object], ...]]:
    diagnostics, reachable = query_shape_diagnostics(ctx, queries)
    diagnostics += query_body_diagnostics(body_context(ctx), queries, flow)
    classifications = []
    if streaming:
        for query in queries:
            stream_diags, classification = check_streaming_safety(ctx, query)
            diagnostics += stream_diags
            classifications.append(classification)
    return sort_diagnostics(diagnostics), reachable, tuple(classifications)


def analyze(program: Program,
            queries: Union[Query, Sequence[Query], None] = None,
            *, edb: Iterable[str] = (),
            computed: Optional[Dict[str, int]] = None,
            extra: Optional[Dict[str, Optional[int]]] = None,
            closed_world: bool = True,
            annotate_bounds: bool = False,
            streaming: bool = False) -> AnalysisResult:
    """Run every analysis pass over *program* (and optional queries).

    ``edb`` names the database relations, ``computed`` the registered
    computed predicates (name -> arity), and ``extra`` predicates assumed
    defined elsewhere (name -> arity, or None when the arity is unknown).
    Under ``closed_world`` an undefined predicate is an error; otherwise
    it is a warning (standalone lint without a database).
    ``annotate_bounds`` additionally emits VDB044 infos for every
    non-trivial inferred predicate bound; ``streaming`` runs the
    standing-query safety pass (VDB06x) over the given queries.
    """
    if isinstance(queries, Query):
        queries = (queries,)
    queries = tuple(queries or ())
    ctx = _context(program, edb, computed, extra, closed_world)
    program_diags, flow = _program_diagnostics(ctx, annotate_bounds)
    diagnostics = list(program_diags)
    reachable: Optional[FrozenSet[str]] = None
    classifications: Tuple[Dict[str, object], ...] = ()
    if queries:
        query_diags, reachable, classifications = _query_diagnostics(
            ctx, queries, flow, streaming)
        diagnostics += query_diags
    deduped = tuple(dict.fromkeys(diagnostics))
    return AnalysisResult(sort_diagnostics(deduped), reachable=reachable,
                          dataflow=flow, streaming=classifications)


class _LruCache:
    """A small thread-safe LRU map (computation happens outside the lock)
    that counts its lookups: ``hits`` and ``misses`` survive ``clear``."""

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            try:
                self._entries.move_to_end(key)
            except KeyError:
                self.misses += 1
                return None
            self.hits += 1
            return self._entries[key]

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ProgramAnalyzer:
    """Cached program-level analysis for a long-lived engine.

    The program-level result depends only on (program fingerprint, EDB
    relation names, computed/extra predicates, world assumption).  The
    key is value-based, so engines that swap programs or databases never
    see stale findings.  A query's own passes run on every call; the
    program-level findings and dataflow come from the cache, and
    ``hits`` / ``misses`` count its lookups.
    """

    def __init__(self, max_entries: int = 256):
        self._program_cache = _LruCache(max_entries)
        #: ``(program, fingerprint)`` of the program last analyzed: an
        #: engine asks about the same (immutable) object query after
        #: query, and rendering it is most of a cache probe.
        self._fingerprint: Tuple[Optional[Program], str] = (None, "")

    @property
    def hits(self) -> int:
        return self._program_cache.hits

    @property
    def misses(self) -> int:
        return self._program_cache.misses

    def _base_key(self, program: Program, edb: FrozenSet[str],
                  computed: Optional[Dict[str, int]],
                  extra: Optional[Dict[str, Optional[int]]],
                  closed_world: bool, annotate_bounds: bool):
        known, fingerprint = self._fingerprint
        if known is not program:
            fingerprint = program_fingerprint(program)
            self._fingerprint = (program, fingerprint)
        return (
            fingerprint,
            edb,
            tuple(sorted((computed or {}).items())),
            tuple(sorted((extra or {}).items(),
                         key=lambda pair: pair[0])),
            closed_world,
            annotate_bounds,
        )

    def analyze(self, program: Program, query: Optional[Query] = None,
                *, edb: Iterable[str] = (),
                computed: Optional[Dict[str, int]] = None,
                extra: Optional[Dict[str, Optional[int]]] = None,
                closed_world: bool = True,
                annotate_bounds: bool = False,
                streaming: bool = False) -> AnalysisResult:
        edb = frozenset(edb)
        base_key = self._base_key(program, edb, computed, extra,
                                  closed_world, annotate_bounds)
        program_level = self._program_cache.get(base_key)
        if program_level is None:
            program_level = analyze(program, edb=edb, computed=computed,
                                    extra=extra, closed_world=closed_world,
                                    annotate_bounds=annotate_bounds)
            self._program_cache.put(base_key, program_level)
        if query is None:
            return program_level
        query_diags, reachable, classifications = _query_diagnostics(
            _context(program, edb, computed, extra, closed_world),
            (query,), program_level.dataflow, streaming)
        # The same merge ``analyze(program, query)`` performs.
        merged = tuple(dict.fromkeys(program_level.diagnostics + query_diags))
        return AnalysisResult(sort_diagnostics(merged),
                              reachable=reachable,
                              dataflow=program_level.dataflow,
                              streaming=classifications)

    def clear(self) -> None:
        self._program_cache.clear()
        self._fingerprint = (None, "")
