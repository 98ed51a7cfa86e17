"""The analysis driver: compose the passes, cache per fingerprint.

``analyze`` is the pure entry point: program (+ optional queries) in,
:class:`AnalysisResult` out.  :class:`ProgramAnalyzer` wraps it with a
two-level thread-safe LRU cache — program-level findings keyed by the
program fingerprint and its surroundings, query-level findings keyed
additionally by the normalized query text — so the engine's warm path
costs a dictionary lookup, not a solver call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple, Union

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
from vidb.query.render import normalize_query, program_fingerprint


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


def _query_diagnostics(ctx: AnalysisContext, queries: Sequence[Query],
                       flow: DataflowResult, streaming: bool
                       ) -> Tuple[Tuple[Diagnostic, ...], FrozenSet[str],
                                  Tuple[Dict[str, object], ...]]:
    conflicted = conflicted_arities(ctx.program)
    diagnostics = []
    for query in queries:
        diagnostics += check_query_safety(query)
    diagnostics += check_predicate_uses(ctx, conflicted, queries,
                                        include_rules=False)
    # Rule-level findings were already reported at the program level;
    # re-run the body passes on the query bodies only.
    query_ctx = AnalysisContext(
        program=Program(), edb=ctx.edb, computed=ctx.computed,
        extra=ctx.extra, closed_world=ctx.closed_world)
    diagnostics += check_constraints(query_ctx, queries)
    diagnostics += check_joins(query_ctx, queries)
    diagnostics += check_query_dataflow(flow, queries)
    classifications = []
    if streaming:
        for query in queries:
            stream_diags, classification = check_streaming_safety(ctx, query)
            diagnostics += stream_diags
            classifications.append(classification)
    reachable = reachable_predicates(ctx.program, query_goals(queries))
    diagnostics += check_reachability(ctx, queries, reachable)
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
    """A small thread-safe LRU map (computation happens outside the lock)."""

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict" = OrderedDict()

    def get(self, key):
        with self._lock:
            try:
                self._entries.move_to_end(key)
                return self._entries[key]
            except KeyError:
                return None

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
    """Cached analysis for a long-lived engine.

    The program-level result depends only on (program fingerprint, EDB
    relation names, computed/extra predicates, world assumption); the
    query-level result additionally on the normalized query.  Both keys
    are value-based, so engines that swap programs or databases never
    see stale findings, and repeated queries hit the cache.  A query
    text seen for the first time pays only for the passes over its own
    body: the program-level findings and dataflow come from the program
    cache.
    """

    def __init__(self, max_entries: int = 256):
        self._program_cache = _LruCache(max_entries)
        self._query_cache = _LruCache(max_entries)
        #: ``(program, fingerprint)`` of the program last analyzed: an
        #: engine asks about the same (immutable) object query after
        #: query, and rendering it is most of a cache probe.
        self._fingerprint: Tuple[Optional[Program], str] = (None, "")
        self.hits = 0
        self.misses = 0

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

    def _program_level(self, base_key, program: Program, **context
                       ) -> Tuple[AnalysisResult, bool]:
        """``(the program-level result, whether it was cached)``."""
        cached = self._program_cache.get(base_key)
        if cached is not None:
            return cached, True
        result = analyze(program, **context)
        self._program_cache.put(base_key, result)
        return result, False

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
        context = dict(edb=edb, computed=computed, extra=extra,
                       closed_world=closed_world,
                       annotate_bounds=annotate_bounds)
        if query is None:
            result, cached = self._program_level(base_key, program,
                                                 **context)
            self.hits += cached
            self.misses += not cached
            return result

        key = base_key + (streaming, normalize_query(query))
        cached = self._query_cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        program_level, _ = self._program_level(base_key, program, **context)
        query_diags, reachable, classifications = _query_diagnostics(
            _context(program, edb, computed, extra, closed_world),
            (query,), program_level.dataflow, streaming)
        # The same merge ``analyze(program, query)`` performs.
        merged = tuple(dict.fromkeys(program_level.diagnostics + query_diags))
        result = AnalysisResult(sort_diagnostics(merged),
                                reachable=reachable,
                                dataflow=program_level.dataflow,
                                streaming=classifications)
        self._query_cache.put(key, result)
        return result

    def clear(self) -> None:
        self._program_cache.clear()
        self._query_cache.clear()
        self._fingerprint = (None, "")
