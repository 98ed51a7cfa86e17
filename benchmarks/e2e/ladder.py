"""The traced ladders: per-layer times from outside the program.

Each ladder replays a sample of a workload's ops up a series of public
entry points, every rung doing all the work of the rung below plus one
layer, so a layer's own time is its rung minus the rung below:

reads — ``parse_query`` → ``ProgramAnalyzer.analyze`` →
``QueryEngine.execute(analyze=False)`` under a counting kernel proxy →
``QueryEngine.execute`` → ``ServiceExecutor.execute_report`` (miss,
hit) → ``ServiceClient.query`` to the subprocess → the same via the
router;

writes — ``apply_record`` in a bare transaction → the same under
``DurableDatabase(fsync="never")`` and ``"always"`` → with a
``StreamHub`` and K subscriptions → ``ServiceExecutor.apply_batch`` →
the workload's own ``ServiceClient`` call;

recovery — ``load_snapshot`` and ``recover`` on a copy of the killed
data directory.

All spans are recorded here, in the benchmark's files; nothing under
``src/`` is touched.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from vidb.analysis.analyzer import ProgramAnalyzer
from vidb.constraints.kernel import (
    ConstraintKernel,
    get_kernel,
    make_kernel,
    register_kernel,
)
from vidb.durability import DurableDatabase, recover
from vidb.durability.snapshot import list_snapshots, load_snapshot
from vidb.query.engine import QueryEngine
from vidb.query.execution import ExecutionOptions
from vidb.query.incremental import MaterializedView
from vidb.query.parser import parse_program, parse_query
from vidb.service.executor import ServiceExecutor
from vidb.service.server import ServiceClient
from vidb.storage.database import VideoDatabase
from vidb.stream.hub import CommittedDelta, StreamHub
from vidb.stream.ingest import Record, apply_record
from vidb.stream.standing import Subscription, SubscriptionManager
from vidb.stream.views import apply_delta

from benchmarks.e2e import inputs
from benchmarks.e2e.nodes import HOST
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.stats import median

COUNTING_KERNEL = "e2e-counting"


class CountingKernel(ConstraintKernel):
    """Counts the decisions asked of a wrapped kernel (a batched call
    counts one per item), times them, and keeps the pair batches the
    fixpoint hands to ``entails_many``."""

    name = COUNTING_KERNEL

    def __init__(self, inner: ConstraintKernel):
        self.inner = inner
        self.calls = 0
        self.busy_s = 0.0
        self.batches: List[List[Tuple[Any, Any]]] = []

    def _timed(self, decisions: int, fn: Callable, *args: Any) -> Any:
        began = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.busy_s += time.perf_counter() - began
            self.calls += decisions

    def satisfiable(self, constraint):
        return self._timed(1, self.inner.satisfiable, constraint)

    def entails(self, c1, c2):
        return self._timed(1, self.inner.entails, c1, c2)

    def equivalent(self, c1, c2):
        return self._timed(1, self.inner.equivalent, c1, c2)

    def simplify(self, constraint):
        return self._timed(1, self.inner.simplify, constraint)

    def satisfiable_many(self, constraints):
        constraints = list(constraints)
        return self._timed(len(constraints), self.inner.satisfiable_many,
                           constraints)

    def entails_many(self, pairs):
        pairs = list(pairs)
        if pairs:
            self.batches.append(pairs)
        return self._timed(len(pairs), self.inner.entails_many, pairs)

    def set_satisfiable(self, atoms):
        return self._timed(1, self.inner.set_satisfiable, atoms)

    def set_entails(self, premise, conclusion):
        return self._timed(1, self.inner.set_entails, premise, conclusion)

    def counters(self):
        return self.inner.counters()

    def reset(self):
        self.inner.reset()


def counting_kernel() -> CountingKernel:
    """A fresh counting proxy over a cold interned kernel, installed
    under its registry name.  (The registry calls factories under its
    own lock, so the inner kernel is made first.)"""
    kernel = CountingKernel(make_kernel("interned"))
    register_kernel(COUNTING_KERNEL, lambda: kernel, replace=True)
    assert get_kernel(COUNTING_KERNEL) is kernel
    return kernel


def batch_vs_single_ratio(batches: List[List[Tuple[Any, Any]]],
                          repeats: int = 3) -> float:
    """Time of the captured pairs through ``entails_many`` over the time
    of the same pairs through a loop of ``entails``, each on a cold
    kernel (the BENCH_solver.json anomaly, on the workload's own joins).
    0.0 when the sample produced no batch."""
    if not batches:
        return 0.0
    ratios = []
    for _ in range(repeats):
        batched, single = make_kernel("interned"), make_kernel("interned")
        began = time.perf_counter()
        for pairs in batches:
            batched.entails_many(pairs)
        middle = time.perf_counter()
        for pairs in batches:
            for c1, c2 in pairs:
                single.entails(c1, c2)
        ended = time.perf_counter()
        ratios.append((middle - began) / max(ended - middle, 1e-9))
    return median(ratios)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- reads ---------------------------------------------------------------------
def read_ladder(log: SpanLog, records: List[Record], rules: Optional[str],
                sample: Sequence[str], port: int,
                router_port: Optional[int] = None) -> Dict[str, float]:
    """Replay *sample* (query texts) up the read ladder; returns the
    per-layer read metrics."""
    db = inputs.build_database(records)
    stdlib = rules is not None
    kernel = counting_kernel()
    bare = QueryEngine(db, rules=rules, use_stdlib_rules=stdlib,
                       kernel=COUNTING_KERNEL)
    full = QueryEngine(db, rules=rules, use_stdlib_rules=stdlib,
                       kernel=make_kernel("interned"))
    analyzer = ProgramAnalyzer()
    analysis_args = {"edb": db.relation_names(),
                     "computed": {name: arity for name, (arity, _)
                                  in full.computed.items()}}
    analyzer.analyze(full.program, **analysis_args)  # program-level, once
    executor = ServiceExecutor(
        db, rules=rules, use_stdlib_rules=stdlib, max_workers=2,
        engine_options={"kernel": make_kernel("interned")})
    client = ServiceClient(HOST, port)
    routed = (ServiceClient(HOST, router_port)
              if router_port is not None else None)
    no_analysis = ExecutionOptions(analyze=False)
    counters_before = dict(kernel.counters())
    evaluate_ms, iterations, checks, rows, created = [], 0, 0, 0, 0
    try:
        for op_id, text in enumerate(sample):
            with log.op(op_id):
                with log.span("query.parse"):
                    query = parse_query(text)
                with log.span("analysis.analyze"):
                    analyzer.analyze(full.program, query, **analysis_args)
                with log.span("analysis.warm"):
                    analyzer.analyze(full.program, query, **analysis_args)
                with log.span("query.execute.bare"):
                    report = bare.execute(text, no_analysis)
                stats = report.stats
                evaluate_ms.append(stats.stages.get("evaluate", 0.0) * 1000)
                iterations += stats.iterations
                checks += stats.constraint_checks
                created += stats.created_objects
                rows += len(report.answers)
                with log.span("query.execute"):
                    full.execute(text)
                with log.span("service.execute.miss"):
                    executor.execute_report(text)
                with log.span("service.execute.hit"):
                    executor.execute_report(text)
                with log.span("wire.query.first"):
                    client.query(text)
                with log.span("wire.query.hit"):
                    client.query(text)
                with log.span("wire.ping"):
                    client.ping()
                if routed is not None:
                    with log.span("router.query.hit"):
                        routed.query(text)
    finally:
        executor.close()
        client.close()
        if routed is not None:
            routed.close()
    n = max(1, len(sample))
    counters = kernel.counters()
    hits = counters.get("entails.hits", 0) - counters_before.get(
        "entails.hits", 0)
    misses = counters.get("entails.misses", 0) - counters_before.get(
        "entails.misses", 0)
    wire = log.median_ms("wire.query.hit") - log.median_ms(
        "service.execute.hit")
    metrics = {
        "query.parse_ms": log.median_ms("query.parse"),
        "analysis.analyze_ms": log.median_ms("analysis.analyze"),
        "analysis.warm_ms": log.median_ms("analysis.warm"),
        "query.evaluate_ms": median(evaluate_ms),
        "query.fixpoint.iterations_per_query": iterations / n,
        "query.checks_per_row": _ratio(checks, rows),
        "query.created_objects_per_query": created / n,
        "constraints.kernel.busy_ms_per_query": kernel.busy_s * 1000 / n,
        "constraints.kernel.calls_per_query": kernel.calls / n,
        "constraints.kernel.entails_hit_ratio": _ratio(hits, hits + misses),
        "constraints.kernel.batch_vs_single_ratio":
            batch_vs_single_ratio(kernel.batches),
        "service.executor.miss_overhead_ms":
            log.median_ms("service.execute.miss")
            - log.median_ms("query.execute"),
        "service.cache.hit_ms": log.median_ms("service.execute.hit"),
        "service.wire.roundtrip_ms": wire,
        "service.wire.ping_ms": log.median_ms("wire.ping"),
    }
    if routed is not None:
        metrics["cluster.router.forward_ms"] = (
            log.median_ms("router.query.hit")
            - log.median_ms("wire.query.hit"))
    return metrics


# -- writes ---------------------------------------------------------------------
#: The records of one transaction.
Batch = List[Record]


def _apply(db: VideoDatabase, commit: Batch) -> None:
    with db.transaction():
        for record in commit:
            apply_record(db, record)


def _rung(log: SpanLog, name: str, db: VideoDatabase,
          commits: List[Batch]) -> None:
    for op_id, commit in enumerate(commits):
        with log.op(op_id), log.span(name):
            _apply(db, commit)


def _seeded(prefix: List[Record]) -> VideoDatabase:
    """A bare database holding the records that precede the sample."""
    db = VideoDatabase("video")
    for record in prefix:
        apply_record(db, record)
    return db


def storage_and_wal_rungs(log: SpanLog, prefix: List[Record],
                          commits: List[Batch], scratch: Path
                          ) -> Dict[str, float]:
    """Rungs 1-3 of the write ladder: bare storage, then the WAL without
    and with a flush per append."""
    _rung(log, "storage.apply", _seeded(prefix), commits)
    for policy in ("never", "always"):
        directory = scratch / f"ladder-wal-{policy}"
        shutil.rmtree(directory, ignore_errors=True)
        durable = DurableDatabase(directory, seed=_seeded(prefix),
                                  fsync=policy, checkpoint_every=10**9)
        try:
            _rung(log, f"durability.{policy}", durable.db, commits)
        finally:
            durable.close()
            shutil.rmtree(directory, ignore_errors=True)
    records = sum(len(commit) for commit in commits)
    bare = log.median_ms("storage.apply")
    never = log.median_ms("durability.never")
    return {
        "storage.mutate_ms_per_record":
            _ratio(log.total_ms("storage.apply"), records),
        "durability.wal.append_ms_per_commit": never - bare,
        "durability.wal.fsync_ms_per_commit":
            log.median_ms("durability.always") - never,
    }


def stream_rungs(log: SpanLog, prefix: List[Record], commits: List[Batch],
                 subscriptions: List[Dict[str, Any]], rules: str
                 ) -> Dict[str, float]:
    """Rung 4 of the write ladder: a ``StreamHub`` with 0, 1, the
    workload's 8 and 8 identical subscriptions; then the stream layer's
    own functions timed directly on the committed deltas, and one
    retraction."""
    identical = [dict(subscriptions[inputs.STREAM_LISTEN_INDEX])
                 for _ in subscriptions]
    variants = {"k0": [], "k1": identical[:1], "k8": subscriptions,
                "k8_identical": identical}
    metrics: Dict[str, float] = {}
    bare = log.median_ms("storage.apply")
    for label, subs in variants.items():
        db = _seeded(prefix)
        manager = SubscriptionManager(StreamHub(db))
        engine = QueryEngine(db, rules=rules)
        for sub in subs:
            manager.subscribe(sub["query"], engine, filter=sub.get("filter"),
                              max_queue=10**6)
        _rung(log, f"stream.{label}", db, commits)
        metrics[f"stream.maintain_ms_per_commit.{label}"] = (
            log.median_ms(f"stream.{label}") - bare)
        if label == "k8":
            victim = next(r["oid"] for r in reversed(commits[-1])
                          if r["kind"] == "interval")
            with log.span("stream.retract"), db.transaction():
                db.remove_object(db.interval_oid(victim))
        manager.close()
    metrics["stream.retract_ms"] = log.median_ms("stream.retract")
    metrics["stream.retract_vs_insert_ratio"] = _ratio(
        metrics["stream.retract_ms"], log.median_ms("stream.k8"))
    # The stream layer's own entry points, on the real deltas, at the
    # moment each commits.
    db = _seeded(prefix)
    hub = StreamHub(db)
    engine = QueryEngine(db, rules=rules)
    view = MaterializedView(db, parse_program(rules))
    raw = MaterializedView(db, parse_program(rules))
    standing = Subscription(subscriptions[inputs.STREAM_LISTEN_INDEX]["query"],
                            engine, max_queue=10**6)

    def _on_delta(delta: CommittedDelta) -> None:
        with log.span("stream.views.apply_delta"):
            apply_delta(view, delta)
        with log.span("stream.standing.feed"):
            standing.feed(delta)
        with log.span("query.incremental.apply"), raw.feeding():
            for event in delta.events:
                if event[0] == "add":
                    raw.insert_object(event[1])
                elif event[0] == "relate":
                    raw.insert_fact(event[1].name, *event[1].args)

    hub.add_consumer(_on_delta)
    _rung(log, "stream.capture", db, commits)
    hub.detach()
    metrics["stream.views.apply_delta_ms"] = log.median_ms(
        "stream.views.apply_delta")
    metrics["stream.standing.feed_ms"] = log.median_ms("stream.standing.feed")
    metrics["query.incremental.apply_ms_per_delta"] = log.median_ms(
        "query.incremental.apply")
    return metrics


def service_rung(log: SpanLog, prefix: List[Record], commits: List[Batch],
                 scratch: Path, fsync: str, rules: Optional[str],
                 subscriptions: Iterable[Dict[str, Any]]) -> None:
    """Rung 5: ``ServiceExecutor.apply_batch`` over a durable, streaming
    executor configured like the workload's server
    (``service.apply_batch`` spans).  Rung 6, the workload's own
    ``ServiceClient`` call on the same commits against the subprocess
    (``wire.write`` spans), is recorded by the workload right after
    set-up, when the server is in the *prefix* state too."""
    directory = scratch / "ladder-service"
    shutil.rmtree(directory, ignore_errors=True)
    durable = DurableDatabase(directory, seed=_seeded(prefix), fsync=fsync,
                              checkpoint_every=10**9)
    executor = ServiceExecutor(durable, rules=rules)
    try:
        for sub in subscriptions:
            executor.subscribe(sub["query"], filter=sub.get("filter"),
                               max_queue=10**6)
        for op_id, commit in enumerate(commits):
            def _fn(db: VideoDatabase, commit: Batch = commit) -> int:
                for record in commit:
                    apply_record(db, record)
                return len(commit)

            with log.op(op_id), log.span("service.apply_batch"):
                executor.apply_batch(_fn)
    finally:
        executor.close()
        shutil.rmtree(directory, ignore_errors=True)


# -- recovery ---------------------------------------------------------------------
def recovery_ladder(log: SpanLog, data_dir: Path,
                    scratch: Path) -> Dict[str, float]:
    """``load_snapshot``, ``recover`` and one ``checkpoint`` on copies of
    the killed data directory."""
    copy = scratch / "ladder-recover"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(data_dir, copy)
    try:
        _, snapshot = list_snapshots(copy)[0]
        load_snapshot(snapshot)  # page cache and lazy imports, untimed
        # Replay time is the small difference of two large times, so
        # both are medians of alternating repeats.
        for _ in range(3):
            with log.span("durability.snapshot.load"):
                load_snapshot(snapshot)
            with log.span("durability.recover"):
                result = recover(copy)
        durable = DurableDatabase(copy, checkpoint_every=10**9)
        try:
            with log.span("durability.checkpoint"):
                durable.checkpoint()
        finally:
            durable.close()
        snapshot_bytes = snapshot.stat().st_size
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    load = log.median_ms("durability.snapshot.load")
    return {
        "durability.snapshot.load_ms": load,
        "durability.recover.replayed_records": float(result.replayed),
        "durability.recover.replay_ms_per_record": _ratio(
            max(0.0, log.median_ms("durability.recover") - load),
            result.replayed),
        "durability.checkpoint_ms": log.median_ms("durability.checkpoint"),
        "storage.snapshot_bytes": float(snapshot_bytes),
    }
