"""adhoc_cold — an analyst's ad-hoc queries, every one a cache miss.

One connection, closed loop, direct to a durable primary
(``serve --stdlib --rules … --workers 2 --fsync never``); op = one
``query``.  The population of distinct query texts is more than twice
the server's result cache and no text repeats within that distance, so
the engine, the constraint kernel and the analyzer do the work and the
wire almost none.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from vidb.errors import VidbError

from benchmarks.e2e import config, inputs, ladder
from benchmarks.e2e.oracle import oracle_results
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.stats import mean, percentile
from benchmarks.e2e.workloads.base import (
    Context,
    Section,
    Workload,
    metric_delta,
    payload_bytes,
    start_loaded_primary,
)


class AdhocInputs:
    def __init__(self, seed: int):
        self.records = inputs.database_records()
        self.shapes, self.rules = inputs.adhoc_population(self.records, seed)
        self.warmup, self._stream = inputs.adhoc_ops(self.shapes)
        #: The ops drawn from the endless stream so far, in order.
        self.ops: List[Tuple[str, str]] = []

    def op(self, index: int) -> Tuple[str, str]:
        while len(self.ops) <= index:
            self.ops.append(next(self._stream))
        return self.ops[index]


#: Shapes whose reference-kernel evaluation takes 0.2-1.5 s a query:
#: checked once per run; every other shape shares the rest of the sample.
REFERENCE_ONCE = ("contains", "same_object_in", "reach")


def closed_loop_queries(client, data: AdhocInputs, seconds: float,
                        section: Section
                        ) -> List[Tuple[int, Optional[Dict[str, Any]]]]:
    """Send the op stream one query at a time until *seconds* have
    passed; returns ``(op index, reply)`` per op sent (``None`` for a
    failed op)."""
    replies: List[Tuple[int, Optional[Dict[str, Any]]]] = []
    index = len(data.ops)
    began = time.perf_counter()
    deadline = began + seconds
    now = began
    while now < deadline:
        text = data.op(index)[1]
        try:
            reply = client.query(text)
        except (VidbError, OSError) as error:
            section.fail(f"error:{type(error).__name__}")
            reply = None
        done = time.perf_counter()
        section.latencies_ms.append((done - now) * 1000.0)
        replies.append((index, reply))
        index += 1
        now = done
    section.ops += len(replies)
    section.attempted += len(replies)
    section.elapsed_s += now - began
    return replies


class AdhocCold(Workload):
    name = "adhoc_cold"
    #: One long section: only a server that has answered more queries
    #: than its cache holds evicts, and the oracle's work is per query.
    sections = 1

    def generate(self, seed: int) -> AdhocInputs:
        return AdhocInputs(seed)

    def start(self, ctx: Context) -> None:
        data: AdhocInputs = ctx.inputs
        rules_path = ctx.fleet.workdir / "rules.vdb"
        rules_path.write_text(data.rules, encoding="utf-8")
        client = start_loaded_primary(
            ctx, data.records, "--stdlib", "--rules", str(rules_path),
            "--workers", "2", "--fsync", "never")
        for _, text in data.warmup:
            client.query(text)

    def timed(self, ctx: Context, seconds: float) -> Section:
        section = Section()
        section.data["replies"] = closed_loop_queries(
            ctx.clients[0], ctx.inputs, seconds, section)
        return section

    def verify(self, ctx: Context, section: Section) -> None:
        """Every reply against the in-process oracle; a fixed number of
        queries of every shape additionally against the reference
        kernel under naive evaluation.  The oracle repeats the server's
        work, so it is spread over the box's cores — after the timed
        section, never beside it."""
        data: AdhocInputs = ctx.inputs
        began = time.perf_counter()
        replies = [(index, reply["rows"]) for index, reply
                   in section.data["replies"] if reply is not None]
        light = [s for s in data.shapes if s not in REFERENCE_ONCE]
        quota = {shape: 1 if shape in REFERENCE_ONCE else
                 -(-(config.REFERENCE_SAMPLE - len(REFERENCE_ONCE))
                   // len(light)) for shape in data.shapes}
        tasks: Dict[str, bool] = {}
        for index, _ in replies:
            shape, text = data.ops[index]
            if text not in tasks:
                tasks[text] = quota[shape] > 0
                quota[shape] -= 1
        expected = dict(zip(tasks, oracle_results(
            data.records, data.rules, list(tasks.items()))))
        for index, rows in replies:
            shape, text = data.ops[index]
            oracle_rows, reference_rows = expected[text]
            if rows != oracle_rows:
                section.fail(f"wrong_answer:{shape}")
            if reference_rows is not None and reference_rows != oracle_rows:
                section.fail(f"reference_mismatch:{shape}")
                expected[text] = (oracle_rows, None)  # count it once
        section.data["reference_checked"] = sum(tasks.values())
        section.data["verify_s"] = time.perf_counter() - began

    def trace(self, ctx: Context, log: SpanLog, seconds: float,
              quick: bool) -> Tuple[Dict[str, float], Section]:
        data: AdhocInputs = ctx.inputs
        client = ctx.clients[0]
        before = client.metrics()
        section = self.timed_without_gc(ctx, seconds)
        after = client.metrics()
        replies = section.data["replies"]
        hits = metric_delta(before, after, "cache.hits")
        misses = metric_delta(before, after, "cache.misses")
        metrics = {
            "service.cache.hit_ratio": hits / max(1.0, hits + misses),
            "service.cache.evictions":
                metric_delta(before, after, "cache.evictions"),
            "service.rejected_ratio":
                metric_delta(before, after, "queries.rejected")
                / max(1, section.attempted),
            "service.wire.reply_bytes_per_query": mean(
                payload_bytes(reply) for _, reply in replies if reply),
        }
        # The ladder's sample: the ops that would have run next, so the
        # subprocess has not seen them either (one block of the mix).
        size = 10 if quick else config.LADDER_READ_OPS
        sample = [data.op(len(data.ops))[1] for _ in range(size)]
        metrics.update(ladder.read_ladder(log, data.records, data.rules,
                                          sample, ctx.primary.port))
        # The top rung (the traced wire call on one block of the mix)
        # over the untraced section's median.
        metrics["ladder.accounted_share"] = (
            log.median_ms("wire.query.first")
            / max(percentile(section.latencies_ms, 50), 1e-9))
        self.verify(ctx, section)
        return metrics, section
