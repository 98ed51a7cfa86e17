"""write_recover — an annotator's single acknowledged writes, then a crash.

One connection, closed loop, against ``serve --checkpoint-every 1500``
under the default ``--fsync interval``; op = one acknowledged write
(entity / interval / ``relate`` round-robin).  After the timed sections
the last set-up writes on to a pinned count and a pinned WAL tail, the
primary is SIGKILLed, and ``recovery_s`` is the time from spawning it
again on the same directory to its first successful read; every
acknowledged write must be readable afterwards.  WAL, snapshot and
recovery dominate; no query engine, no router.

The issue asked for ``--fsync always``.  Three fsyncs per write made
the write latency a measurement of the sandbox's disk: with the box
otherwise idle the same commit gave p50 0.8 ms, 1.6 ms and 2.9 ms
within one hour (``fsync`` itself moved from 0.10 to 0.22 ms), which no
bound can hold.  By the issue's own rule the per-write-fsync latency is
therefore demoted to the per-layer list: the traced run measures it
against a second primary started with ``--fsync always``
(``durability.wal.fsync_always_write_p50_ms``), next to the ladder's
``durability.wal.fsync_ms_per_commit`` rung.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterator, List, Tuple

from vidb.errors import VidbError
from vidb.service.server import ServiceClient
from vidb.stream.ingest import Record, record_to_op

from benchmarks.e2e import config, inputs, ladder
from benchmarks.e2e.nodes import HOST, Node
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.stats import median, percentile
from benchmarks.e2e.workloads.base import (
    Context,
    Section,
    Workload,
    metric_delta,
    payload_bytes,
)


class WriteInputs:
    def __init__(self, seed: int):
        self.records: Iterator[Record] = inputs.write_records(seed)


class WriteRecover(Workload):
    name = "write_recover"
    rss_after_settle = True

    def generate(self, seed: int) -> WriteInputs:
        return WriteInputs(seed)

    def start(self, ctx: Context) -> None:
        ctx.data_dir = ctx.fleet.workdir / "state"
        ctx.primary = ctx.fleet.spawn(
            "primary", "serve", "--data-dir", str(ctx.data_dir),
            "--checkpoint-every", str(config.WRITE_CHECKPOINT_EVERY),
            "--port", "{port}")
        ctx.primary.wait_ready()
        writer = ctx.connect(ctx.primary)
        ctx.acked = []
        ctx.rss_samples = []
        for record in itertools.islice(ctx.inputs.records,
                                       config.WRITE_WARMUP_OPS):
            self.write(ctx, writer, record)

    def write(self, ctx: Context, writer: ServiceClient,
              record: Record) -> None:
        """One single-op write; remembered once acknowledged."""
        writer.request(**record_to_op(record))
        ctx.acked.append(record)
        if len(ctx.acked) % config.WRITE_RSS_EVERY == 0:
            ctx.rss_samples.append(ctx.primary.rss_mb())

    @staticmethod
    def settle_multiple(ctx: Context) -> int:
        return config.WRITE_SETTLE_MULTIPLE // (20 if ctx.quick else 1)

    def timed(self, ctx: Context, seconds: float) -> Section:
        section = Section()
        writer = ctx.clients[0]
        records = ctx.inputs.records
        latencies = section.latencies_ms
        first = len(ctx.acked)
        # The section ends early at the count ``settle`` pins, so a
        # faster program or box cannot push the crash state (and with it
        # recovery_s, the stored bytes and the resident set) to the next
        # multiple; throughput is ops over the time they took either way.
        cap = self.settle_multiple(ctx) - first
        began = now = time.perf_counter()
        deadline = began + seconds
        while now < deadline and len(latencies) < cap:
            try:
                self.write(ctx, writer, next(records))
            except (VidbError, OSError) as error:
                section.fail(f"error:{type(error).__name__}")
            done = time.perf_counter()
            latencies.append((done - now) * 1000.0)
            now = done
        section.ops = section.attempted = len(latencies)
        section.elapsed_s = now - began
        section.data["first_op"] = first
        section.data["began"] = began
        return section

    def settle(self, ctx: Context) -> None:
        """Write on to the next multiple of ``WRITE_SETTLE_MULTIPLE``
        acknowledged writes, then until the pinned number of WAL records
        is outstanding since the last checkpoint: every run crashes in
        the same state."""
        writer = ctx.clients[0]
        records = ctx.inputs.records
        multiple = self.settle_multiple(ctx)
        while len(ctx.acked) % multiple:
            self.write(ctx, writer, next(records))
        target = config.WRITE_KILL_TAIL_RECORDS
        while True:
            outstanding = writer.metrics().get("wal.since_checkpoint", 0)
            if target <= outstanding < target + 3:
                break
            # A single write journals three records.  Past the target,
            # step one write at a time until the next checkpoint resets
            # the count.
            step = max(1, (target - outstanding) // 3)
            for record in itertools.islice(records, step):
                self.write(ctx, writer, record)
        ctx.user_bytes = sum(payload_bytes(record_to_op(record))
                             for record in ctx.acked)

    def settled_rss_mb(self, ctx: Context) -> float:
        """The median of the primary's resident set sampled every
        ``WRITE_RSS_EVERY`` writes over the last six checkpoints before
        the pinned state.  One reading swings by ±5 MB with what the
        allocator kept of the last snapshot's transient (75 against
        84 MB at the same write count), more than the metric's bound."""
        return median(ctx.rss_samples[-config.WRITE_RSS_SAMPLES:]
                      or [ctx.fleet.rss_mb()])

    def after_restart(self, ctx: Context, node: Node,
                      section: Section) -> None:
        """Every acknowledged write is readable on the restarted node."""
        with ServiceClient(HOST, node.port, timeout=120.0) as reader:
            entities = {row[0] for row in
                        reader.query("?- object(O).")["rows"]}
            intervals = {row[0] for row in
                         reader.query("?- interval(G).")["rows"]}
            facts = {tuple(row) for row in
                     reader.query("?- in(A, B, G).")["rows"]}
        lost = 0
        for record in ctx.acked:
            if record["kind"] == "entity":
                lost += record["oid"] not in entities
            elif record["kind"] == "interval":
                lost += record["oid"] not in intervals
            else:
                lost += tuple(record["args"]) not in facts
        if lost:
            section.fail("lost_acknowledged_write", lost)
        section.data["acknowledged_writes"] = len(ctx.acked)

    # -- the traced run -----------------------------------------------------------
    @staticmethod
    def checkpoint_stall_max_ms(section: Section, events: List[Dict],
                                clock_offset: float) -> float:
        """The slowest acknowledged write during which a checkpoint
        completed: the spike a median hides.  Checkpoint events carry
        wall-clock stamps; *clock_offset* maps them onto the section's
        ``perf_counter`` timeline."""
        ends, now = [], section.data["began"]
        for latency in section.latencies_ms:
            now += latency / 1000.0
            ends.append(now)
        stall = 0.0
        for event in events:
            at = event["ts"] - clock_offset
            for end, latency in zip(ends, section.latencies_ms):
                if end - latency / 1000.0 <= at <= end + 0.0005:
                    stall = max(stall, latency)
        return stall

    def fsync_always_write_p50_ms(self, ctx: Context, writes: int) -> float:
        """Median latency of the same single writes against a second
        primary that fsyncs every append: the policy the end-to-end
        runs cannot hold a bound under."""
        node = ctx.fleet.spawn(
            "fsync-always", "serve", "--data-dir",
            str(ctx.fleet.workdir / "state-always"), "--fsync", "always",
            "--checkpoint-every", str(config.WRITE_CHECKPOINT_EVERY),
            "--port", "{port}")
        latencies = []
        try:
            node.wait_ready()
            with ServiceClient(HOST, node.port) as writer:
                for record in itertools.islice(
                        inputs.write_records(ctx.seed), writes):
                    began = time.perf_counter()
                    writer.request(**record_to_op(record))
                    latencies.append((time.perf_counter() - began) * 1000.0)
        finally:
            node.kill()
        return percentile(latencies, 50)

    def trace(self, ctx: Context, log: SpanLog, seconds: float,
              quick: bool) -> Tuple[Dict[str, float], Section]:
        writer = ctx.clients[0]
        # The ladder's top rung first, while the server is in the state
        # set-up left: the next single writes, traced.
        prefix = list(ctx.acked)
        sample = []
        for op_id in range(10 if quick else config.LADDER_WRITE_COMMITS * 3):
            record = next(ctx.inputs.records)
            with log.op(op_id), log.span("wire.write"):
                self.write(ctx, writer, record)
            sample.append([record])
        clock_offset = time.time() - time.perf_counter()
        before = writer.metrics()
        section = self.timed_without_gc(ctx, seconds)
        after = writer.metrics()
        written = ctx.acked[section.data["first_op"]:]
        user_bytes = sum(payload_bytes(record_to_op(r)) for r in written)
        metrics = {
            "durability.wal.records_per_commit":
                metric_delta(before, after, "wal.records")
                / max(1, section.ops),
            "durability.wal.syncs_per_commit":
                metric_delta(before, after, "wal.syncs")
                / max(1, section.ops),
            "durability.wal.bytes_per_user_byte":
                metric_delta(before, after, "wal.bytes") / max(1, user_bytes),
            "durability.checkpoints":
                metric_delta(before, after, "snapshots.taken"),
            "durability.checkpoint_stall_max_ms": self.checkpoint_stall_max_ms(
                section, writer.events(type="checkpoint"), clock_offset),
        }
        scratch = ctx.fleet.workdir
        metrics.update(ladder.storage_and_wal_rungs(log, prefix, sample,
                                                    scratch))
        ladder.service_rung(log, prefix, sample, scratch, "interval", None, ())
        metrics["durability.wal.fsync_always_write_p50_ms"] = (
            self.fsync_always_write_p50_ms(ctx, len(sample) * 3))
        metrics["ladder.accounted_share"] = (
            log.median_ms("wire.write")
            / max(percentile(section.latencies_ms, 50), 1e-9))
        # Crash as the untraced run does, then take the recovery ladder
        # on a copy of the killed directory.
        self.settle(ctx)
        for node in ctx.fleet.nodes:
            node.kill()
        ctx.close_clients()
        metrics.update(ladder.recovery_ladder(log, ctx.data_dir, scratch))
        node = ctx.fleet.respawn(ctx.primary)
        try:
            node.wait_ready(self.recovery_probe)
            self.after_restart(ctx, node, section)
        finally:
            node.kill()
        return metrics, section
