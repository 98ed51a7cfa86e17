"""stream_ingest — a detector pipeline feeding eight standing queries.

An append-only annotation dump is loaded over the wire into a durable
primary under the default ``--fsync interval`` policy, with eight
standing queries subscribed; one writer connection and one ``listen``
connection.  Phase A (closed loop) ingests 50-record batches as fast as
they are acknowledged: op = one record, giving ``throughput_ops_s``.
Phase B (open loop, run first) commits 25-record batches on a fixed
schedule at ``config.STREAM_RATE`` and times each notification from the
commit's *due* time to its arrival on the listener: ``latency_p50_ms``
/ ``latency_p95_ms``.  Incremental view maintenance does the work;
from-scratch evaluation almost none.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from vidb.errors import VidbError
from vidb.service.server import ServiceClient
from vidb.stream.ingest import Record, record_to_op

from benchmarks.e2e import config, inputs, ladder
from benchmarks.e2e.nodes import Node
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.stats import median, percentile
from benchmarks.e2e.workloads.base import (
    Context,
    Section,
    Workload,
    metric_delta,
    payload_bytes,
)

#: Queue bound asked for each subscription: none of the run's phases
#: commits this many batches, so a drop means lost notifications.
MAX_QUEUE = 4096


class StreamInputs:
    def __init__(self, seed: int):
        self.records = inputs.stream_records(seed)
        self.subscriptions = inputs.stream_subscriptions()


class Listener(threading.Thread):
    """The ``listen`` connection: stamps each push line on arrival."""

    def __init__(self, client: ServiceClient, sub_id: str):
        super().__init__(name="stream-listener", daemon=True)
        self.client = client
        self.sub_id = sub_id
        self.arrivals: List[Tuple[float, Dict[str, Any]]] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            for payload in self.client.listen(self.sub_id):
                self.arrivals.append((time.perf_counter(), payload))
        except (VidbError, OSError) as error:
            self.error = error

    def wait_for(self, count: int, timeout_s: float = 20.0) -> bool:
        give_up = time.perf_counter() + timeout_s
        while len(self.arrivals) < count:
            if time.perf_counter() > give_up or not self.is_alive():
                return False
            time.sleep(0.002)
        return True


class Commit:
    """One batch sent: what it held and when."""

    __slots__ = ("records", "due", "sent", "acked", "epoch")

    def __init__(self, records: List[Record], due: float, sent: float):
        self.records = records
        self.due = due
        self.sent = sent
        self.acked = 0.0
        self.epoch: Optional[int] = None


class StreamIngest(Workload):
    name = "stream_ingest"
    recovery_probe = {"op": "query", "query": "?- interval(G).", "limit": 1}

    def generate(self, seed: int) -> StreamInputs:
        return StreamInputs(seed)

    def start(self, ctx: Context) -> None:
        data: StreamInputs = ctx.inputs
        rules_path = ctx.fleet.workdir / "rules.vdb"
        rules_path.write_text(inputs.STREAM_RULES, encoding="utf-8")
        ctx.data_dir = ctx.fleet.workdir / "state"
        ctx.primary = ctx.fleet.spawn(
            "primary", "serve", "--data-dir", str(ctx.data_dir),
            "--rules", str(rules_path),
            "--checkpoint-every", str(config.STREAM_CHECKPOINT_EVERY),
            "--port", "{port}")
        ctx.primary.wait_ready()
        writer = ctx.connect(ctx.primary)
        request = {"op": "declare_relation", "name": "appears"}
        ctx.user_bytes += payload_bytes(request)
        writer.request(**request)
        ctx.cursor = 0
        while ctx.cursor < config.STREAM_WARMUP_RECORDS:
            self.send(ctx, writer, config.STREAM_INGEST_BATCH)
        ctx.send_batch(writer, [
            {"op": "relate", "relation": "watched", "args": [oid]}
            for oid in inputs.STREAM_WATCHED])
        ctx.sub_ids = [
            writer.subscribe(max_queue=MAX_QUEUE, detach=True, **sub)["id"]
            for sub in data.subscriptions]
        listener = Listener(ctx.connect(ctx.primary),
                            ctx.sub_ids[inputs.STREAM_LISTEN_INDEX])
        listener.start()
        ctx.listener = listener
        ctx.commits = []
        #: Queue depth of the pushed subscription at the end of each
        #: phase: it must not grow.
        ctx.listened_depths = []

    def send(self, ctx: Context, writer: ServiceClient, size: int,
             due: Optional[float] = None) -> Commit:
        """Commit the next *size* records of the dump as one batch."""
        data: StreamInputs = ctx.inputs
        records = data.records[ctx.cursor:ctx.cursor + size]
        if not records:
            raise RuntimeError("stream dump exhausted; raise "
                               "config.STREAM_INTERVALS")
        ctx.cursor += len(records)
        ops = [record_to_op(record) for record in records]
        sent = time.perf_counter()
        commit = Commit(records, sent if due is None else due, sent)
        reply = writer.batch(ops)
        commit.acked = time.perf_counter()
        commit.epoch = reply.get("epoch")
        ctx.user_bytes += payload_bytes({"op": "batch", "ops": ops})
        return commit

    # -- the two phases ---------------------------------------------------------
    def closed_loop(self, ctx: Context, seconds: float) -> List[Commit]:
        writer = ctx.clients[0]
        commits: List[Commit] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            commits.append(self.send(ctx, writer, config.STREAM_INGEST_BATCH))
        ctx.commits += commits
        return commits

    def open_loop(self, ctx: Context, seconds: float,
                  rate: float) -> List[Commit]:
        """Commit on a fixed schedule whatever the replies do; a commit
        that overruns its slot delays the next one, which is sent as
        soon as possible and still timed from when it was due."""
        writer = ctx.clients[0]
        commits: List[Commit] = []
        began = time.perf_counter() + 0.02
        for index in range(int(seconds * rate)):
            due = began + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            commits.append(self.send(ctx, writer, config.STREAM_COMMIT_BATCH,
                                     due=due))
        ctx.commits += commits
        return commits

    def notify_latencies_ms(self, ctx: Context, commits: List[Commit],
                            section: Section) -> List[float]:
        """Due-time-to-arrival latency of each commit's notification."""
        expected = sum(1 for c in ctx.commits if inputs.appears_rows(c.records))
        if not ctx.listener.wait_for(expected):
            section.fail("missing_notification",
                         expected - len(ctx.listener.arrivals))
        by_epoch = {payload.get("epoch"): arrived
                    for arrived, payload in ctx.listener.arrivals}
        # Between phases, consume what the seven polled subscriptions
        # queued, as their clients would; the listened one is pushed.
        for sub_id in ctx.sub_ids:
            if sub_id == ctx.listener.sub_id:
                ctx.listened_depths.append(
                    ctx.clients[0].poll(sub_id, max_batches=0)["pending"])
            else:
                ctx.clients[0].poll(sub_id)
        return [(by_epoch[c.epoch] - c.due) * 1000.0
                for c in commits if c.epoch in by_epoch]

    def timed(self, ctx: Context, seconds: float) -> Section:
        """Phase B before phase A: the paced commits then start from the
        state set-up left, the same in every run, so the server's
        garbage-collection pauses — which set the notify tail — fall on
        the same commits; the closed-loop phase is an average and does
        not mind the larger database."""
        section = Section()
        share = config.STREAM_PHASE_A_SHARE
        paced = self.open_loop(ctx, seconds * (1.0 - share),
                               config.STREAM_RATE)
        section.latencies_ms = self.notify_latencies_ms(ctx, paced, section)
        # After the paced phase the server holds a pinned number of
        # records; after the closed loop, as many as the box managed.
        section.data["rss_mb"] = ctx.fleet.rss_mb()
        ingest = self.closed_loop(ctx, seconds * share)
        section.ops = sum(len(c.records) for c in ingest)
        section.elapsed_s = ingest[-1].acked - ingest[0].sent
        self.notify_latencies_ms(ctx, ingest, section)  # drain phase A
        section.attempted = section.ops + sum(len(c.records) for c in paced)
        section.data["generator_lag_ms"] = [
            (c.sent - c.due) * 1000.0 for c in paced]
        section.data["paced_commits"] = len(paced)
        section.data["ingest_commits"] = len(ingest)
        return section

    # -- checks -------------------------------------------------------------------
    def verify(self, ctx: Context, section: Section) -> None:
        """Notifications gap-free by ``seq`` and equal, commit by commit,
        to the inserted ``appears`` facts; the identical subscription
        saw exactly the same; nothing was dropped anywhere."""
        arrivals = [payload for _, payload in ctx.listener.arrivals]
        for position, payload in enumerate(arrivals, start=1):
            if payload.get("seq") != position:
                section.fail("notification_gap")
                break
        notifying = [c for c in ctx.commits if inputs.appears_rows(c.records)]
        for commit, payload in zip(notifying, arrivals):
            if (payload.get("epoch") != commit.epoch
                    or payload.get("rows") != inputs.appears_rows(
                        commit.records)):
                section.fail("wrong_notification")
        if ctx.listener.error is not None:
            section.fail(f"error:{type(ctx.listener.error).__name__}")
        status = {row["id"]: row for row in ctx.clients[0].subscriptions()}
        listened, twin = (status[ctx.sub_ids[i]] for i in (
            inputs.STREAM_LISTEN_INDEX, inputs.STREAM_LISTEN_INDEX + 1))
        if (twin["batches"], twin["rows"]) != (listened["batches"],
                                               listened["rows"]):
            section.fail("identical_subscription_diverged")
        dropped = sum(row["dropped_batches"] for row in status.values())
        if dropped:
            section.fail("dropped_batches", dropped)
        section.data["subscriptions"] = list(status.values())

    def settle(self, ctx: Context) -> None:
        self.stop(ctx)
        ctx.intervals_sent = sum(
            1 for r in ctx.inputs.records[:ctx.cursor]
            if r["kind"] == "interval")

    def stop(self, ctx: Context) -> None:
        """Closing its subscription ends the listener's push stream."""
        listener = getattr(ctx, "listener", None)
        if listener is None or not listener.is_alive():
            return
        try:
            ctx.clients[0].unsubscribe(listener.sub_id)
        except (VidbError, OSError):
            pass  # the primary is gone; its death ends the stream too
        listener.join(timeout=10)

    def after_restart(self, ctx: Context, node: Node,
                      section: Section) -> None:
        reply = node.request(self.recovery_probe) or {}
        lost = ctx.intervals_sent - int(reply.get("count", 0))
        if lost:
            section.fail("lost_acknowledged_write", abs(lost))

    # -- the traced run -----------------------------------------------------------
    def trace(self, ctx: Context, log: SpanLog, seconds: float,
              quick: bool) -> Tuple[Dict[str, float], Section]:
        data: StreamInputs = ctx.inputs
        writer = ctx.clients[0]
        # The ladder's top rung first, while the server is in the state
        # set-up left: the commits phase B would send, traced.
        prefix = data.records[:ctx.cursor] + [
            {"t": 0.0, "kind": "fact", "relation": "watched", "args": [oid]}
            for oid in inputs.STREAM_WATCHED]
        sample: List[List[Record]] = []
        for op_id in range(5 if quick else config.LADDER_WRITE_COMMITS):
            with log.op(op_id), log.span("wire.write"):
                commit = self.send(ctx, writer, config.STREAM_COMMIT_BATCH)
            ctx.commits.append(commit)
            sample.append(commit.records)
        before, bytes_before = writer.metrics(), ctx.user_bytes
        section = self.timed_without_gc(ctx, seconds)
        after, bytes_after = writer.metrics(), ctx.user_bytes
        commits = section.data["paced_commits"] + section.data["ingest_commits"]
        paced_epochs = {c.epoch for c in ctx.commits[len(sample):][
            :section.data["paced_commits"]]}
        server_ms = [payload.get("latency_ms", 0.0)
                     for _, payload in ctx.listener.arrivals
                     if payload.get("epoch") in paced_epochs]
        # Two further pinned rates, briefly, for the rate ladder.
        brief = seconds * 0.4
        rates = (config.STREAM_RATE_LO, config.STREAM_RATE,
                 config.STREAM_RATE_HI)
        p95 = {config.STREAM_RATE: percentile(section.latencies_ms, 95)}
        lag95 = {config.STREAM_RATE: percentile(
            section.data["generator_lag_ms"], 95)}
        for rate in (config.STREAM_RATE_LO, config.STREAM_RATE_HI):
            paced = self.open_loop(ctx, brief, rate)
            p95[rate] = percentile(
                self.notify_latencies_ms(ctx, paced, section), 95)
            lag95[rate] = percentile(
                [(c.sent - c.due) * 1000.0 for c in paced], 95)
        # A rate is within the limit when its tail is and the generator
        # kept its schedule (a growing backlog shows as lateness).
        within = [rate for rate in rates
                  if p95[rate] <= config.STREAM_NOTIFY_LIMIT_MS
                  and lag95[rate] < 1000.0 / rate]
        self.verify(ctx, section)
        status = section.data["subscriptions"]
        metrics = {
            "stream.hub.deltas": metric_delta(before, after, "stream.deltas"),
            "stream.lag_events":
                metric_delta(before, after, "stream.lag_events"),
            "stream.dropped_batches":
                float(sum(row["dropped_batches"] for row in status)),
            "stream.queue_depth_max": float(max(ctx.listened_depths)),
            "stream.notify.server_ms_p50": median(server_ms),
            "stream.generator_lag_p95_ms": lag95[config.STREAM_RATE],
            "stream.notify_p95_ms.rate_lo": p95[config.STREAM_RATE_LO],
            "stream.notify_p95_ms.rate_hi": p95[config.STREAM_RATE_HI],
            "stream.max_rate_within_limit": max(within, default=0.0),
            "durability.wal.records_per_commit":
                metric_delta(before, after, "wal.records") / max(1, commits),
            "durability.wal.syncs_per_commit":
                metric_delta(before, after, "wal.syncs") / max(1, commits),
            "durability.wal.bytes_per_user_byte":
                metric_delta(before, after, "wal.bytes")
                / max(1, bytes_after - bytes_before),
        }
        scratch = ctx.fleet.workdir
        metrics.update(ladder.storage_and_wal_rungs(log, prefix, sample,
                                                    scratch))
        metrics.update(ladder.stream_rungs(log, prefix, sample,
                                           data.subscriptions,
                                           inputs.STREAM_RULES))
        ladder.service_rung(log, prefix, sample, scratch, "interval",
                            inputs.STREAM_RULES, data.subscriptions)
        metrics["ladder.accounted_share"] = (
            log.median_ms("wire.write")
            / max(percentile(section.latencies_ms, 50), 1e-9))
        return metrics, section
