"""What the four workloads share: the run skeleton and its bookkeeping.

One run is: set up ``SETUP_REPEATS`` times; after each of the last
``Workload.sections`` set-ups drive a timed section and check every
answer; settle the last set-up's data directory to a pinned state,
SIGKILL it, restart the primary ``RECOVERY_REPEATS`` times on that
directory, tear everything down.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from vidb.service.server import ServiceClient

from benchmarks.e2e import config, inputs
from benchmarks.e2e.nodes import HOST, OUT_DIR, Fleet, Node, dir_bytes
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.stats import median, percentile


class Section:
    """What one timed section observed."""

    def __init__(self) -> None:
        self.ops = 0                      # completed ops
        self.attempted = 0
        self.elapsed_s = 0.0
        self.latencies_ms: List[float] = []
        self.failures: Counter = Counter()
        #: Free-form per-workload observations (replies to verify,
        #: counts the traced run reports).
        self.data: Dict[str, Any] = {}

    def fail(self, name: str, count: int = 1) -> None:
        self.failures[name] += count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Context:
    """One live set-up: the fleet, its primary and the open clients.
    Workloads hang their own state on it as plain attributes (the
    stream's cursor and listener, the acknowledged writes, ...)."""

    def __init__(self, fleet: Fleet, seed: int, inputs: Any,
                 quick: bool = False):
        self.fleet = fleet
        self.seed = seed
        self.inputs = inputs
        #: A smoke run: pinned sizes shrink twentyfold.
        self.quick = quick
        self.primary: Optional[Node] = None
        self.data_dir: Optional[Path] = None
        self.clients: List[ServiceClient] = []
        #: Request-payload bytes of every mutation sent so far.
        self.user_bytes = 0

    def connect(self, node: Node, timeout: float = 60.0) -> ServiceClient:
        client = ServiceClient(HOST, node.port, timeout=timeout)
        self.clients.append(client)
        return client

    def send_batch(self, client: ServiceClient,
                   ops: List[Dict[str, Any]]) -> Dict[str, Any]:
        self.user_bytes += payload_bytes({"op": "batch", "ops": ops})
        return client.batch(ops)

    def close_clients(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        self.clients = []


def payload_bytes(request: Dict[str, Any]) -> int:
    """Bytes of *request* on the wire (one JSON line)."""
    return len(json.dumps(request)) + 1


def metric_delta(before: Dict[str, Any], after: Dict[str, Any],
                 key: str) -> float:
    return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)


def start_loaded_primary(ctx: Context, records, *serve_args: str) -> ServiceClient:
    """Start ``vidb serve`` on a fresh data directory and load *records*
    over the wire; returns the connected client."""
    ctx.data_dir = ctx.fleet.workdir / "state"
    ctx.primary = ctx.fleet.spawn(
        "primary", "serve", "--data-dir", str(ctx.data_dir),
        "--port", "{port}", *serve_args)
    ctx.primary.wait_ready()
    client = ctx.connect(ctx.primary)
    for batch in inputs.load_batches(records, config.LOAD_BATCH):
        ctx.send_batch(client, batch)
    return client


class Workload:
    """Template of one workload; subclasses fill in the stages."""

    name = ""
    #: Timed sections per run, each on its own fresh set-up.
    sections = 3
    #: ``server_rss_mb`` is read at the end of each timed section, or —
    #: where the section leaves a state that depends on how much it
    #: fitted — once, in the pinned state ``settle`` leaves.
    rss_after_settle = False
    #: The read whose first success on the restarted primary ends
    #: ``recovery_s``.
    recovery_probe: Dict[str, Any] = {"op": "query", "query": "?- object(O).",
                                      "limit": 1}

    # -- stages subclasses implement ----------------------------------------
    def generate(self, seed: int) -> Any:
        """Inputs from the seed (pure)."""
        raise NotImplementedError

    def start(self, ctx: Context) -> None:
        """Start the nodes, load, warm up, compute the oracle."""
        raise NotImplementedError

    def timed(self, ctx: Context, seconds: float) -> Section:
        raise NotImplementedError

    def verify(self, ctx: Context, section: Section) -> None:
        """Check the section's answers; count mismatches as failures."""

    def settle(self, ctx: Context) -> None:
        """Bring the data directory to its pinned pre-kill state."""

    def settled_rss_mb(self, ctx: Context) -> float:
        """``server_rss_mb`` of the pinned state (``rss_after_settle``)."""
        return ctx.fleet.rss_mb()

    def after_restart(self, ctx: Context, node: Node,
                      section: Section) -> None:
        """Checks against the restarted primary (durability)."""

    # -- the run skeleton -----------------------------------------------------
    def set_up(self, seed: int, quick: bool = False) -> Context:
        fleet = Fleet(self.name)
        try:
            ctx = Context(fleet, seed, self.generate(seed), quick)
            self.start(ctx)
        except BaseException:
            fleet.close()
            raise
        return ctx

    def stop(self, ctx: Context) -> None:
        """End the workload's own threads (best effort; the nodes are
        killed right after)."""

    def tear_down(self, ctx: Context) -> None:
        # Nodes die before the clients close: a client blocked reading
        # pushes wakes on the dead socket instead of holding its lock.
        try:
            self.stop(ctx)
        finally:
            ctx.fleet.close()
            ctx.close_clients()

    def run(self, seed: int, seconds: float,
            quick: bool = False) -> Dict[str, Any]:
        """The untraced run: every end-to-end metric.

        Each of the last ``self.sections`` set-ups is followed by a
        timed section of ``seconds / self.sections``; a metric is the
        median over the sections, so one slow spell of the box costs one
        sample, not the run.  The last set-up is then crashed and
        restarted.
        """
        repeats = 1 if quick else config.SETUP_REPEATS
        timed_from = repeats - min(self.sections, repeats)
        share = seconds / (repeats - timed_from)
        setups: List[float] = []
        sections: List[Section] = []
        rss_mb: List[float] = []
        ctx: Optional[Context] = None
        try:
            for repeat in range(repeats):
                if ctx is not None:
                    self.tear_down(ctx)
                began = time.perf_counter()
                ctx = self.set_up(seed, quick)
                setups.append(time.perf_counter() - began)
                if repeat >= timed_from:
                    section = self.timed_without_gc(ctx, share)
                    rss_mb.append(section.data.get("rss_mb")
                                  or ctx.fleet.rss_mb())
                    self.verify(ctx, section)
                    sections.append(section)
            assert ctx is not None and ctx.primary is not None
            self.settle(ctx)
            if self.rss_after_settle:
                rss_mb = [self.settled_rss_mb(ctx)]
            last = sections[-1]
            recoveries = self.crash_and_restart(
                ctx, last, 1 if quick else config.RECOVERY_REPEATS)
            stored = dir_bytes(ctx.data_dir) / max(1, ctx.user_bytes)
        finally:
            if ctx is not None:
                self.tear_down(ctx)
        failures: Counter = Counter()
        for section in sections:
            failures.update(section.failures)
        return {
            "attempted": sum(s.attempted for s in sections),
            "failed": sum(failures.values()),
            "failures": dict(failures),
            "metrics": {
                "setup_s": median(setups),
                "throughput_ops_s": median(
                    [max(0, s.ops - s.failed) / s.elapsed_s
                     for s in sections]),
                "latency_p50_ms": median(
                    [percentile(s.latencies_ms, 50) for s in sections]),
                "latency_p95_ms": median(
                    [percentile(s.latencies_ms, 95) for s in sections]),
                "recovery_s": median(recoveries),
                "stored_bytes_per_user_byte": stored,
                "server_rss_mb": median(rss_mb),
            },
            "info": {
                "sections": len(sections),
                "ops": [s.ops for s in sections],
                "elapsed_s": [round(s.elapsed_s, 3) for s in sections],
                "latency_samples": [len(s.latencies_ms) for s in sections],
                **{f"latency_p{p}_ms": [round(percentile(s.latencies_ms, p), 3)
                                        for s in sections]
                   for p in (50, 95, 99)},
                "setup_runs_s": setups,
                "recovery_runs_s": recoveries,
                **{k: v for k, v in last.data.items()
                   if isinstance(v, (int, float, str))},
            },
        }

    def timed_without_gc(self, ctx: Context, seconds: float,
                         *extra: Any) -> Section:
        """The timed section with the generator's own cyclic collector
        off: a pause of the harness must not read as server latency or
        make an open-loop sender late."""
        gc.collect()
        gc.disable()
        try:
            return self.timed(ctx, seconds, *extra)
        finally:
            gc.enable()

    def crash_and_restart(self, ctx: Context, section: Section,
                          repeats: int) -> List[float]:
        """SIGKILL the primary, then time restarts on its data
        directory from spawn to the first successful read.  Nothing is
        written between restarts and recovery does not checkpoint, so
        every restart replays the same WAL tail."""
        assert ctx.primary is not None
        # Everything dies, not only the primary: a replica still polling
        # the data directory would share the restart's cores.
        for node in ctx.fleet.nodes:
            node.kill()
        ctx.close_clients()
        recoveries = []
        for attempt in range(repeats):
            node = ctx.fleet.respawn(ctx.primary)
            try:
                recoveries.append(node.wait_ready(self.recovery_probe))
                if attempt == repeats - 1:
                    self.after_restart(ctx, node, section)
            finally:
                node.kill()
        return recoveries

    # -- the traced run ---------------------------------------------------------
    def trace(self, ctx: Context, log: SpanLog, seconds: float,
              quick: bool) -> Tuple[Dict[str, float], Section]:
        """A counting section (untraced, server counters read before and
        after) then the ladder; returns the per-layer metrics this
        workload exercises and the section."""
        raise NotImplementedError

    def run_traced(self, seed: int, seconds: float,
                   quick: bool = False) -> Dict[str, Any]:
        """The traced run: set up once, count, climb the ladder, write
        ``out/trace_<workload>.json``.  Layers the workload does not
        exercise are left out here and read 0 in the result."""
        ctx = self.set_up(seed, quick)
        log = SpanLog()
        try:
            metrics, section = self.trace(
                ctx, log, seconds * config.TRACED_SECTION_SHARE, quick)
        finally:
            self.tear_down(ctx)
        metrics["ladder.span_overhead_ms"] = log.overhead_ms()
        metrics["e2e.latency_p50_ms"] = percentile(section.latencies_ms, 50)
        metrics["e2e.latency_p99_ms"] = percentile(section.latencies_ms, 99)
        metrics["e2e.failed_ops_ratio"] = (
            section.failed / max(1, section.attempted))
        log.dump(OUT_DIR / f"trace_{self.name}.json", metrics)
        return {"attempted": section.attempted, "failed": section.failed,
                "failures": dict(section.failures), "metrics": metrics,
                "info": {"spans": len(log.spans), "ops": section.ops}}
