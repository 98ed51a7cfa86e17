"""Command-line interface for vidb databases.

Commands::

    vidb demo --out rope.json            write the paper's Rope example DB
    vidb info rope.json                  stats + schema-free validation
    vidb query rope.json "?- ..."        evaluate a query, print the answers
    vidb facts rope.json contains -r f   materialise rules, print a relation
    vidb explain rope.json "?- ..."      print derivation trees
    vidb lint rules.vdb                  static analysis: VDB0xx diagnostics
    vidb edl rope.json "?- ..." G        compile interval answers to an EDL
    vidb analytics rope.json             screen time and co-occurrence report
    vidb timeline rope.json              ASCII Gantt chart of the intervals
    vidb serve rope.json --port 7421     run the JSON-lines query server
    vidb serve --data-dir state          serve durably (WAL + snapshots)
    vidb serve ... --metrics-port 9464   also expose Prometheus /metrics
    vidb recover state                   inspect/replay a data directory
    vidb replicate state --once          follow a primary's WAL locally
    vidb replicate state --serve-port 0  ...and serve reads while following
    vidb router --primary H:P --replica H:P   cluster front door
    vidb promote --replica H:P --data-dir new    failover promotion
    vidb client query "?- ..."           talk to a running server
    vidb client subscribe "?- ..."       register a standing query
    vidb client listen "?- ..."          subscribe + stream push batches
    vidb ingest dump.jsonl --port 7421   bulk-load an annotation dump
    vidb ingest --generate --out d.jsonl write a synthetic dump
    vidb top --port 7421                 live QPS/latency/cache view
    vidb top --cluster H:P               fleet view via a router
    vidb client --cluster --trace query ...   traced query via a router
    vidb trace --cluster H:P             recent distributed traces
    vidb trace TRACE_ID --cluster H:P    render one cross-process tree

Exit status 0 on success, 2 on a user-input error (bad query syntax,
model violations, missing files — plus argparse's own usage errors),
1 on any other vidb error.  Errors print as a one-line message on
stderr, never a traceback.  ``lint`` has its own contract: 0 clean,
1 warnings under ``--strict``, 2 errors.

``main()`` takes an ``argv`` list and returns the exit status, so the CLI
is fully testable in-process; the console entry point wraps it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from vidb.bench.tables import format_table
from vidb.errors import (
    ConstraintError,
    ModelError,
    QueryError,
    StandingQueryError,
    VidbError,
)
from vidb.obs.metrics import format_snapshot
from vidb.presentation.edl import edl_from_query
from vidb.query.engine import QueryEngine
from vidb.query.execution import ExecutionOptions
from vidb.storage.database import VideoDatabase
from vidb.storage.persistence import load, save
from vidb.workloads.paper import rope_database


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vidb",
        description="Query and inspect vidb video databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="write the Rope example database")
    demo.add_argument("--out", default="rope.json",
                      help="snapshot path (default: rope.json)")

    info = sub.add_parser("info", help="database statistics and validation")
    info.add_argument("database")

    query = sub.add_parser("query", help="evaluate a query")
    query.add_argument("database")
    query.add_argument("query", help='e.g. "?- interval(G), object(O), '
                                     'O in G.entities."')
    _common_engine_flags(query)
    query.add_argument("--limit", type=int, default=None,
                       help="print at most N answers")
    query.add_argument("--stats", action="store_true",
                       help="print evaluation statistics after the answers")
    query.add_argument("--profile", action="store_true",
                       help="run traced and print the per-stage / per-rule "
                            "execution profile (EXPLAIN ANALYZE style)")
    query.add_argument("--timeout", type=float, default=None,
                       help="per-query deadline in seconds")
    query.add_argument("--no-prune", action="store_true",
                       help="saturate the whole program instead of "
                            "seeding the rules from the query's constants "
                            "(no demand rewrite, no rule pruning)")

    facts = sub.add_parser("facts",
                           help="materialise the rules, print one relation")
    facts.add_argument("database")
    facts.add_argument("predicate")
    _common_engine_flags(facts)

    explain = sub.add_parser("explain", help="print derivation trees")
    explain.add_argument("database")
    explain.add_argument("query")
    _common_engine_flags(explain)

    lint = sub.add_parser(
        "lint", help="statically analyze rule/query files (no evaluation)")
    lint.add_argument("files", nargs="+", metavar="FILE",
                      help="rule/query document(s) to analyze")
    lint.add_argument("--database", "-d", default=None,
                      help="snapshot whose relations count as defined; "
                           "makes undefined predicates errors "
                           "(closed world) instead of warnings")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 when warnings were found")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit diagnostics as one JSON object")
    lint.add_argument("--fix", action="store_true",
                      help="apply verified autofixes in place (drop dead "
                           "rules, remove redundant constraints) before "
                           "reporting; every fix is proved "
                           "kernel-equivalent first")
    lint.add_argument("--dry-run", action="store_true",
                      help="with --fix: report the fixes without writing "
                           "the files back")

    edl = sub.add_parser("edl", help="compile interval answers into an EDL")
    edl.add_argument("database")
    edl.add_argument("query")
    edl.add_argument("variable", help="answer variable bound to intervals")
    edl.add_argument("--title", default="vidb presentation")
    _common_engine_flags(edl)

    analytics = sub.add_parser(
        "analytics", help="screen time, co-occurrence and coverage report")
    analytics.add_argument("database")
    analytics.add_argument("--top", type=int, default=10,
                           help="rows per table (default 10)")
    analytics.add_argument("--bins", type=int, default=12,
                           help="activity histogram bins (default 12)")

    timeline = sub.add_parser(
        "timeline", help="ASCII Gantt chart of the described intervals")
    timeline.add_argument("database")
    timeline.add_argument("--width", type=int, default=48)
    timeline.add_argument("--label", default=None,
                          help="interval attribute to use as the row label")

    serve = sub.add_parser(
        "serve", help="run the JSON-lines TCP query server")
    serve.add_argument("database", nargs="?", default=None,
                       help="snapshot to serve (seeds --data-dir when the "
                            "directory is empty)")
    serve.add_argument("--data-dir", default=None,
                       help="durable data directory: recover on start, "
                            "journal every mutation to a WAL")
    serve.add_argument("--fsync", choices=["always", "interval", "never"],
                       default="interval",
                       help="WAL fsync policy (default interval)")
    serve.add_argument("--fsync-interval", type=float, default=0.1,
                       help="seconds between fsyncs under --fsync interval")
    serve.add_argument("--checkpoint-every", type=int, default=1000,
                       help="journaled mutations between snapshots; a "
                            "snapshot waits for the commit that reaches the "
                            "count (default 1000)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=_positive_int, default=4,
                       help="queries evaluating at once (default 4)")
    serve.add_argument("--max-in-flight", type=_positive_int, default=None,
                       help="admission-control bound (default workers*4)")
    serve.add_argument("--cache-capacity", type=int, default=256,
                       help="result-cache entries (default 256)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-query deadline in seconds")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="expose Prometheus /metrics plus /healthz and "
                            "/readyz on this HTTP port (0 picks an "
                            "ephemeral port; default: disabled)")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS",
                       help="emit a structured slow_query event for "
                            "queries at or above this many milliseconds "
                            "(default: disabled)")
    serve.add_argument("--event-log", default=None, metavar="PATH",
                       help="append structured JSON events to PATH "
                            "('-' for stderr; the in-memory ring behind "
                            "the events op is always on)")
    serve.add_argument("--read-only", action="store_true",
                       help="reject every mutation with a read_only "
                            "error (serve a snapshot as a static "
                            "read tier)")
    serve.add_argument("--max-subscriptions", type=int, default=64,
                       help="standing-query admission bound (default 64)")
    serve.add_argument("--subscription-queue", type=int, default=256,
                       metavar="BATCHES",
                       help="notification batches buffered per "
                            "subscription before lagging (default 256)")
    _trace_flags(serve)
    serve.add_argument("--no-streaming", action="store_true",
                       help="disable the streaming layer (no standing "
                            "queries, no observer-fed views)")
    _common_engine_flags(serve)

    ingest = sub.add_parser(
        "ingest", help="bulk-load a timestamp-ordered JSON-lines "
                       "annotation dump through batched transactions")
    ingest.add_argument("dump", nargs="?", default=None,
                        help="the dump file ('-' for stdin)")
    ingest.add_argument("--host", default="127.0.0.1")
    ingest.add_argument("--port", type=int, default=7421)
    ingest.add_argument("--batch-size", type=int, default=100,
                        help="records per transaction — each batch is one "
                             "atomic commit and one standing-query "
                             "notification round (default 100)")
    ingest.add_argument("--progress-every", type=int, default=0, metavar="N",
                        help="print a progress line every N batches")
    ingest.add_argument("--generate", action="store_true",
                        help="write a synthetic detector-style dump "
                             "instead of ingesting")
    ingest.add_argument("--entities", type=int, default=10,
                        help="with --generate: tracked subjects (default 10)")
    ingest.add_argument("--intervals", type=int, default=100,
                        help="with --generate: appearance intervals "
                             "(default 100)")
    ingest.add_argument("--relation", default="appears",
                        help="with --generate: linking relation name "
                             "(default appears)")
    ingest.add_argument("--seed", type=int, default=0,
                        help="with --generate: RNG seed (default 0)")
    ingest.add_argument("--out", default=None,
                        help="with --generate: output path "
                             "(default stdout)")

    recover_p = sub.add_parser(
        "recover", help="recover a durable data directory and report")
    recover_p.add_argument("data_dir")
    recover_p.add_argument("--out", default=None,
                           help="also write the recovered database as a "
                                "JSON snapshot")
    recover_p.add_argument("--profile", action="store_true",
                           help="print the recovery span tree")

    replicate = sub.add_parser(
        "replicate", help="follow a primary's WAL as a read replica")
    replicate.add_argument("data_dir", nargs="?", default=None,
                           help="the primary's data directory (filesystem "
                                "log shipping)")
    replicate.add_argument("--server", default=None, metavar="HOST:PORT",
                           help="pull the WAL from a running durable "
                                "server instead of a directory")
    replicate.add_argument("--once", action="store_true",
                           help="poll once, report, and exit")
    replicate.add_argument("--interval", type=float, default=1.0,
                           help="seconds between polls (default 1)")
    replicate.add_argument("--out", default=None,
                           help="write the replica state as a JSON "
                                "snapshot after each poll")
    replicate.add_argument("--metrics-port", type=int, default=None,
                           metavar="PORT",
                           help="expose replica lag and apply counters "
                                "as Prometheus /metrics on this port")
    replicate.add_argument("--serve-port", type=int, default=None,
                           metavar="PORT",
                           help="also serve reads on this TCP port while "
                                "following (0 picks an ephemeral port): "
                                "the cluster's read tier")
    replicate.add_argument("--serve-host", default="127.0.0.1")
    replicate.add_argument("--promote-data-dir", default=None, metavar="DIR",
                           help="data directory this replica would root a "
                                "new primary generation in if promoted")
    replicate.add_argument("--lsn-wait", type=float, default=2.0,
                           metavar="SECONDS",
                           help="bounded wait for session-consistency "
                                "(min_lsn) reads before failing with a "
                                "lagging error (default 2)")
    _trace_flags(replicate)
    _common_engine_flags(replicate)

    router = sub.add_parser(
        "router", help="route one endpoint across a primary and replicas")
    router.add_argument("--primary", required=True, metavar="HOST:PORT",
                        help="the write-accepting server")
    router.add_argument("--replica", action="append", default=[],
                        metavar="HOST:PORT",
                        help="read-serving replica (repeatable)")
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=7430,
                        help="TCP port to listen on (0 picks an ephemeral "
                             "port; default 7430)")
    router.add_argument("--probe-interval", type=float, default=0.5,
                        help="seconds between replica health probes")
    router.add_argument("--max-lag", type=int, default=None, metavar="LSNS",
                        help="replicas lagging more than this many LSNs "
                             "stop taking reads (default: no cap)")
    router.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="expose router metrics as Prometheus "
                             "/metrics on this HTTP port")
    router.add_argument("--event-log", default=None, metavar="PATH",
                        help="append structured JSON events to PATH "
                             "('-' for stderr)")
    router.add_argument("--scrape-interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="seconds between fleet telemetry scrapes "
                             "(the aggregated per-node /metrics and "
                             "cluster_health views; default 2)")
    router.add_argument("--trace-sample", type=float, default=0.0,
                        metavar="RATE",
                        help="head-sampling rate for requests arriving "
                             "without a traceparent header (default 0; "
                             "client-sampled requests are always traced)")
    router.add_argument("--trace-capacity", type=int, default=256,
                        metavar="N",
                        help="flight-recorder ring size (default 256)")

    promote = sub.add_parser(
        "promote", help="fail over: promote a replica to primary")
    promote.add_argument("--replica", action="append", default=[],
                         metavar="HOST:PORT",
                         help="candidate serving replica (repeatable); "
                              "the reachable one with the highest applied "
                              "LSN wins")
    promote.add_argument("--data-dir", default=None, metavar="DIR",
                         help="data directory for the new primary "
                              "generation (defaults to the replica's "
                              "--promote-data-dir)")
    promote.add_argument("--router", default=None, metavar="HOST:PORT",
                         help="repoint this router at the winner")
    promote.add_argument("--offline", default=None, metavar="OLD_DIR",
                         help="no surviving replica: recover this old "
                              "primary directory into --data-dir instead")

    top = sub.add_parser(
        "top", help="live terminal view of a running vidb server")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7421)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default 2)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    top.add_argument("--cluster", nargs="?", const="127.0.0.1:7430",
                     default=None, metavar="HOST:PORT",
                     help="render the fleet view from a router's "
                          "cluster_health op instead of one server "
                          "(default router 127.0.0.1:7430)")

    client = sub.add_parser(
        "client", help="talk to a running vidb server")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7421)
    client.add_argument("--cluster", nargs="?", const="127.0.0.1:7430",
                        default=None, metavar="HOST:PORT",
                        help="talk to a cluster router instead of one "
                             "server (default router 127.0.0.1:7430)")
    client.add_argument("--trace", action="store_true",
                        help="send a sampled traceparent header and print "
                             "the trace id (inspect with 'vidb trace')")
    client.add_argument("--timeout", type=float, default=30.0,
                        help="socket timeout in seconds")
    client.add_argument("--repeat", type=int, default=1,
                        help="send the request N times (shows cache hits)")
    client.add_argument("--min-lsn", type=int, default=None, metavar="LSN",
                        help="session-consistency token: hold the read "
                             "until the server's state covers this LSN "
                             "(writes print the head_lsn to use here)")
    client.add_argument("--max-batches", type=int, default=0, metavar="N",
                        help="with the listen op: exit after N push "
                             "batches (default: stream until the server "
                             "closes)")
    client.add_argument(
        "request", nargs="+", metavar="OP [ARG...]",
        help="one of: query '?- ...' | metrics | "
             "events [N] [TYPE] | info | ping | "
             "entity OID [k=v...] | interval OID LO-HI[,LO-HI...] "
             "[ENTITY...] | relate NAME ARG... | declare NAME | "
             "subscribe '?- ...' | unsubscribe ID | poll ID [WAIT_S] | "
             "subscriptions | listen '?- ...' | cluster_health")

    trace_p = sub.add_parser(
        "trace", help="list or render distributed traces from a flight "
                      "recorder")
    trace_p.add_argument("trace_id", nargs="?", default=None,
                         help="render this trace as a cross-process span "
                              "tree (omit to list recent traces)")
    trace_p.add_argument("--host", default="127.0.0.1")
    trace_p.add_argument("--port", type=int, default=7421)
    trace_p.add_argument("--cluster", nargs="?", const="127.0.0.1:7430",
                         default=None, metavar="HOST:PORT",
                         help="ask a router, which fans the fetch out "
                              "across the whole fleet (default router "
                              "127.0.0.1:7430)")
    trace_p.add_argument("--limit", type=int, default=20,
                         help="recent traces to list (default 20)")
    trace_p.add_argument("--json", action="store_true", dest="as_json",
                         help="print raw segments as JSON")
    return parser


def _trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-sample", type=float, default=0.0,
                        metavar="RATE",
                        help="head-sampling rate for requests arriving "
                             "without a traceparent header (0..1, default "
                             "0; errored and slow requests are always "
                             "retained, client-sampled requests always "
                             "traced)")
    parser.add_argument("--trace-capacity", type=int, default=256,
                        metavar="N",
                        help="flight-recorder ring size (default 256)")
    parser.add_argument("--trace-sink", default=None, metavar="PATH",
                        help="also append every retained trace segment "
                             "as a JSON line to PATH")


def _common_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rules", "-r", action="append", default=[],
                        help="rule file to load (repeatable)")
    parser.add_argument("--stdlib", action="store_true",
                        help="load the contains/same_object_in rules")
    parser.add_argument("--mode", choices=["seminaive", "naive"],
                        default="seminaive")
    parser.add_argument("--kernel", default=None, metavar="NAME",
                        help="constraint kernel backend ('interned' or "
                             "'reference'; default: VIDB_KERNEL env var "
                             "or 'interned')")


def _engine(args: argparse.Namespace, db: VideoDatabase) -> QueryEngine:
    engine = QueryEngine(db, use_stdlib_rules=args.stdlib, mode=args.mode,
                         kernel=args.kernel)
    for path in args.rules:
        engine.add_rules(Path(path).read_text(encoding="utf-8"))
    return engine


def _engine_options(args: argparse.Namespace) -> dict:
    """The ``_common_engine_flags`` group as the keyword arguments the
    serving roles (``serve``, ``replicate --serve-port``) take."""
    rules = "\n".join(Path(p).read_text(encoding="utf-8")
                      for p in args.rules)
    return {"rules": rules or None, "use_stdlib_rules": args.stdlib,
            "engine_options": {"mode": args.mode, "kernel": args.kernel}}


def _load(path: str) -> VideoDatabase:
    if not Path(path).exists():
        raise FileNotFoundError(f"no such database snapshot: {path}")
    return load(path)


# -- command implementations ---------------------------------------------------

def _cmd_demo(args) -> int:
    db = rope_database()
    save(db, args.out)
    print(f"wrote {args.out}: {db}")
    return 0


def _cmd_info(args) -> int:
    db = _load(args.database)
    stats = db.stats()
    print(f"database: {db.name}")
    print(f"entities: {stats['entities']}  intervals: {stats['intervals']}  "
          f"facts: {stats['facts']}")
    print(f"relations: {', '.join(sorted(db.relation_names())) or '(none)'}")
    problems = db.sequence.validate()
    if problems:
        print(f"integrity problems ({len(problems)}):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("integrity: ok")
    return 0


def _cmd_query(args) -> int:
    db = _load(args.database)
    engine = _engine(args, db)
    options = ExecutionOptions(
        timeout_s=args.timeout,
        trace=args.profile,
        prune_rules=False if args.no_prune else None,
    )
    report = engine.execute(args.query, options)
    answers = report.answers
    rows = [
        {variable: str(value)
         for variable, value in answer.as_dict().items()}
        for answer in answers
    ]
    if args.limit is not None:
        rows = rows[:args.limit]
    if rows:
        print(format_table(rows, columns=list(answers.variables)))
    print(f"{len(answers)} answer(s)")
    if args.profile:
        print(report.profile())
    elif args.stats:
        print(format_snapshot(report.stats.as_dict()))
    return 0


def _cmd_facts(args) -> int:
    db = _load(args.database)
    engine = _engine(args, db)
    facts = engine.facts(args.predicate)
    for row in sorted(facts, key=lambda r: tuple(map(str, r))):
        rendered = ", ".join(map(str, row))
        print(f"{args.predicate}({rendered})")
    print(f"{len(facts)} fact(s)")
    return 0


def _cmd_explain(args) -> int:
    db = _load(args.database)
    engine = _engine(args, db)
    derivations = engine.explain(args.query)
    for derivation in derivations:
        print(derivation.render())
        print()
    print(f"{len(derivations)} derivation(s)")
    return 0


def _cmd_lint(args) -> int:
    import json

    from vidb.analysis import exit_code, lint_file, summarize
    from vidb.query import stdlib

    computed = {name: arity
                for name, (arity, _) in stdlib.computed_predicates().items()}
    edb: frozenset = frozenset()
    closed_world = False
    if args.database is not None:
        db = _load(args.database)
        edb = db.relation_names()
        closed_world = True
    worst = 0
    payload = {}
    for path in args.files:
        if not Path(path).exists():
            raise FileNotFoundError(f"no such file: {path}")
        fixes = ()
        if args.fix:
            from vidb.analysis import fix_file

            outcome = fix_file(path, edb=edb, computed=computed,
                               closed_world=closed_world,
                               write=not args.dry_run)
            fixes = outcome.fixes
            if outcome.result is not None:
                # Report the post-fix state: the diagnostics that remain
                # after the accepted fixes, whether or not they were
                # written back (--dry-run).
                result = outcome.result
            else:
                result = lint_file(path, edb=edb, computed=computed,
                                   closed_world=closed_world)
        else:
            result = lint_file(path, edb=edb, computed=computed,
                               closed_world=closed_world)
        worst = max(worst, exit_code(result, strict=args.strict))
        if args.as_json:
            entry = {"diagnostics": list(result.as_dicts()),
                     "summary": summarize(result)}
            if args.fix:
                entry["fixes"] = [
                    {"kind": fix.kind, "line": fix.line,
                     "description": fix.description}
                    for fix in fixes
                ]
                entry["fixed"] = bool(fixes) and not args.dry_run
            payload[path] = entry
        else:
            for fix in fixes:
                print(fix.render(path))
            for diagnostic in result.diagnostics:
                print(diagnostic.render(path))
            summary = summarize(result)
            if fixes:
                applied = ("would apply" if args.dry_run else "applied")
                summary += f" ({applied} {len(fixes)} fix(es))"
            print(f"{path}: {summary}")
    if args.as_json:
        print(json.dumps({"files": payload, "exit": worst}, indent=2))
    return worst


def _cmd_edl(args) -> int:
    db = _load(args.database)
    engine = _engine(args, db)
    edl = edl_from_query(engine, args.query, args.variable, title=args.title)
    print(edl.render())
    print(f"-- {len(edl)} cut(s), {edl.duration:g}s total")
    return 0


def _cmd_analytics(args) -> int:
    from vidb.analytics import activity_histogram, coverage, gaps, summary

    db = _load(args.database)
    report = summary(db, top=args.top)
    if report["screen_time"]:
        print(format_table(report["screen_time"],
                           columns=["entity", "seconds"]))
    print()
    if report["co_occurrence"]:
        print(format_table(report["co_occurrence"],
                           columns=["first", "second", "shared_seconds"]))
        print()
    print(f"timeline coverage: {coverage(db):.1%}")
    holes = gaps(db)
    if not holes.is_empty():
        print(f"undescribed stretches: {holes}")
    rows = activity_histogram(db, bins=args.bins)
    if rows:
        print()
        print(format_table(
            [{"from": f"{lo:g}", "to": f"{hi:g}", "live": live}
             for lo, hi, live in rows],
            columns=["from", "to", "live"]))
    return 0


def _cmd_timeline(args) -> int:
    from vidb.timeline import timeline_chart

    db = _load(args.database)
    print(timeline_chart(db, width=args.width,
                         label_attribute=args.label))
    return 0


def _cmd_serve(args) -> int:
    import contextlib

    from vidb.obs.events import EventLog
    from vidb.obs.exporter import MetricsExporter
    from vidb.obs.metrics import MetricsRegistry
    from vidb.service.executor import ServiceExecutor
    from vidb.service.server import VideoServer

    if args.database is None and args.data_dir is None:
        raise VidbError("serve needs a database snapshot, a --data-dir, "
                        "or both")
    event_log = EventLog(
        sink="stderr" if args.event_log == "-" else args.event_log)
    registry = MetricsRegistry()
    # The exporter comes up before recovery so /readyz honestly reports
    # "not yet" while the WAL replays, then flips once serving starts.
    ready_state = {"service": None,
                   "recovering": args.data_dir is not None}

    def _ready():
        service = ready_state["service"]
        if service is None:
            return {"recovery": not ready_state["recovering"],
                    "executor": False}
        return service.readiness()

    exporter = None
    if args.metrics_port is not None:
        exporter = MetricsExporter(registry, port=args.metrics_port,
                                   ready=_ready).start_background()
        mhost, mport = exporter.address
        print(f"metrics on http://{mhost}:{mport}/metrics "
              f"(health: /healthz, /readyz)", flush=True)
    cleanup = contextlib.ExitStack()
    if exporter is not None:
        cleanup.callback(exporter.close)
    cleanup.callback(event_log.close)
    with cleanup:
        if args.data_dir is not None:
            from vidb.durability import DurableDatabase

            seed = _load(args.database) if args.database is not None else None
            durable = DurableDatabase(
                args.data_dir, seed=seed, fsync=args.fsync,
                fsync_interval_s=args.fsync_interval,
                checkpoint_every=args.checkpoint_every,
                event_log=event_log)
            recovery = durable.recovery
            ready_state["recovering"] = False
            if durable.seeded:
                print(f"seeded {args.data_dir} from {args.database}",
                      flush=True)
            elif not recovery.empty:
                print(f"recovered {args.data_dir}: snapshot lsn "
                      f"{recovery.snapshot_lsn}, replayed "
                      f"{recovery.replayed} mutation(s)"
                      + (" (torn tail dropped)" if recovery.torn else ""),
                      flush=True)
            db: VideoDatabase = durable.db
            serving: object = durable
        else:
            db = _load(args.database)
            serving = db
        service = ServiceExecutor(
            serving, **_engine_options(args),
            max_workers=args.workers, max_in_flight=args.max_in_flight,
            cache_capacity=args.cache_capacity, default_timeout=args.timeout,
            metrics=registry,
            slow_query_ms=args.slow_query_ms, event_log=event_log,
            read_only=args.read_only,
            streaming=not args.no_streaming,
            max_subscriptions=args.max_subscriptions,
            subscription_queue=args.subscription_queue,
            trace_sample=args.trace_sample,
            trace_capacity=args.trace_capacity,
            trace_sink=args.trace_sink)
        ready_state["service"] = service
        with service, VideoServer(service, args.host, args.port) as server:
            host, port = server.address
            durably = (f", durable in {args.data_dir}"
                       if args.data_dir is not None else "")
            if args.read_only:
                durably += ", read-only"
            print(f"vidb serving {db.name!r} on {host}:{port} "
                  f"({args.workers} workers, epoch {db.epoch}{durably})",
                  flush=True)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                print("shutting down", file=sys.stderr)
    return 0


def _cmd_recover(args) -> int:
    from vidb.durability import recover
    from vidb.obs import Tracer

    tracer = Tracer() if args.profile else None
    result = recover(args.data_dir, tracer=tracer)
    summary = dict(result.summary())
    summary["epoch"] = result.db.epoch
    print(format_snapshot(summary))
    for path, reason in result.skipped_snapshots:
        print(f"skipped snapshot {path}: {reason}", file=sys.stderr)
    stats = result.db.stats()
    print(f"recovered: {stats['entities']} entities, "
          f"{stats['intervals']} intervals, {stats['facts']} facts")
    if args.profile and tracer is not None and tracer.root() is not None:
        print(tracer.root().render())
    if args.out:
        save(result.db, args.out)
        print(f"wrote {args.out}")
    return 0


def _parse_hostport(text: str, flag: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise VidbError(f"{flag} expects HOST:PORT, got {text!r}")
    return host, int(port)


def _cmd_replicate(args) -> int:
    """``vidb replicate``: follow a primary — passively, printing one
    line per step, or with ``--serve-port`` as the cluster's read tier.
    Both run :meth:`Replica.follow`, which outlives a dead source."""
    import contextlib
    import threading

    from vidb.durability import Replica
    from vidb.obs.events import EventLog

    if (args.data_dir is None) == (args.server is None):
        raise VidbError(
            "replicate needs exactly one source: a primary data "
            "directory, or --server HOST:PORT")
    interval = max(0.05, args.interval)
    with contextlib.ExitStack() as cleanup:
        # A passive follower reports its events (``replica.source_down``
        # while the primary is unreachable, ``source_up`` once it is
        # back) on stderr; a serving one exposes them over the wire.
        event_log = EventLog(
            sink="stderr" if args.serve_port is None else None)
        cleanup.callback(event_log.close)
        if args.server is not None:
            from vidb.service.server import ServiceClient

            host, port = _parse_hostport(args.server, "--server")
            client = cleanup.enter_context(
                ServiceClient(host, port, timeout=10.0))
            replica = Replica.from_client(client, event_log=event_log)
        else:
            replica = Replica.from_data_dir(args.data_dir,
                                            event_log=event_log)
        if args.serve_port is not None:
            return _replica_serve(replica, args, interval, cleanup)
        if args.metrics_port is not None:
            cleanup.callback(
                _replica_exporter(replica, args.metrics_port).close)

        def step() -> None:
            applied = replica.poll()
            stats = replica.db.stats()
            print(f"applied {applied} mutation(s), lsn "
                  f"{replica.applied_lsn}, lag {replica.lag_lsn}; "
                  f"{stats['entities']} entities, {stats['intervals']} "
                  f"intervals, {stats['facts']} facts", flush=True)
            if args.out:
                save(replica.db, args.out)

        if args.once:
            step()
            return 0
        try:
            replica.follow(threading.Event(), interval, step)
        except KeyboardInterrupt:
            pass
    return 0


def _replica_serve(replica, args, interval: float, cleanup) -> int:
    """``vidb replicate --serve-port``: a read-only executor over the
    follower, serving the standard protocol while it follows."""
    from vidb.service.executor import ServiceExecutor
    from vidb.service.server import VideoServer

    service = ServiceExecutor(
        replica, **_engine_options(args), event_log=replica.events,
        poll_interval_s=interval, lsn_wait_s=args.lsn_wait,
        promote_data_dir=args.promote_data_dir,
        trace_sample=args.trace_sample,
        trace_capacity=args.trace_capacity,
        trace_sink=args.trace_sink)
    cleanup.callback(service.close)
    server = cleanup.enter_context(
        VideoServer(service, args.serve_host, args.serve_port))
    if args.metrics_port is not None:
        from vidb.obs.exporter import MetricsExporter

        exporter = MetricsExporter(
            service.metrics, port=args.metrics_port,
            ready=service.readiness).start_background()
        cleanup.callback(exporter.close)
        mhost, mport = exporter.address
        print(f"replica metrics on http://{mhost}:{mport}/metrics",
              flush=True)
    service.start_following()
    host, port = server.address
    print(f"replica serving reads on {host}:{port} "
          f"(applied lsn {replica.applied_lsn}, "
          f"poll every {interval:g}s)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_router(args) -> int:
    import contextlib
    import threading

    from vidb.cluster import ClusterRouter
    from vidb.obs.events import EventLog
    from vidb.obs.metrics import MetricsRegistry

    primary = _parse_hostport(args.primary, "--primary")
    replicas = [_parse_hostport(r, "--replica") for r in args.replica]
    event_log = EventLog(
        sink="stderr" if args.event_log == "-" else args.event_log)
    registry = MetricsRegistry()
    router = ClusterRouter(
        primary, replicas, host=args.host, port=args.port,
        probe_interval_s=args.probe_interval, max_lag_lsn=args.max_lag,
        metrics=registry, event_log=event_log,
        trace_sample=args.trace_sample, trace_capacity=args.trace_capacity,
        scrape_interval_s=args.scrape_interval)
    with contextlib.ExitStack() as cleanup:
        cleanup.callback(router.close)
        cleanup.callback(event_log.close)
        if args.metrics_port is not None:
            from vidb.obs.exporter import MetricsExporter

            # The router's own counters plus the federated per-node
            # series the scrape loop aggregates, in one exposition.
            exporter = MetricsExporter(
                registry, port=args.metrics_port,
                ready=lambda: {"router": True},
                extra_render=router.fleet_exposition).start_background()
            cleanup.callback(exporter.close)
            mhost, mport = exporter.address
            print(f"router metrics on http://{mhost}:{mport}/metrics",
                  flush=True)
        router.start()
        host, port = router.address
        print(f"vidb router on {host}:{port} "
              f"(primary {primary[0]}:{primary[1]}, "
              f"{len(replicas)} replica(s))", flush=True)
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
    return 0


def _cmd_promote(args) -> int:
    from vidb.cluster import Promoter, promote_data_dir

    if args.offline is not None:
        if args.replica:
            raise VidbError("--offline and --replica are exclusive: "
                            "offline promotion is for when no serving "
                            "replica survived")
        if args.data_dir is None:
            raise VidbError("offline promotion needs --data-dir for the "
                            "new primary generation")
        result = promote_data_dir(args.offline, args.data_dir)
    else:
        if not args.replica:
            raise VidbError(
                "promote needs --replica HOST:PORT candidates, or "
                "--offline OLD_DIR when none survived")
        promoter = Promoter(
            [_parse_hostport(r, "--replica") for r in args.replica])
        router = (_parse_hostport(args.router, "--router")
                  if args.router is not None else None)
        result = promoter.promote(data_dir=args.data_dir, router=router)
    print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    return 0


def _replica_exporter(replica, port: int):
    """An exporter over the replica's own stats (lag, applied LSN, ...)."""
    from vidb.obs.exporter import MetricsExporter
    from vidb.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for key in replica.stats():
        registry.callback_gauge(key, lambda k=key: replica.stats()[k])
    exporter = MetricsExporter(
        registry, port=port,
        ready=lambda: {"source": replica.source_up}).start_background()
    host, bound = exporter.address
    print(f"replica metrics on http://{host}:{bound}/metrics", flush=True)
    return exporter


def _parse_kv(pairs: List[str]) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise VidbError(f"expected key=value, got {pair!r}")
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def _parse_pairs(text: str) -> List[List[float]]:
    pairs = []
    for chunk in text.split(","):
        lo, sep, hi = chunk.partition("-")
        if not sep:
            raise VidbError(f"expected LO-HI[,LO-HI...], got {text!r}")
        pairs.append([float(lo), float(hi)])
    return pairs


def _lsn_suffix(reply: dict) -> str:
    head = reply.get("head_lsn")
    return f", lsn {head}" if head is not None else ""


def _print_answers(response: dict) -> None:
    variables = response.get("variables", [])
    rows = [dict(zip(variables, row)) for row in response.get("rows", [])]
    if rows:
        print(format_table(rows, columns=variables))
    print(f"{response.get('count', len(rows))} answer(s)")


def _cluster_endpoint(args):
    """``--cluster [HOST:PORT]`` overrides ``--host``/``--port``."""
    if args.cluster is not None:
        return _parse_hostport(args.cluster, "--cluster")
    return args.host, args.port


def _cmd_client(args) -> int:
    from vidb.service.server import ServiceClient

    host, port = _cluster_endpoint(args)
    trace_context = None
    if args.trace:
        from vidb.obs.trace import TraceContext

        trace_context = TraceContext.new(sampled=True)
    op, *rest = args.request
    with ServiceClient(host, port, timeout=args.timeout,
                       trace_context=trace_context) as client:
        for __ in range(max(1, args.repeat)):
            if op == "query":
                if len(rest) != 1:
                    raise VidbError("usage: client query '?- ...'")
                _print_answers(client.query(rest[0], min_lsn=args.min_lsn))
            elif op == "metrics":
                print(format_snapshot(client.metrics()))
            elif op == "info":
                info = client.info()
                kernel = (f"  kernel: {info['kernel']}"
                          if "kernel" in info else "")
                print(f"database: {info['database']}  "
                      f"epoch: {info['epoch']}{kernel}")
                print(format_snapshot(info["stats"]))
            elif op == "ping":
                print("pong" if client.ping() else "no answer")
            elif op == "entity":
                if not rest:
                    raise VidbError("usage: client entity OID [k=v...]")
                reply = client.insert_entity(rest[0], **_parse_kv(rest[1:]))
                print(f"created {reply['oid']} (epoch {reply['epoch']}"
                      + _lsn_suffix(reply) + ")")
            elif op == "interval":
                if len(rest) < 2:
                    raise VidbError(
                        "usage: client interval OID LO-HI[,LO-HI...] "
                        "[ENTITY...]")
                reply = client.insert_interval(
                    rest[0], entities=rest[2:],
                    duration=_parse_pairs(rest[1]))
                print(f"created {reply['oid']} (epoch {reply['epoch']}"
                      + _lsn_suffix(reply) + ")")
            elif op == "relate":
                if len(rest) < 2:
                    raise VidbError("usage: client relate NAME ARG...")
                reply = client.relate(rest[0], *rest[1:])
                print(f"asserted {reply['fact']} (epoch {reply['epoch']}"
                      + _lsn_suffix(reply) + ")")
            elif op == "events":
                limit = int(rest[0]) if rest else None
                type_ = rest[1] if len(rest) > 1 else None
                for event in client.events(limit=limit, type=type_):
                    print(json.dumps(event, sort_keys=True))
            elif op == "cluster":
                reply = client.request("cluster")
                reply.pop("ok", None)
                print(json.dumps(reply, indent=2, sort_keys=True))
            elif op == "cluster_health":
                reply = client.cluster_health()
                reply.pop("ok", None)
                print(json.dumps(reply, indent=2, sort_keys=True))
            elif op == "wal":
                reply = client.wal(after=int(rest[0]) if rest else 0)
                reply.pop("ok", None)
                reply.pop("records", None)
                reply.pop("snapshot", None)
                print(format_snapshot(
                    {k: v for k, v in reply.items()
                     if isinstance(v, (int, float, str, bool))}))
            elif op == "declare":
                if len(rest) != 1:
                    raise VidbError("usage: client declare NAME")
                reply = client.declare_relation(rest[0])
                print(f"declared {reply['relation']} "
                      f"(epoch {reply['epoch']}" + _lsn_suffix(reply) + ")")
            elif op == "subscribe":
                if len(rest) != 1:
                    raise VidbError("usage: client subscribe '?- ...'")
                # One-shot clients disconnect right away, so detach the
                # subscription from this session: poll / unsubscribe it
                # by id from any later connection.
                reply = client.subscribe(rest[0], detach=True)
                print(f"subscribed {reply['id']} "
                      f"(variables {' '.join(reply['variables'])}, "
                      f"epoch {reply['epoch']}, detached)")
            elif op == "unsubscribe":
                if len(rest) != 1:
                    raise VidbError("usage: client unsubscribe ID")
                print("removed" if client.unsubscribe(rest[0])
                      else "already gone")
            elif op == "poll":
                if not rest or len(rest) > 2:
                    raise VidbError("usage: client poll ID [WAIT_S]")
                wait_s = float(rest[1]) if len(rest) > 1 else None
                reply = client.poll(rest[0], wait_s=wait_s)
                for batch in reply["batches"]:
                    print(json.dumps(batch, sort_keys=True))
                print(f"pending: {reply['pending']}", file=sys.stderr)
            elif op == "subscriptions":
                for entry in client.subscriptions():
                    print(json.dumps(entry, sort_keys=True))
            elif op == "listen":
                if len(rest) != 1:
                    raise VidbError("usage: client listen '?- ...'")
                sub = client.subscribe(rest[0])
                print(f"listening on {sub['id']} "
                      f"(epoch {sub['epoch']})", file=sys.stderr)
                received = 0
                for batch in client.listen(sub["id"]):
                    print(json.dumps(batch, sort_keys=True), flush=True)
                    received += 1
                    if args.max_batches and received >= args.max_batches:
                        break
            else:
                raise VidbError(f"unknown client op {op!r}")
    if trace_context is not None:
        print(f"trace {trace_context.trace_id}")
    return 0


def _cmd_ingest(args) -> int:
    from vidb.stream.ingest import (generate_dump, ingest_records,
                                    iter_dump, write_dump)

    if args.generate:
        records = generate_dump(entities=args.entities,
                                intervals=args.intervals,
                                relation=args.relation, seed=args.seed)
        if args.out:
            with Path(args.out).open("w", encoding="utf-8") as out:
                count = write_dump(records, out)
            print(f"wrote {args.out}: {count} record(s)")
        else:
            write_dump(records, sys.stdout)
        return 0

    if args.dump is None:
        raise VidbError("usage: vidb ingest DUMP [--port N] "
                        "(or --generate [--out FILE])")

    from vidb.service.server import ServiceClient

    def records():
        if args.dump == "-":
            return iter_dump(sys.stdin)
        if not Path(args.dump).exists():
            raise FileNotFoundError(f"no such dump: {args.dump}")
        return iter_dump(Path(args.dump).open(encoding="utf-8"))

    progress = None
    if args.progress_every:
        def progress(report):
            if report.batches % args.progress_every == 0:
                print(f"  batch {report.batches}: {report.records} "
                      f"record(s), {report.records_per_s:.0f} rec/s",
                      file=sys.stderr, flush=True)

    with ServiceClient(args.host, args.port) as client:
        report = ingest_records(client, records(),
                                batch_size=args.batch_size,
                                progress=progress)
    print(f"ingested {report.records} record(s) in {report.batches} "
          f"transaction(s), {report.elapsed_s:.3f}s "
          f"({report.records_per_s:.0f} rec/s), "
          f"epoch {report.final_epoch}"
          + (f", lsn {report.head_lsn}"
             if report.head_lsn is not None else ""))
    return 0


def _cmd_top(args) -> int:
    from vidb.service.server import ServiceClient
    from vidb.service.top import cluster_top_loop, top_loop

    host, port = _cluster_endpoint(args)
    with ServiceClient(host, port) as client:
        if args.cluster is not None:
            return cluster_top_loop(client, args.interval, once=args.once)
        return top_loop(client, args.interval, once=args.once)


def _cmd_trace(args) -> int:
    from vidb.obs.trace import node_label, render_trace
    from vidb.service.server import ServiceClient

    host, port = _cluster_endpoint(args)
    with ServiceClient(host, port) as client:
        if args.trace_id is None:
            rows = client.traces(limit=args.limit)
            if args.as_json:
                print(json.dumps(rows, indent=2, sort_keys=True))
            elif not rows:
                print("(no traces recorded — sample with --trace-sample "
                      "or 'vidb client --trace')")
            else:
                for row in rows:
                    duration = row.get("duration_ms", 0.0)
                    spans = "  +spans" if row.get("spans") else ""
                    print(f"{row.get('trace_id', '?')}  "
                          f"{duration:>10.3f} ms  "
                          f"{row.get('status', '?'):<5} "
                          f"{row.get('op', '?'):<10} "
                          f"@ {node_label(row.get('node', {}))}{spans}")
            return 0
        reply = client.trace(id=args.trace_id)
        segments = reply.get("segments") or []
        if not segments:
            raise VidbError(
                f"no segments for trace {args.trace_id!r}: it was never "
                f"sampled, or the flight recorder evicted it")
        if args.as_json:
            print(json.dumps(segments, indent=2, sort_keys=True))
        else:
            print(render_trace(segments, trace_id=args.trace_id))
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "info": _cmd_info,
    "query": _cmd_query,
    "facts": _cmd_facts,
    "explain": _cmd_explain,
    "lint": _cmd_lint,
    "edl": _cmd_edl,
    "analytics": _cmd_analytics,
    "timeline": _cmd_timeline,
    "serve": _cmd_serve,
    "recover": _cmd_recover,
    "replicate": _cmd_replicate,
    "router": _cmd_router,
    "promote": _cmd_promote,
    "client": _cmd_client,
    "top": _cmd_top,
    "trace": _cmd_trace,
    "ingest": _cmd_ingest,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (QueryError, ModelError, ConstraintError, StandingQueryError,
            FileNotFoundError) as error:
        # User-input errors: bad query/rule text, data-model violations,
        # unknown --kernel names, missing snapshot or rule files,
        # standing queries rejected by the streaming-safety pass.  One
        # line, argparse-style code.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except VidbError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        # Network trouble (client against a dead server, port in use).
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
