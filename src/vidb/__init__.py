"""vidb — a constraint/object video database.

A complete reproduction of *"A Database Approach for Modeling and
Querying Video Data"* (Decleir, Hacid & Kouloumdjian, ICDE 1999):

* :mod:`vidb.constraints` — dense-order and set-order constraint
  languages with decision procedures;
* :mod:`vidb.intervals` — time intervals and generalized intervals;
* :mod:`vidb.model` — the object/constraint video data model (v-objects,
  oids, relations, the ⊕ concatenation operator, the 7-tuple);
* :mod:`vidb.storage` — the indexed database, transactions, persistence;
* :mod:`vidb.query` — the declarative rule-based constraint query
  language (parser, safety, bottom-up fixpoint evaluation, provenance);
* :mod:`vidb.indexing` — the segmentation / stratification /
  generalized-interval indexing schemes of Figures 1-3;
* :mod:`vidb.video` — a simulated video substrate (synthetic frames,
  shot detection, annotation pipelines);
* :mod:`vidb.workloads` — the paper's worked examples plus random
  workload generators;
* :mod:`vidb.bench` — benchmark harness helpers;
* :mod:`vidb.obs` — observability: tracing, metrics, structured
  events, and the Prometheus ``/metrics`` exporter;
* :mod:`vidb.cluster` — the read-serving replica fleet: the routing
  front end and failover promotion;
* :mod:`vidb.stream` — standing queries over live annotation streams:
  observer-fed materialized views, server push, and bulk ingest.

Quickstart::

    from vidb import VideoDatabase, QueryEngine

    db = VideoDatabase("news")
    reporter = db.new_entity("reporter", label="Reporter")
    db.new_interval("gi_reporter", entities=[reporter.oid],
                    duration=[(0, 25), (60, 80)])

    engine = QueryEngine(db)
    for answer in engine.query("?- interval(G), object(reporter), "
                               "reporter in G.entities."):
        print(answer["G"])
"""

from vidb.constraints import (
    Comparison,
    Constraint,
    SetConjunction,
    SetVar,
    Var,
)
from vidb.errors import (
    ConstraintError,
    DurabilityError,
    EvaluationError,
    IntervalError,
    ModelError,
    ParseError,
    PersistenceError,
    QueryError,
    SafetyError,
    StorageError,
    TransactionError,
    VidbError,
)
from vidb.intervals import GeneralizedInterval, Interval
from vidb.model import (
    EntityObject,
    GeneralizedIntervalObject,
    Oid,
    RelationFact,
    VideoObject,
    VideoSequence,
    concatenate,
)
from vidb.obs import (
    EventLog,
    Gauge,
    MetricsExporter,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    format_snapshot,
)
from vidb.query import (
    AnswerSet,
    ExecutionOptions,
    ExecutionReport,
    Program,
    QueryEngine,
    Rule,
    parse_program,
    parse_query,
)
from vidb.api import connect
from vidb.catalog import Archive
from vidb.cluster import ClusterRouter, Promoter
from vidb.durability import DurableDatabase, Replica, recover
from vidb.presentation import EDL, Cut, Sequencer
from vidb.schema import AttrSpec, Schema, aggregate
from vidb.service import (
    ServiceClient,
    ServiceExecutor,
    Session,
    VideoServer,
)
from vidb.storage import VideoDatabase, load, save
from vidb.stream import (
    StreamHub,
    Subscription,
    SubscriptionManager,
    ViewRegistry,
)

__version__ = "1.0.0"

__all__ = [
    "AnswerSet",
    "Archive",
    "AttrSpec",
    "ClusterRouter",
    "Comparison",
    "Cut",
    "EDL",
    "Constraint",
    "ConstraintError",
    "DurabilityError",
    "DurableDatabase",
    "EntityObject",
    "EvaluationError",
    "EventLog",
    "ExecutionOptions",
    "ExecutionReport",
    "Gauge",
    "GeneralizedInterval",
    "GeneralizedIntervalObject",
    "Interval",
    "IntervalError",
    "MetricsExporter",
    "MetricsRegistry",
    "ModelError",
    "NullTracer",
    "Oid",
    "ParseError",
    "PersistenceError",
    "Program",
    "Promoter",
    "QueryEngine",
    "QueryError",
    "RelationFact",
    "Replica",
    "Rule",
    "SafetyError",
    "Schema",
    "Sequencer",
    "ServiceClient",
    "ServiceExecutor",
    "Session",
    "SetConjunction",
    "SetVar",
    "Span",
    "StorageError",
    "StreamHub",
    "Subscription",
    "SubscriptionManager",
    "Tracer",
    "TransactionError",
    "Var",
    "VideoDatabase",
    "VideoObject",
    "VideoServer",
    "VideoSequence",
    "ViewRegistry",
    "VidbError",
    "aggregate",
    "concatenate",
    "connect",
    "format_snapshot",
    "load",
    "parse_program",
    "parse_query",
    "recover",
    "save",
    "__version__",
]
