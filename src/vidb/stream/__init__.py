"""vidb.stream — live annotation streams: observer-fed views, standing
queries, and bulk ingest.

The streaming layer closes the loop between the mutation-observer
stream (:meth:`vidb.storage.database.VideoDatabase.add_mutation_observer`)
and the incremental query machinery
(:class:`vidb.query.incremental.MaterializedView`):

* :class:`StreamHub` fans the database's committed change sets
  (:class:`CommittedDelta`, one per commit; a rollback announces
  nothing) out to its consumers;
* :class:`ViewRegistry` keeps registered materialized views fed from
  those deltas automatically (ROADMAP item 2's observer wiring);
* :class:`Subscription` / :class:`SubscriptionManager` implement
  standing queries — continuous queries whose *new* answers are pushed
  to clients as ordered, bounded, loss-explicit notification batches
  (ROADMAP item 4);
* :mod:`vidb.stream.ingest` defines the timestamp-ordered JSON-lines
  annotation-dump format and the batched-transaction driver behind
  ``vidb ingest``.

See docs/STREAMING.md for the architecture and the backpressure
contract.
"""

from vidb.storage.transactions import (
    CommittedDelta,
    MONOTONE_EVENTS,
    NON_MONOTONE_EVENTS,
)
from vidb.stream.hub import StreamHub
from vidb.stream.ingest import (
    IngestReport,
    generate_dump,
    ingest_local,
    ingest_records,
    iter_dump,
    load_dump,
    write_dump,
)
from vidb.stream.standing import Subscription, SubscriptionManager
from vidb.stream.views import ViewRegistry, apply_delta

__all__ = [
    "CommittedDelta",
    "MONOTONE_EVENTS",
    "NON_MONOTONE_EVENTS",
    "StreamHub",
    "ViewRegistry",
    "apply_delta",
    "Subscription",
    "SubscriptionManager",
    "IngestReport",
    "generate_dump",
    "ingest_local",
    "ingest_records",
    "iter_dump",
    "load_dump",
    "write_dump",
]
