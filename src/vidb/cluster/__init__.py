"""vidb.cluster — a read-serving replica fleet with failover.

The read tier itself needs no cluster code: a serving replica is a
read-only :class:`~vidb.service.ServiceExecutor` over a
:class:`~vidb.durability.Replica` (``vidb replicate --serve-port``),
answering the standard JSON-lines protocol (queries, lint, trace,
events, ``wal`` position reports) while the follower tails the primary
and the ``promote`` op flips it to primary in place.  This package
fronts that fleet (see ``docs/CLUSTER.md``):

* :mod:`vidb.cluster.router` — :class:`ClusterRouter` speaks the same
  wire protocol, forwards writes and session state to the primary and
  load-balances reads across healthy replicas, honoring each client's
  read-your-writes LSN token;
* :mod:`vidb.cluster.promote` — :class:`Promoter` picks the
  furthest-ahead ready replica when the primary dies and sends it the
  ``promote`` op (``vidb promote``); :func:`promote_data_dir` is the
  offline path when no replica survived.

Consistency contract: a client's durable writes return ``head_lsn``;
its subsequent reads carry that token, and a replica either serves the
read at-or-after the token (bounded wait) or fails with a ``lagging``
error so the router redirects the read to the primary.  Reads without a
token see *some* committed prefix of the primary's history.
"""

from vidb.cluster.promote import PromotionResult, Promoter, promote_data_dir
from vidb.cluster.router import ClusterRouter

__all__ = [
    "ClusterRouter",
    "PromotionResult",
    "Promoter",
    "promote_data_dir",
]
