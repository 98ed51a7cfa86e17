"""Failover promotion: pick the best replica, flip it, repoint reads.

Two entry points:

:class:`Promoter`
    The online path behind ``vidb promote``: probe the candidate
    replicas' ``wal`` ops, elect the reachable one with the highest
    ``applied_lsn`` (most committed history preserved), send it the
    ``promote`` op — the replica fences the old generation and re-roots
    itself as primary (see
    :meth:`vidb.service.executor.ServiceExecutor.promote`) — and
    optionally repoint a running :class:`~vidb.cluster.router.ClusterRouter`.

:func:`promote_data_dir`
    The offline path: no serving replica survives, but the old
    primary's data directory does.  Recover it wholesale, fence it, and
    seed a new primary directory whose LSN sequence continues the old
    one — ``vidb serve --data-dir NEW`` then brings the cluster back.

Both end in :func:`vidb.durability.durable.reroot`, the one
fence-and-re-root step.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from vidb.durability.durable import reroot
from vidb.durability.recovery import recover
from vidb.errors import ClusterError
from vidb.obs.events import EventLog, get_event_log
from vidb.service.server import ServiceClient


class PromotionResult:
    """What a promotion did, for operators and tests."""

    def __init__(self, winner: Optional[Tuple[str, int]],
                 details: Dict[str, Any],
                 candidates: List[Dict[str, Any]]):
        #: Address of the promoted replica (None for offline promotion).
        self.winner = winner
        #: The promoted server's own summary (lsn, generation, fenced).
        self.details = details
        #: Every candidate's probe outcome, for the audit trail.
        self.candidates = candidates

    def as_dict(self) -> Dict[str, Any]:
        return {"winner": (f"{self.winner[0]}:{self.winner[1]}"
                           if self.winner else None),
                "details": self.details,
                "candidates": self.candidates}

    def __repr__(self) -> str:
        return f"PromotionResult({self.as_dict()!r})"


class Promoter:
    """Elect and promote the furthest-ahead reachable replica."""

    def __init__(self, replicas: List[Tuple[str, int]], *,
                 connect_timeout: float = 5.0,
                 event_log: Optional[EventLog] = None):
        if not replicas:
            raise ClusterError("promotion needs at least one candidate "
                               "replica")
        self.replicas = [(h, int(p)) for h, p in replicas]
        self.connect_timeout = connect_timeout
        self.events = event_log if event_log is not None else get_event_log()

    def ballot(self) -> List[Dict[str, Any]]:
        """Probe every candidate; one dict per replica, reachable or not."""
        results = []
        for host, port in self.replicas:
            entry: Dict[str, Any] = {"address": f"{host}:{port}"}
            try:
                with ServiceClient(host, port,
                                   timeout=self.connect_timeout) as client:
                    reply = client.wal()
                entry["applied_lsn"] = int(reply.get("applied_lsn", 0))
                entry["lag_lsn"] = int(reply.get("lag_lsn", 0))
                entry["reachable"] = True
            except Exception as error:
                entry["reachable"] = False
                entry["error"] = str(error)
            results.append(entry)
        return results

    def pick(self) -> Tuple[Tuple[str, int], List[Dict[str, Any]]]:
        """The reachable candidate with the highest applied LSN.

        Max-LSN election minimizes lost history: every committed write
        the winner replicated survives the failover; anything only a
        more-lagged replica missed was already at risk.
        """
        candidates = self.ballot()
        best_index, best_lsn = None, -1
        for index, entry in enumerate(candidates):
            if not entry.get("reachable"):
                continue
            lsn = entry.get("applied_lsn", 0)
            if lsn > best_lsn:
                best_index, best_lsn = index, lsn
        if best_index is None:
            raise ClusterError(
                "no candidate replica is reachable; nothing to promote "
                f"(probed {', '.join(e['address'] for e in candidates)})")
        return self.replicas[best_index], candidates

    def promote(self, data_dir: Optional[Union[str, Path]] = None,
                router: Optional[Tuple[str, int]] = None
                ) -> PromotionResult:
        """Run the election, promote the winner, repoint the router."""
        winner, candidates = self.pick()
        host, port = winner
        with ServiceClient(host, port,
                           timeout=self.connect_timeout) as client:
            details = client.promote(
                data_dir=str(data_dir) if data_dir is not None else None)
        details.pop("ok", None)
        self.events.emit("failover.elected", winner=f"{host}:{port}",
                         lsn=details.get("lsn"),
                         generation=details.get("generation"))
        if router is not None:
            rhost, rport = router
            with ServiceClient(rhost, int(rport),
                               timeout=self.connect_timeout) as client:
                client.request("repoint", host=host, port=port)
        return PromotionResult(winner, details, candidates)


def promote_data_dir(old_dir: Union[str, Path],
                     new_dir: Union[str, Path], *,
                     event_log: Optional[EventLog] = None
                     ) -> PromotionResult:
    """Offline promotion: old primary's directory → new primary's.

    Recovers everything committed in *old_dir* (snapshot + WAL tail),
    fences it — refusing to go on when the fence cannot be written — and
    roots *new_dir* with that state, continuing the LSN sequence.  The
    tool of last resort when no serving replica survived;
    committed-but-unreplicated history is preserved because it comes
    straight off the old disk.
    """
    result = recover(old_dir)
    durable, details = reroot(result.db, result.last_lsn, new_dir,
                              old_dir=old_dir, must_fence=True,
                              event_log=event_log, replayed=result.replayed)
    durable.close()
    return PromotionResult(None, details, [])
