"""Typed WAL records: one self-committing frame per committed change set.

The storage layer announces each commit as one
:class:`~vidb.storage.transactions.CommittedDelta` (see
``VideoDatabase.add_mutation_observer``); this module turns its
mutation events into one JSON-ready ``commit`` record payload and back
through :data:`MUTATIONS`, one row per mutation type over the object,
fact and value codec of :mod:`vidb.storage.persistence` (the snapshot's
own), so every model value (oids, fractions, sets, constraints)
survives the round trip.

Record types: ``commit`` (one committed change set, its mutations in
order) and ``checkpoint`` (a snapshot was installed; no-op on replay).
docs/DURABILITY.md describes each mutation type.

Replay applies a ``commit`` record's mutations inside one transaction,
through the ordinary ``VideoDatabase`` mutation methods, so each
mutation bumps the epoch exactly as the original did — a recovered
database matches the primary epoch-for-epoch — and observers of the
replaying database see the primary's commit as one change set.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Tuple

from vidb.errors import RecoveryError
from vidb.storage.database import VideoDatabase
from vidb.storage.persistence import decode_fact, decode_object, decode_value
from vidb.storage.persistence import encode_fact, encode_object, encode_value

from vidb.durability.wal import WalRecord

COMMIT = "commit"
CHECKPOINT = "checkpoint"

#: Every record type :func:`apply_record` accepts.
RECORD_TYPES = (COMMIT, CHECKPOINT)


def _encode_kind_object(obj: Any) -> Dict[str, Any]:
    return {"kind": obj.oid.kind, **encode_object(obj)}


#: One row per mutation type, the only place a mutation is spelled:
#: ``(encode, decode)`` turn the storage event's value into the payload
#: and the payload back into the argument of the ``VideoDatabase``
#: method of the same name.
MUTATIONS: Dict[str, Tuple[Callable[[Any], Dict[str, Any]],
                           Callable[[Dict[str, Any]], Any]]] = {
    "add": (_encode_kind_object, decode_object),
    "replace": (_encode_kind_object, decode_object),
    "remove_object": (lambda oid: {"oid": encode_value(oid)},
                      lambda data: decode_value(data["oid"])),
    "relate": (encode_fact, decode_fact),
    "remove_fact": (encode_fact, decode_fact),
    "declare_relation": (lambda name: {"name": name},
                         lambda data: data["name"]),
}

#: Every mutation type a ``commit`` record may hold.
MUTATION_TYPES = tuple(MUTATIONS)


def encode_commit(events: Iterable[Tuple]) -> Dict[str, Any]:
    """The payload of the ``commit`` record for one change set."""
    mutations = []
    for kind, value in events:
        if kind not in MUTATIONS:
            raise RecoveryError(f"unknown mutation event {kind!r}")
        mutations.append([kind, MUTATIONS[kind][0](value)])
    return {"mutations": mutations}


def apply_record(db: VideoDatabase, record: WalRecord) -> int:
    """Replay one record against *db*; returns the mutations applied.

    A ``commit`` record applies as one transaction — all of its
    mutations or, on failure, none; a ``checkpoint`` record is a no-op.
    """
    if record.type == CHECKPOINT:
        return 0
    if record.type != COMMIT:
        raise RecoveryError(
            f"WAL record lsn={record.lsn} has unknown type {record.type!r}")
    mutations = record.data.get("mutations", ())
    kind = COMMIT
    try:
        with db.transaction():
            for kind, data in mutations:
                if kind not in MUTATIONS:
                    raise RecoveryError(f"unknown mutation type {kind!r}")
                getattr(db, kind)(MUTATIONS[kind][1](data))
    except Exception as error:
        raise RecoveryError(
            f"WAL record lsn={record.lsn} ({kind}) failed to apply: "
            f"{error}") from error
    return len(mutations)
