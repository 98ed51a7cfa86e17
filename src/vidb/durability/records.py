"""Typed WAL records: one self-committing frame per committed change set.

The storage layer announces each commit as one
:class:`~vidb.storage.transactions.CommittedDelta` (see
``VideoDatabase.add_mutation_observer``); this module turns its
mutation events into one JSON-ready ``commit`` record payload and back,
reusing the value codec from :mod:`vidb.storage.persistence` so every
model value (oids, fractions, sets, constraints) survives the round
trip.

Record types::

    commit            one committed change set: its mutations, in order
    checkpoint        a snapshot was installed (no-op on replay)

Mutation types inside a ``commit`` record::

    add               a new entity/interval object
    replace           an object swapped wholesale (attribute updates)
    remove_object     an object dropped (by oid)
    relate            a relation fact asserted
    remove_fact       a relation fact retracted
    declare_relation  an empty relation registered

Replay applies a ``commit`` record's mutations inside one transaction,
through the ordinary ``VideoDatabase`` mutation methods, so each
mutation bumps the epoch exactly as the original did — a recovered
database matches the primary epoch-for-epoch — and observers of the
replaying database see the primary's commit as one change set.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Tuple

from vidb.errors import RecoveryError
from vidb.model.objects import (
    EntityObject,
    GeneralizedIntervalObject,
    VideoObject,
)
from vidb.model.relations import RelationFact
from vidb.storage.database import VideoDatabase
from vidb.storage.persistence import decode_value, encode_value

from vidb.durability.wal import WalRecord

COMMIT = "commit"
CHECKPOINT = "checkpoint"

#: Every record type :func:`apply_record` accepts.
RECORD_TYPES = (COMMIT, CHECKPOINT)


# -- object codec ----------------------------------------------------------

def encode_object(obj: VideoObject) -> Dict[str, Any]:
    kind = "interval" if isinstance(obj, GeneralizedIntervalObject) else "entity"
    return {
        "kind": kind,
        "oid": encode_value(obj.oid),
        "attributes": {k: encode_value(v) for k, v in sorted(obj.items())},
    }


def decode_object(data: Dict[str, Any]) -> VideoObject:
    oid = decode_value(data["oid"])
    attrs = {k: decode_value(v) for k, v in data.get("attributes", {}).items()}
    if data.get("kind") == "interval":
        return GeneralizedIntervalObject(oid, attrs)
    return EntityObject(oid, attrs)


def _encode_fact(fact: RelationFact) -> Dict[str, Any]:
    return {"name": fact.name, "args": [encode_value(a) for a in fact.args]}


def _decode_fact(data: Dict[str, Any]) -> RelationFact:
    return RelationFact(data["name"],
                        tuple(decode_value(a) for a in data["args"]))


# -- event <-> record payload ---------------------------------------------

def encode_event(event: Tuple) -> Tuple[str, Dict[str, Any]]:
    """A storage mutation event as a ``(mutation type, payload)`` pair."""
    kind = event[0]
    if kind in ("add", "replace"):
        return kind, encode_object(event[1])
    if kind == "remove_object":
        return kind, {"oid": encode_value(event[1])}
    if kind in ("relate", "remove_fact"):
        return kind, _encode_fact(event[1])
    if kind == "declare_relation":
        return kind, {"name": event[1]}
    raise RecoveryError(f"unknown mutation event {event!r}")


def encode_commit(events: Iterable[Tuple]) -> Dict[str, Any]:
    """The payload of the ``commit`` record for one change set."""
    return {"mutations": [list(encode_event(event)) for event in events]}


#: How each mutation type inside a ``commit`` record replays.
_APPLY: Dict[str, Callable[[VideoDatabase, Dict[str, Any]], Any]] = {
    "add": lambda db, data: db.add(decode_object(data)),
    "replace": lambda db, data: db.replace(decode_object(data)),
    "remove_object": lambda db, data: db.remove_object(
        decode_value(data["oid"])),
    "relate": lambda db, data: db.relate(_decode_fact(data)),
    "remove_fact": lambda db, data: db.remove_fact(_decode_fact(data)),
    "declare_relation": lambda db, data: db.declare_relation(data["name"]),
}

#: Every mutation type a ``commit`` record may hold.
MUTATION_TYPES = tuple(_APPLY)


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
                apply = _APPLY.get(kind)
                if apply is None:
                    raise RecoveryError(f"unknown mutation type {kind!r}")
                apply(db, data)
    except Exception as error:
        raise RecoveryError(
            f"WAL record lsn={record.lsn} ({kind}) failed to apply: "
            f"{error}") from error
    return len(mutations)
