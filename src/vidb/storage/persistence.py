"""JSON persistence for video databases.

Snapshots are ordinary JSON documents; model values are encoded with
single-key tag objects so that decoding is unambiguous:

================  =================================================
value             encoding
================  =================================================
constant          the JSON scalar itself
Fraction          ``{"$fraction": [numerator, denominator]}``
Oid               ``{"$oid": {"kind": ..., "parts": [...]}}``
frozenset         ``{"$set": [encoded values ...]}``
Constraint        ``{"$constraint": [[atom, ...], ...]}`` (its DNF)
constraint atom   ``{"left": term, "op": str, "right": term}``
Var               ``{"$var": name}``
================  =================================================

Objects encode as ``{"oid": ..., "attributes": {...}}``, facts as
``{"name": ..., "args": [...]}``.  This is the one codec between model
values and JSON: snapshots, WAL ``commit`` frames, wire writes and dump
records all use it, so a tag means the same on the wire as on disk.

The snapshot is stable under a decode/encode round-trip, which the
integration tests verify.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Union

from vidb.constraints.dense import Comparison, Constraint, from_dnf
from vidb.constraints.terms import Var
from vidb.errors import PersistenceError, VidbError
from vidb.model.objects import EntityObject, GeneralizedIntervalObject, VideoObject
from vidb.model.oid import INTERVAL, Oid
from vidb.model.relations import RelationFact
from vidb.storage.database import VideoDatabase

FORMAT_VERSION = 1


# -- value codec --------------------------------------------------------------

def encode_value(value: Any) -> Any:
    if isinstance(value, bool):
        raise PersistenceError("booleans are not model values")
    if isinstance(value, Fraction):
        return {"$fraction": [value.numerator, value.denominator]}
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Oid):
        return {"$oid": {"kind": value.kind, "parts": sorted(value.parts)}}
    if isinstance(value, frozenset):
        encoded = [encode_value(v) for v in value]
        encoded.sort(key=json.dumps)  # deterministic snapshots
        return {"$set": encoded}
    if isinstance(value, Constraint):
        return {"$constraint": [
            [{"left": _encode_term(atom.left), "op": atom.op,
              "right": _encode_term(atom.right)} for atom in clause]
            for clause in value.dnf()]}
    raise PersistenceError(f"cannot encode value {value!r}")


def _encode_term(term: Any) -> Any:
    return {"$var": term.name} if isinstance(term, Var) else encode_value(term)


def decode_value(data: Any) -> Any:
    """The model value *data* encodes; :class:`PersistenceError` when it
    is neither a JSON scalar nor a well-formed tag."""
    try:
        return _decode(data)
    except PersistenceError:
        raise
    except (LookupError, TypeError, ValueError, ArithmeticError,
            VidbError) as error:
        raise PersistenceError(f"cannot decode value {data!r}: {error}") \
            from None


def _decode(data: Any) -> Any:
    if isinstance(data, (int, float, str)):
        return data
    if isinstance(data, dict) and len(data) == 1:
        if "$fraction" in data:
            numerator, denominator = data["$fraction"]
            return Fraction(numerator, denominator)
        if "$oid" in data:
            payload = data["$oid"]
            return Oid(payload["kind"], payload["parts"])
        if "$set" in data:
            return frozenset(_decode(v) for v in data["$set"])
        if "$constraint" in data:
            return from_dnf([
                tuple(Comparison(_decode_term(atom["left"]), atom["op"],
                                 _decode_term(atom["right"]))
                      for atom in clause)
                for clause in data["$constraint"]])
    raise PersistenceError(f"cannot decode value {data!r}")


def _decode_term(data: Any) -> Any:
    if isinstance(data, dict) and "$var" in data:
        return Var(data["$var"])
    return _decode(data)


# -- object and fact codec -------------------------------------------------

def encode_object(obj: VideoObject) -> Dict[str, Any]:
    return {
        "oid": encode_value(obj.oid),
        "attributes": {k: encode_value(v) for k, v in sorted(obj.items())},
    }


def decode_object(data: Dict[str, Any]) -> VideoObject:
    """The object *data* encodes; its oid's kind picks the class."""
    oid = decode_value(data["oid"])
    attrs = {k: decode_value(v) for k, v in data.get("attributes", {}).items()}
    if isinstance(oid, Oid) and oid.kind == INTERVAL:
        return GeneralizedIntervalObject(oid, attrs)
    return EntityObject(oid, attrs)


def encode_fact(fact: RelationFact) -> Dict[str, Any]:
    return {"name": fact.name, "args": [encode_value(a) for a in fact.args]}


def decode_fact(data: Dict[str, Any]) -> RelationFact:
    return RelationFact(data["name"], tuple(decode_value(a) for a in data["args"]))


# -- database codec --------------------------------------------------------------

def database_to_dict(db: VideoDatabase) -> Dict[str, Any]:
    """A JSON-ready snapshot of the whole database."""
    return {
        "format": FORMAT_VERSION,
        "name": db.name,
        "epoch": db.epoch,
        "entities": [encode_object(obj)
                     for obj in sorted(db.entities(), key=lambda o: o.oid)],
        "intervals": [encode_object(obj)
                      for obj in sorted(db.intervals(), key=lambda o: o.oid)],
        "facts": sorted((encode_fact(fact) for fact in db.facts()),
                        key=json.dumps),
    }


def database_from_dict(data: Dict[str, Any]) -> VideoDatabase:
    if not isinstance(data, dict) or "format" not in data:
        raise PersistenceError("not a vidb snapshot")
    if data["format"] != FORMAT_VERSION:
        raise PersistenceError(
            f"snapshot format {data['format']!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    db = VideoDatabase(data.get("name", "video"))
    for record in (*data.get("entities", ()), *data.get("intervals", ())):
        db.add(decode_object(record))
    for record in data.get("facts", ()):
        db.relate(decode_fact(record))
    # Restore the mutation epoch the snapshot was taken at, so a reload
    # does not silently restart cache-keying epochs (older snapshots
    # without the field keep the rebuild count, which is still
    # monotonic from zero).
    epoch = data.get("epoch")
    if isinstance(epoch, int) and epoch >= 0:
        db._epoch = epoch
    return db


def dumps(db: VideoDatabase, indent: int = 2) -> str:
    """Serialise a database to a JSON string."""
    return json.dumps(database_to_dict(db), indent=indent, sort_keys=True)


def loads(text: str) -> VideoDatabase:
    """Deserialise a database from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid JSON: {exc}") from exc
    return database_from_dict(data)


def save(db: VideoDatabase, path: Union[str, Path]) -> None:
    """Write a snapshot to *path* atomically.

    The document goes to a temp file in the same directory, is fsynced,
    then moved over *path* with ``os.replace`` — a crash mid-save can
    truncate only the temp file, never an existing store.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    with tmp.open("w", encoding="utf-8") as f:
        f.write(dumps(db))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def load(path: Union[str, Path]) -> VideoDatabase:
    """Read a snapshot from *path*."""
    return loads(Path(path).read_text(encoding="utf-8"))
