"""Bulk ingest of timestamp-ordered annotation dumps.

Detector pipelines (the CLIP-indexing shape from SNIPPETS.md §1)
produce append-only annotation streams: entities appear, intervals of
their appearance close and are emitted in timestamp order, relation
facts link them.  This module defines the JSON-lines dump format for
such streams and the batched-transaction driver behind ``vidb ingest``:

One record per line, ``t`` (seconds, non-decreasing) + ``kind``::

    {"t": 0.0,  "kind": "entity",   "oid": "o1",
     "attributes": {"name": "anchor", "role": "Speaker"}}
    {"t": 12.4, "kind": "interval", "oid": "gi1", "entities": ["o1"],
     "duration": [[0, 12.4]], "attributes": {"shot": "closeup"}}
    {"t": 12.4, "kind": "fact",     "relation": "appears",
     "args": ["o1", "gi1"]}

A record is the wire write op :func:`record_to_op` maps it to, checked
against that op's row of :data:`vidb.service.wire.OPS` when parsed.  Any
value may be a JSON scalar (a plain string fact argument names the
existing object of that name, as a symbol in query text does) or a
tagged value as snapshots spell it (``{"$oid": ...}``, ``{"$set": [...]}``,
``{"$fraction": ...}``, ``{"$constraint": ...}``; see
:mod:`vidb.storage.persistence`).  Dumps only add; a retraction goes
over the wire as a ``remove_object`` / ``remove_fact`` op, and until
standing views retract incrementally it rebuilds each view it touches.

Records are applied through **batched transactions** (``batch_size``
records per commit) — each commit is one atomic delta on the mutation
stream, so standing queries fire once per batch, not once per record,
and a mid-batch failure rolls the whole batch back (subscribers see
nothing from it).
"""

from __future__ import annotations

import json
import random
import time
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
)

from vidb.errors import ProtocolError
from vidb.service.wire import OPS, check_fields, decode_mutation
from vidb.storage.database import VideoDatabase

#: One parsed dump record.
Record = Dict[str, Any]

RECORD_KINDS = frozenset({"entity", "interval", "fact"})


# -- the dump codec ----------------------------------------------------------
def parse_record(line: str, lineno: int = 0) -> Record:
    try:
        record = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"dump line {lineno}: not JSON ({error})")
    if not isinstance(record, dict):
        raise ProtocolError(f"dump line {lineno}: record must be an object")
    kind = record.get("kind")
    if kind not in RECORD_KINDS:
        raise ProtocolError(
            f"dump line {lineno}: 'kind' must be one of "
            f"{sorted(RECORD_KINDS)}, got {kind!r}")
    if not isinstance(record.get("t"), (int, float)):
        raise ProtocolError(f"dump line {lineno}: numeric 't' is required")
    op = record_to_op(record)
    check_fields(OPS[op["op"]], op, f"dump line {lineno}: ")
    return record


def iter_dump(lines: Iterable[str]) -> Iterator[Record]:
    """Parse a dump, enforcing non-decreasing timestamps."""
    last_t: Optional[float] = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        record = parse_record(line, lineno)
        t = float(record["t"])
        if last_t is not None and t < last_t:
            raise ProtocolError(
                f"dump line {lineno}: timestamp {t} goes backwards "
                f"(previous record at {last_t}); dumps must be "
                f"timestamp-ordered")
        last_t = t
        yield record


def load_dump(path: str) -> List[Record]:
    with open(path, "r", encoding="utf-8") as handle:
        return list(iter_dump(handle))


def write_dump(records: Iterable[Record], out: IO[str]) -> int:
    count = 0
    for record in records:
        out.write(json.dumps(record) + "\n")
        count += 1
    return count


def generate_dump(entities: int = 10, intervals: int = 100,
                  relation: str = "appears", seed: int = 0,
                  step_s: float = 1.0) -> List[Record]:
    """A synthetic detector-style dump: *entities* tracked subjects,
    *intervals* appearance intervals in timestamp order, each linked to
    its entities with *relation* facts.  Deterministic under *seed*."""
    rng = random.Random(seed)
    records: List[Record] = []
    for index in range(entities):
        records.append({
            "t": 0.0, "kind": "entity", "oid": f"o{index + 1}",
            "attributes": {"name": f"subject{index + 1}",
                           "track": index + 1},
        })
    t = 0.0
    for index in range(intervals):
        t += rng.uniform(0.1, step_s)
        start = round(t, 3)
        end = round(t + rng.uniform(0.5, 5.0), 3)
        oid = f"gi{index + 1}"
        members = rng.sample(range(1, entities + 1),
                             k=rng.randint(1, min(3, entities)))
        records.append({
            "t": start, "kind": "interval", "oid": oid,
            "entities": [f"o{m}" for m in members],
            "duration": [[start, end]],
            "attributes": {"confidence": round(rng.uniform(0.5, 1.0), 3)},
        })
        for member in members:
            records.append({
                "t": start, "kind": "fact", "relation": relation,
                "args": [f"o{member}", oid],
            })
    return records


# -- applying records --------------------------------------------------------
def apply_record(db: VideoDatabase, record: Record) -> None:
    """Apply one dump record to *db* (caller provides the transaction),
    exactly as the wire protocol's ``batch`` applies its sub-op."""
    decode_mutation(record_to_op(record))(db)


def record_to_op(record: Record) -> Dict[str, Any]:
    """One dump record as a wire ``batch`` sub-op."""
    kind = record["kind"]
    if kind == "entity":
        return {"op": "insert_entity", "oid": record.get("oid"),
                "attributes": record.get("attributes", {})}
    if kind == "interval":
        return {"op": "insert_interval", "oid": record.get("oid"),
                "entities": record.get("entities", []),
                "duration": record.get("duration"),
                "attributes": record.get("attributes", {})}
    if kind == "fact":
        args = record.get("args")
        return {"op": "relate", "relation": record.get("relation"),
                "args": list(args) if isinstance(args, tuple) else args}
    raise ProtocolError(f"unknown record kind {kind!r}")


class IngestReport:
    """What one ingest run did (rendered by ``vidb ingest``)."""

    def __init__(self) -> None:
        self.records = 0
        self.batches = 0
        self.elapsed_s = 0.0
        self.final_epoch: Optional[int] = None
        self.head_lsn: Optional[int] = None

    @property
    def records_per_s(self) -> float:
        return self.records / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "records": self.records,
            "batches": self.batches,
            "elapsed_s": round(self.elapsed_s, 6),
            "records_per_s": round(self.records_per_s, 1),
            "epoch": self.final_epoch,
            "head_lsn": self.head_lsn,
        }

    def __repr__(self) -> str:
        return (f"IngestReport({self.records} records / "
                f"{self.batches} batches, "
                f"{self.records_per_s:.0f} rec/s)")


def _batches(records: Iterable[Record],
             batch_size: int) -> Iterator[List[Record]]:
    batch: List[Record] = []
    for record in records:
        batch.append(record)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def ingest_records(client: Any, records: Iterable[Record],
                   batch_size: int = 100,
                   progress: Optional[Callable[[IngestReport], None]] = None,
                   ) -> IngestReport:
    """Replay *records* through a server via atomic ``batch`` ops.

    *client* is a :class:`~vidb.service.server.ServiceClient` (anything
    with ``.batch(ops)``).  Each wire batch commits as one transaction:
    one delta, one notification round for standing queries.
    """
    if batch_size < 1:
        raise ProtocolError("batch_size must be at least 1")
    report = IngestReport()
    started = time.perf_counter()
    for batch in _batches(records, batch_size):
        reply = client.batch([record_to_op(record) for record in batch])
        report.records += len(batch)
        report.batches += 1
        report.final_epoch = reply.get("epoch")
        report.head_lsn = reply.get("head_lsn", report.head_lsn)
        if progress is not None:
            report.elapsed_s = time.perf_counter() - started
            progress(report)
    report.elapsed_s = time.perf_counter() - started
    return report


def ingest_local(service: Any, records: Iterable[Record],
                 batch_size: int = 100) -> IngestReport:
    """Replay *records* straight into a
    :class:`~vidb.service.executor.ServiceExecutor` (embedded mode —
    the benchmarks and tests use this to skip the socket)."""
    class Local:
        @staticmethod
        def batch(ops: List[Dict[str, Any]]) -> Dict[str, Any]:
            service.mutate(lambda db: [decode_mutation(op)(db) for op in ops])
            return {"epoch": service.db.epoch}

    return ingest_records(Local, records, batch_size)
