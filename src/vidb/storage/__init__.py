"""Storage engine: the indexed video database, transactions, persistence."""

from vidb.storage.database import VideoDatabase
from vidb.storage.index import TemporalIndex
from vidb.storage.persistence import (
    database_from_dict,
    database_to_dict,
    decode_value,
    dumps,
    encode_value,
    load,
    loads,
    save,
)
from vidb.storage.relation import Relation
from vidb.storage.transactions import CommittedDelta, Transaction

__all__ = [
    "CommittedDelta",
    "Relation",
    "TemporalIndex",
    "Transaction",
    "VideoDatabase",
    "database_from_dict",
    "database_to_dict",
    "decode_value",
    "dumps",
    "encode_value",
    "load",
    "loads",
    "save",
]
