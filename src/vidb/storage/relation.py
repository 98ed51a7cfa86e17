"""The one relation type: a set of ground tuples with lazy hash indexes.

:class:`~vidb.storage.database.VideoDatabase` keeps one
:class:`Relation` per fact relation plus the three class relations, and
maintains them on every mutation; evaluation reads them in place and
keeps its own relations (IDB, semi-naive deltas) of the same type.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Set, Tuple

GroundValue = Any  # Oid or constant
GroundTuple = Tuple[GroundValue, ...]

#: The class relations (Definition 22): the interval objects, the entity
#: objects, and both.  Their names are the query language's class
#: predicates.
INTERVAL_PRED = "interval"
OBJECT_PRED = "object"
ANYOBJECT_PRED = "anyobject"


class Relation:
    """A set of ground tuples with per-position hash indexes, each built
    the first time its position is probed (most never are: a query
    touches a few positions of a few relations, and a semi-naive delta
    is usually read once) and maintained from then on."""

    __slots__ = ("tuples", "_index", "_arity")

    def __init__(self) -> None:
        self.tuples: Set[GroundTuple] = set()
        self._index: Dict[int, Dict[GroundValue, Set[GroundTuple]]] = {}
        #: The arity every tuple shares; None while empty, -1 once mixed.
        self._arity: Optional[int] = None

    def add(self, row: GroundTuple) -> bool:
        """Insert; returns True when the tuple is new."""
        if row in self.tuples:
            return False
        if self._arity != len(row):
            self._arity = len(row) if self._arity is None else -1
        self.tuples.add(row)
        for position, buckets in self._index.items():
            if position < len(row):
                buckets.setdefault(row[position], set()).add(row)
        return True

    def remove(self, row: GroundTuple) -> bool:
        """Delete; returns True when the tuple was present."""
        if row not in self.tuples:
            return False
        self.tuples.discard(row)
        for position, buckets in self._index.items():
            if position < len(row):
                bucket = buckets[row[position]]
                bucket.discard(row)
                if not bucket:
                    del buckets[row[position]]
        return True

    def copy(self) -> "Relation":
        """An independent relation with the same tuples (indexes are
        rebuilt lazily)."""
        twin = Relation()
        twin.tuples = set(self.tuples)
        twin._arity = self._arity
        return twin

    def index(self, position: int) -> Dict[GroundValue, Set[GroundTuple]]:
        """value → tuples holding it at *position*, built on first use.

        The map is complete before it is published, so a concurrent (or
        re-entrant) probe of the same position never sees a partial one.
        """
        buckets = self._index.get(position)
        if buckets is None:
            buckets = {}
            for row in self.tuples:
                if position < len(row):
                    buckets.setdefault(row[position], set()).add(row)
            self._index[position] = buckets
        return buckets

    def select(self, pattern: Sequence[Optional[GroundValue]]
               ) -> Iterable[GroundTuple]:
        """Tuples matching a pattern (None = wildcard).

        The result may be a live view of the relation: consume it before
        inserting.
        """
        best: Optional[Set[GroundTuple]] = None
        bound = 0
        for position, value in enumerate(pattern):
            if value is None:
                continue
            bound += 1
            bucket = self.index(position).get(value)
            if bucket is None:
                return ()  # a bound position has no matches at all
            if best is None or len(bucket) < len(best):
                best = bucket
        source = best if best is not None else self.tuples
        if self._arity == len(pattern) and bound <= 1:
            return source  # the index bucket (or the scan) is the answer
        return [row for row in source if _matches(row, pattern)]

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, row: GroundTuple) -> bool:
        return row in self.tuples


def _matches(row: GroundTuple, pattern: Sequence[Optional[GroundValue]]) -> bool:
    if len(row) != len(pattern):
        return False
    for value, wanted in zip(row, pattern):
        if wanted is not None and value != wanted:
            return False
    return True
