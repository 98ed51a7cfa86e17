"""The temporal index of the video database.

:class:`TemporalIndex` keeps interval-object footprints by fragment, for
time-point ("what is on screen at t?") and range-overlap probes.  Every
other access path — facts by name or argument, attribute values, entity
membership (δ1 inverted), the class relations — is a
:class:`~vidb.storage.relation.Relation`, which indexes its argument
positions on demand.  :class:`vidb.storage.database.VideoDatabase`
maintains all of them incrementally.
"""

from __future__ import annotations

import bisect
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from vidb.intervals.generalized import GeneralizedInterval
from vidb.model.objects import GeneralizedIntervalObject
from vidb.model.oid import Oid


class TemporalIndex:
    """Fragment-level temporal index over interval-object footprints.

    Keeps each footprint fragment as ``(start, end, oid)`` in a list sorted
    by start, enabling sweep-style point and range probes.  The fragment
    count per video document is modest (thousands), so a sorted list with
    bisect is both simple and adequate; the benchmark suite measures it.
    """

    def __init__(self) -> None:
        self._starts: List = []          # sorted fragment start points
        self._rows: List[Tuple] = []     # (start, end, oid), parallel order
        self._footprints: Dict[Oid, GeneralizedInterval] = {}

    def add(self, interval: GeneralizedIntervalObject) -> None:
        if not interval.has_duration:
            return
        try:
            footprint = interval.footprint()
        except Exception:
            return  # unbounded/multi-variable durations are not indexable
        self._footprints[interval.oid] = footprint
        for fragment in footprint:
            position = bisect.bisect_left(self._starts, fragment.lo)
            self._starts.insert(position, fragment.lo)
            self._rows.insert(position, (fragment.lo, fragment.hi, interval.oid))

    def remove(self, interval: GeneralizedIntervalObject) -> None:
        footprint = self._footprints.pop(interval.oid, None)
        if footprint is None:
            return
        keep_rows = []
        keep_starts = []
        for start, row in zip(self._starts, self._rows):
            if row[2] != interval.oid:
                keep_starts.append(start)
                keep_rows.append(row)
        self._starts = keep_starts
        self._rows = keep_rows

    def footprint(self, oid: Oid) -> Optional[GeneralizedInterval]:
        return self._footprints.get(oid)

    def at(self, t) -> FrozenSet[Oid]:
        """Oids of intervals whose footprint covers time point *t*."""
        out: Set[Oid] = set()
        limit = bisect.bisect_right(self._starts, t)
        for start, end, oid in self._rows[:limit]:
            if oid in out:
                continue
            footprint = self._footprints[oid]
            if start <= t <= end and footprint.contains_point(t):
                out.add(oid)
        return frozenset(out)

    def overlapping(self, lo, hi) -> FrozenSet[Oid]:
        """Oids whose footprint intersects the closed range ``[lo, hi]``."""
        probe = GeneralizedInterval.from_pairs([(lo, hi)])
        out: Set[Oid] = set()
        limit = bisect.bisect_right(self._starts, hi)
        for _start, end, oid in self._rows[:limit]:
            if oid in out:
                continue
            if end < lo:
                continue
            if self._footprints[oid].overlaps(probe):
                out.add(oid)
        return frozenset(out)
