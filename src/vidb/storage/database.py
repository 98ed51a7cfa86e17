"""The video database: a :class:`vidb.model.VideoSequence` plus indexes.

This is the storage engine queries run against.  It offers:

* convenience constructors (``new_entity`` / ``new_interval`` / ``relate``)
  that build model objects from plain Python data;
* the relations queries read in place (:meth:`relation`): one
  :class:`~vidb.storage.relation.Relation` per fact relation, the class
  relations ``interval`` / ``object`` / ``anyobject``, and one oid →
  object map (:attr:`objects`);
* index-accelerated access paths (attribute probes, entity membership,
  relation lookups, temporal point/range probes);
* undo-log transactions (:meth:`transaction`);
* JSON persistence (in :mod:`vidb.storage.persistence`).

Objects are immutable, so updates replace an object wholesale and the
indexes are maintained by remove-then-add.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from vidb.errors import ModelError, UnknownOidError
from vidb.intervals.generalized import GeneralizedInterval
from vidb.model.objects import ENTITIES_ATTR, EntityObject, GeneralizedIntervalObject, VideoObject
from vidb.model.oid import Oid
from vidb.model.relations import FactArg, RelationFact
from vidb.model.sequence import VideoSequence
from vidb.storage.index import TemporalIndex
from vidb.storage.relation import ANYOBJECT_PRED, INTERVAL_PRED, OBJECT_PRED, Relation
from vidb.storage.transactions import CommittedDelta, MutationEvent, Transaction

OidLike = Union[Oid, str]


def classes_of(obj: VideoObject) -> Tuple[str, str]:
    """The class relations *obj* belongs to."""
    if isinstance(obj, GeneralizedIntervalObject):
        return INTERVAL_PRED, ANYOBJECT_PRED
    return OBJECT_PRED, ANYOBJECT_PRED


class VideoDatabase:
    """An indexed store of one video document's symbolic description."""

    def __init__(self, name: str = "video"):
        self.sequence = VideoSequence(name)
        #: ``(attribute, value, oid)``, set values once per member — so
        #: ``("entities", e, interval)`` is δ1 inverted.
        self._attributes = Relation()
        self._temporal_index = TemporalIndex()
        #: Fact relations by name: exactly :meth:`relation_names` (a
        #: relation left empty by removals goes unless declared).
        self._relations: Dict[str, Relation] = {}
        #: The class relations.  They shadow a fact relation of the same
        #: name in :meth:`relation`, as the class predicates do in rules.
        self._classes = {name: Relation() for name in
                         (INTERVAL_PRED, OBJECT_PRED, ANYOBJECT_PRED)}
        self._objects: Dict[Oid, VideoObject] = {}
        self._declared_relations: set = set()
        self._journal: Optional[List] = None  # undo log when inside a transaction
        #: The open transaction's mutation events, announced at commit.
        self._changes: Optional[List[MutationEvent]] = None
        #: Mutation observers (see :meth:`add_mutation_observer`): each
        #: commit is announced as one :class:`CommittedDelta`.  The
        #: WAL, the replicas' apply path and the stream hub hang off it.
        self._observers: List = []
        #: Monotonic mutation counter.  Every successful mutating operation
        #: bumps it, so two reads of the database at the same epoch are
        #: guaranteed to see the same state — the invariant the service
        #: layer's result cache keys on.  Rolling back a transaction
        #: restores the epoch it snapshotted (the state is restored too,
        #: so the invariant holds).
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """The current mutation epoch (see ``vidb.service.cache``)."""
        return self._epoch

    @property
    def name(self) -> str:
        return self.sequence.name

    @property
    def in_transaction(self) -> bool:
        """True while an undo-log transaction is open on this database."""
        return self._journal is not None

    # -- oid coercion ------------------------------------------------------
    @staticmethod
    def entity_oid(oid: OidLike) -> Oid:
        return oid if isinstance(oid, Oid) else Oid.entity(oid)

    @staticmethod
    def interval_oid(oid: OidLike) -> Oid:
        return oid if isinstance(oid, Oid) else Oid.interval(oid)

    # -- population ---------------------------------------------------------
    def new_entity(self, oid: OidLike, **attributes) -> EntityObject:
        """Create, register and return an entity object.

        >>> db = VideoDatabase()
        >>> david = db.new_entity("id3", name="David", role="Victim")
        """
        obj = EntityObject(self.entity_oid(oid), attributes)
        return self.add(obj)

    def new_interval(self, oid: OidLike,
                     entities: Iterable[OidLike] = (),
                     duration: Union[GeneralizedInterval, object, None] = None,
                     **attributes) -> GeneralizedIntervalObject:
        """Create, register and return a generalized-interval object.

        ``entities`` may mix oids and bare entity names; ``duration`` may be
        a :class:`GeneralizedInterval`, a dense-order constraint, or a list
        of ``(lo, hi)`` pairs.
        """
        attrs = dict(attributes)
        entity_oids = frozenset(self.entity_oid(e) for e in entities)
        if entity_oids or "entities" not in attrs:
            attrs["entities"] = entity_oids
        if duration is not None:
            if isinstance(duration, (list, tuple)):
                duration = GeneralizedInterval.from_pairs(duration)
            attrs["duration"] = duration
        obj = GeneralizedIntervalObject(self.interval_oid(oid), attrs)
        return self.add(obj)

    def add(self, obj: VideoObject) -> VideoObject:
        """Register a prebuilt model object (entity or interval)."""
        if not isinstance(obj, (EntityObject, GeneralizedIntervalObject)):
            raise ModelError(f"expected an EntityObject or GeneralizedIntervalObject, got {obj!r}")
        self._store(obj)
        self._log(("remove_object", obj.oid))
        self._epoch += 1
        self._emit(("add", obj))
        return obj

    def relate(self, relation: Union[str, RelationFact], *args: FactArg) -> RelationFact:
        """Assert a relation fact, e.g. ``db.relate("in", o1, o4, gi1)``.

        Arguments may be oids, model objects (their oid is taken) or
        constants.
        """
        if isinstance(relation, RelationFact):
            fact = relation
        else:
            coerced = tuple(
                a.oid if isinstance(a, VideoObject) else a for a in args
            )
            fact = RelationFact(relation, coerced)
        stored = self._relations.get(fact.name)
        if stored is not None and fact.args in stored:
            return fact
        self.sequence.add_fact(fact)
        if stored is None:
            stored = self._relations[fact.name] = Relation()
        stored.add(fact.args)
        self._log(("remove_fact", fact))
        self._epoch += 1
        self._emit(("relate", fact))
        return fact

    # -- updates / deletion --------------------------------------------------
    def replace(self, obj: VideoObject) -> VideoObject:
        """Replace the object with the same oid (reindexing it)."""
        old = self.get(obj.oid)
        if old is None:
            raise UnknownOidError(f"no object with oid {obj.oid}")
        if not isinstance(obj, (EntityObject, GeneralizedIntervalObject)):
            raise ModelError(f"cannot replace with {obj!r}")
        self._deindex(old)
        self._store(obj, replace=True)
        self._log(("restore_object", old))
        self._epoch += 1
        self._emit(("replace", obj))
        return obj

    def set_attribute(self, oid: OidLike, name: str, value) -> VideoObject:
        """Functional attribute update: replaces the stored object."""
        obj = self._require(oid)
        return self.replace(obj.with_attribute(name, value))

    def remove_object(self, oid: OidLike) -> VideoObject:
        """Remove an object (entity or interval) and its index entries.

        Facts mentioning the object are left in place; call
        :meth:`sequence.validate` to find dangling references, or remove
        the facts first.
        """
        obj = self._require(oid)
        self._deindex(obj)
        if isinstance(obj, GeneralizedIntervalObject):
            self.sequence.remove_interval(obj.oid)
        else:
            self.sequence.remove_object(obj.oid)
        self._log(("restore_removed", obj))
        self._epoch += 1
        self._emit(("remove_object", obj.oid))
        return obj

    def remove_fact(self, fact: RelationFact) -> None:
        stored = self._relations.get(fact.name)
        if stored is None or not stored.remove(fact.args):
            return
        if not stored and fact.name not in self._declared_relations:
            del self._relations[fact.name]
        self.sequence.remove_fact(fact)
        self._log(("restore_fact", fact))
        self._epoch += 1
        self._emit(("remove_fact", fact))

    def _store(self, obj: VideoObject, replace: bool = False) -> None:
        if isinstance(obj, GeneralizedIntervalObject):
            self.sequence.add_interval(obj, replace=replace)
            self._temporal_index.add(obj)
        else:
            self.sequence.add_object(obj, replace=replace)
        self._objects[obj.oid] = obj
        for relation, row in self._rows_of(obj):
            relation.add(row)

    def _deindex(self, obj: VideoObject) -> None:
        if isinstance(obj, GeneralizedIntervalObject):
            self._temporal_index.remove(obj)
        del self._objects[obj.oid]
        for relation, row in self._rows_of(obj):
            relation.remove(row)

    def _rows_of(self, obj: VideoObject) -> Iterator[Tuple[Relation, Tuple]]:
        """Every stored row *obj* contributes: its class rows and its
        indexable attribute values."""
        for name in classes_of(obj):
            yield self._classes[name], (obj.oid,)
        for name, value in obj.items():
            for member in value if isinstance(value, frozenset) else (value,):
                try:
                    hash(member)
                except TypeError:
                    continue  # not indexable
                yield self._attributes, (name, member, obj.oid)

    def _require(self, oid: OidLike) -> VideoObject:
        if isinstance(oid, str):
            # try both kinds for string convenience
            found = self.sequence.get(Oid.entity(oid)) or self.sequence.get(Oid.interval(oid))
        else:
            found = self.sequence.get(oid)
        if found is None:
            raise UnknownOidError(f"no object with oid {oid}")
        return found

    # -- access paths ---------------------------------------------------------
    def get(self, oid: Oid) -> Optional[VideoObject]:
        return self._objects.get(oid)

    def entity(self, oid: OidLike) -> EntityObject:
        return self.sequence.object(self.entity_oid(oid))

    def interval(self, oid: OidLike) -> GeneralizedIntervalObject:
        return self.sequence.interval(self.interval_oid(oid))

    def entities(self) -> Tuple[EntityObject, ...]:
        return self.sequence.objects()

    def intervals(self) -> Tuple[GeneralizedIntervalObject, ...]:
        return self.sequence.intervals()

    @property
    def objects(self) -> Mapping[Oid, VideoObject]:
        """Every stored object (entity or interval) by oid.  Read-only."""
        return self._objects

    def relation(self, name: str) -> Optional[Relation]:
        """The stored relation evaluation reads for predicate *name* — a
        class relation or a fact relation — or None.  Read-only."""
        found = self._classes.get(name)
        return found if found is not None else self._relations.get(name)

    def facts(self, name: Optional[str] = None) -> FrozenSet[RelationFact]:
        if name is None:
            return self.sequence.facts()
        stored = self._relations.get(name)
        return _as_facts(name, stored.tuples if stored else ())

    def declare_relation(self, name: str) -> None:
        """Register a relation name with no facts (yet).

        Body literals over unknown predicates are an evaluation error (it
        catches typos); declaring a relation lets queries mention it while
        it is still empty.
        """
        RelationFact(name, (0,))  # reuse the name validation
        if name not in self._declared_relations:
            self._declared_relations.add(name)
            self._relations.setdefault(name, Relation())
            self._epoch += 1
            self._emit(("declare_relation", name))

    def relation_names(self) -> FrozenSet[str]:
        return frozenset(self._relations)

    def facts_with_arg(self, name: str, position: int, value) -> FrozenSet[RelationFact]:
        stored = self._relations.get(name)
        return _as_facts(name, stored.index(position).get(value, ())
                         if stored else ())

    def find_by_attribute(self, name: str, value) -> List[VideoObject]:
        """Objects whose attribute equals *value* (or contains it, for sets)."""
        oids = {row[2] for row in self._attributes.select((name, value, None))}
        return [obj for obj in (self.get(oid) for oid in sorted(oids)) if obj]

    def intervals_with_entity(self, entity: OidLike) -> List[GeneralizedIntervalObject]:
        """All generalized intervals where the object appears (query Q2)."""
        rows = self._attributes.select(
            (ENTITIES_ATTR, self.entity_oid(entity), None))
        oids = sorted(row[2] for row in rows if row[2].is_interval)
        return [self.sequence.interval(oid) for oid in oids]

    def entities_in(self, interval: OidLike) -> List[EntityObject]:
        """The objects appearing in one interval (query Q1)."""
        gi = self.interval(interval)
        return [self.sequence.object(oid) for oid in sorted(gi.entities)]

    def intervals_at(self, t) -> List[GeneralizedIntervalObject]:
        """Intervals whose footprint covers time point *t*."""
        oids = self._temporal_index.at(t)
        return [self.sequence.interval(oid) for oid in sorted(oids)]

    def intervals_overlapping(self, lo, hi) -> List[GeneralizedIntervalObject]:
        """Intervals whose footprint intersects ``[lo, hi]``."""
        oids = self._temporal_index.overlapping(lo, hi)
        return [self.sequence.interval(oid) for oid in sorted(oids)]

    def footprint(self, interval: OidLike) -> Optional[GeneralizedInterval]:
        return self._temporal_index.footprint(self.interval_oid(interval))

    # -- transactions ------------------------------------------------------------
    def transaction(self) -> Transaction:
        """Open an undo-log transaction (a context manager)."""
        return Transaction(self)

    def _log(self, entry) -> None:
        if self._journal is not None:
            self._journal.append(entry)

    # -- mutation observers ----------------------------------------------------
    def add_mutation_observer(self, observer) -> None:
        """Subscribe ``observer(delta)`` to every commit.

        Each committed transaction is announced once, as one
        :class:`CommittedDelta` holding its mutation events in order;
        a mutation outside any transaction is a change set of one.  A
        rolled-back or empty transaction announces nothing, and neither
        do a rollback's undo operations.  Events mirror the epoch: each
        one bumped it by exactly one, so ``delta.epoch -
        delta.pre_epoch == len(delta)``, which is what lets a WAL replay
        reproduce the epoch exactly.  Observers run in registration
        order, after the commit, and must not mutate the database; an
        observer's exception reaches the committing caller.
        """
        self._observers.append(observer)

    def remove_mutation_observer(self, observer) -> None:
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def _emit(self, event: MutationEvent) -> None:
        if self._changes is not None:
            self._changes.append(event)
        else:
            self._announce([event])

    def _announce(self, events: List[MutationEvent]) -> None:
        """Hand one committed change set to every observer."""
        if self._observers:
            # Each event bumped the epoch by exactly one.
            delta = CommittedDelta(events, self._epoch,
                                   self._epoch - len(events))
            for observer in tuple(self._observers):
                observer(delta)

    # -- stats ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sequence)

    def stats(self) -> Dict[str, int]:
        return {
            "entities": len(self._classes[OBJECT_PRED]),
            "intervals": len(self._classes[INTERVAL_PRED]),
            "facts": sum(map(len, self._relations.values())),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"VideoDatabase({self.name!r}: {s['entities']} entities, "
                f"{s['intervals']} intervals, {s['facts']} facts)")


def _as_facts(name: str, rows: Iterable[Tuple]) -> FrozenSet[RelationFact]:
    return frozenset(RelationFact(name, row) for row in rows)
