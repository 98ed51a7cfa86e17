"""Stateful property test: the indexed database vs a naive model.

Hypothesis drives random operation sequences (add/replace/remove objects,
assert/retract facts, transactions with rollback) against both the real
:class:`VideoDatabase` and a dumb dict-based model; after every step the
index-backed access paths must agree with brute-force recomputation over
the model, and the stored relations evaluation reads in place must equal
a rebuild from the database's own video sequence.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from vidb.intervals.generalized import GeneralizedInterval
from vidb.model.objects import EntityObject, GeneralizedIntervalObject
from vidb.model.oid import Oid
from vidb.model.relations import RelationFact
from vidb.storage.database import VideoDatabase, classes_of

ENTITY_NAMES = [f"e{i}" for i in range(6)]
INTERVAL_NAMES = [f"g{i}" for i in range(6)]
ROLES = ["host", "guest", "crew"]


class DatabaseMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.db = VideoDatabase("stateful")
        self.entities = {}       # oid -> EntityObject
        self.intervals = {}      # oid -> GeneralizedIntervalObject
        self.facts = set()

    # -- operations --------------------------------------------------------
    @rule(name=st.sampled_from(ENTITY_NAMES), role=st.sampled_from(ROLES))
    def add_entity(self, name, role):
        oid = Oid.entity(name)
        if oid in self.entities:
            return
        obj = EntityObject(oid, {"role": role})
        self.db.add(obj)
        self.entities[oid] = obj

    @rule(name=st.sampled_from(INTERVAL_NAMES),
          start=st.integers(0, 50), width=st.integers(1, 20),
          member_names=st.frozensets(st.sampled_from(ENTITY_NAMES),
                                     max_size=3))
    def add_interval(self, name, start, width, member_names):
        oid = Oid.interval(name)
        if oid in self.intervals:
            return
        members = frozenset(Oid.entity(m) for m in member_names
                            if Oid.entity(m) in self.entities)
        obj = GeneralizedIntervalObject(oid, {
            "entities": members,
            "duration": GeneralizedInterval.from_pairs(
                [(start, start + width)]),
        })
        self.db.add(obj)
        self.intervals[oid] = obj

    @rule(name=st.sampled_from(ENTITY_NAMES), role=st.sampled_from(ROLES))
    def update_role(self, name, role):
        oid = Oid.entity(name)
        if oid not in self.entities:
            return
        self.db.set_attribute(oid, "role", role)
        self.entities[oid] = self.entities[oid].with_attribute("role", role)

    @rule(name=st.sampled_from(INTERVAL_NAMES))
    def remove_interval(self, name):
        oid = Oid.interval(name)
        if oid not in self.intervals:
            return
        # facts referencing the interval are retracted first (otherwise
        # they dangle — which validate() would rightly flag)
        for fact in [f for f in self.facts if oid in f.args]:
            self.db.remove_fact(fact)
            self.facts.discard(fact)
        self.db.remove_object(oid)
        del self.intervals[oid]

    @rule(src=st.sampled_from(ENTITY_NAMES),
          interval=st.sampled_from(INTERVAL_NAMES))
    def relate(self, src, interval):
        src_oid, gi_oid = Oid.entity(src), Oid.interval(interval)
        if src_oid not in self.entities or gi_oid not in self.intervals:
            return
        self.db.relate("in", src_oid, gi_oid)
        self.facts.add(RelationFact("in", (src_oid, gi_oid)))

    @rule(name=st.sampled_from(ENTITY_NAMES), role=st.sampled_from(ROLES))
    def rolled_back_transaction_changes_nothing(self, name, role):
        oid = Oid.entity(name)
        try:
            with self.db.transaction():
                if oid in self.entities:
                    self.db.set_attribute(oid, "role", role + "_tmp")
                else:
                    self.db.new_entity(name, role=role)
                self.db.new_interval("tx_scratch", duration=[(990, 999)])
                self.db.relate("in", oid, Oid.interval("tx_scratch"))
                for fact in list(self.facts)[:1]:
                    self.db.remove_fact(fact)
                raise RuntimeError("abort")
        except RuntimeError:
            pass  # everything must have been undone

    # -- invariants -------------------------------------------------------------
    @invariant()
    def stats_agree(self):
        stats = self.db.stats()
        assert stats["entities"] == len(self.entities)
        assert stats["intervals"] == len(self.intervals)
        assert stats["facts"] == len(self.facts)

    @invariant()
    def attribute_index_agrees(self):
        for role in ROLES:
            expected = {oid for oid, obj in self.entities.items()
                        if obj.get("role") == role}
            actual = {o.oid for o in self.db.find_by_attribute("role", role)}
            assert actual == expected

    @invariant()
    def membership_index_agrees(self):
        for entity_oid in self.entities:
            expected = {oid for oid, obj in self.intervals.items()
                        if entity_oid in obj.entities}
            actual = {i.oid
                      for i in self.db.intervals_with_entity(entity_oid)}
            assert actual == expected

    @invariant()
    def temporal_index_agrees(self):
        for probe in (5, 25, 45):
            expected = {oid for oid, obj in self.intervals.items()
                        if obj.footprint().contains_point(probe)}
            actual = {i.oid for i in self.db.intervals_at(probe)}
            assert actual == expected

    @invariant()
    def store_equals_rebuild_from_sequence(self):
        sequence = self.db.sequence
        expected = {}
        for fact in sequence.facts():
            expected.setdefault(fact.name, set()).add(fact.args)
        assert self.db.relation_names() == frozenset(expected)
        objects = sequence.intervals() + sequence.objects()
        for obj in objects:
            for name in classes_of(obj):
                expected.setdefault(name, set()).add((obj.oid,))
        assert dict(self.db.objects) == {obj.oid: obj for obj in objects}
        for name in ("in", "interval", "object", "anyobject"):
            rows = expected.get(name, set())
            stored = self.db.relation(name)
            if stored is None:
                assert not rows
                continue
            assert stored.tuples == rows
            # Probing builds the position-0 index the first time; every
            # later step's mutations must keep it equal to a rebuild.
            by_first = {}
            for row in rows:
                by_first.setdefault(row[0], set()).add(row)
            assert stored.index(0) == by_first
        assert self.db.facts("in") == frozenset(self.facts)

    @invariant()
    def referential_integrity_clean(self):
        # our rules never create dangling references
        assert self.db.sequence.validate() == []


DatabaseMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)

TestDatabaseStateful = DatabaseMachine.TestCase
