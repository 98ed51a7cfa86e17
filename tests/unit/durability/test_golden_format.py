"""The persisted formats, pinned byte for byte.

Round-trip tests (decode after encode) cannot see a change that both
directions make together; these two texts can.  One fixed database and
one change set holding all six mutation types, with oid, set, fraction
and constraint values: its snapshot file and the ``commit`` frame of
the change set must keep exactly these bytes, or old data directories
stop reading the same.
"""

import json
from fractions import Fraction

from vidb.durability.records import COMMIT, encode_commit
from vidb.durability.snapshot import write_snapshot
from vidb.durability.wal import WalRecord, encode_frame
from vidb.intervals.generalized import GeneralizedInterval
from vidb.model.objects import EntityObject, GeneralizedIntervalObject
from vidb.model.oid import Oid
from vidb.model.relations import RelationFact
from vidb.storage.database import VideoDatabase
from vidb.storage.persistence import dumps

SNAPSHOT = (
    '{"entities":[{"attributes":{"name":"Ana","score":{"$fraction":'
    '[7,8]}},"oid":{"$oid":{"kind":"entity","parts":["o1"]}}},'
    '{"attributes":{"partner":{"$oid":{"kind":"entity","parts":["o1"]}},'
    '"tags":{"$set":["red",7,{"$oid":{"kind":"entity","parts":["o2"]}}]},'
    '"weight":{"$fraction":[-5,3]}},"oid":{"$oid":{"kind":"entity",'
    '"parts":["o3"]}}}],"epoch":11,"facts":[{"args":[{"$oid":{"kind":'
    '"entity","parts":["o3"]}},{"$fraction":[1,2]},{"$oid":{"kind":'
    '"interval","parts":["g2"]}}],"name":"near"}],"format":1,'
    '"intervals":[{"attributes":{"duration":{"$constraint":[[{"left":'
    '{"$var":"t"},"op":">=","right":0},{"left":{"$var":"t"},'
    '"op":"<=","right":5}],[{"left":{"$var":"t"},"op":">=",'
    '"right":8},{"left":{"$var":"t"},"op":"<=","right":9}]]},'
    '"entities":{"$set":[{"$oid":{"kind":"entity","parts":["o1"]}},'
    '{"$oid":{"kind":"entity","parts":["o2"]}}]},"mood":"calm"},'
    '"oid":{"$oid":{"kind":"interval","parts":["g1"]}}},{"attributes":'
    '{"duration":{"$constraint":[[{"left":{"$var":"t"},"op":">=",'
    '"right":2},{"left":{"$var":"t"},"op":"<=","right":4}]]},'
    '"entities":{"$set":[{"$oid":{"kind":"entity","parts":["o3"]}}]},'
    '"window":{"$constraint":[[{"left":{"$var":"t"},"op":">=",'
    '"right":1},{"left":{"$var":"t"},"op":"<=","right":3}],'
    '[{"left":{"$var":"t"},"op":">=","right":6},{"left":{"$var":"t"},'
    '"op":"<=","right":7}]]}},"oid":{"$oid":{"kind":"interval",'
    '"parts":["g2"]}}}],"name":"golden"}')

COMMIT_FRAME = (
    '{"data":{"mutations":[["declare_relation",{"name":"watched"}],'
    '["add",{"attributes":{"partner":{"$oid":{"kind":"entity",'
    '"parts":["o1"]}},"tags":{"$set":["red",7,{"$oid":{"kind":"entity",'
    '"parts":["o2"]}}]},"weight":{"$fraction":[-5,3]}},"kind":"entity",'
    '"oid":{"$oid":{"kind":"entity","parts":["o3"]}}}],["add",'
    '{"attributes":{"duration":{"$constraint":[[{"left":{"$var":"t"},'
    '"op":">=","right":2},{"left":{"$var":"t"},"op":"<=",'
    '"right":4}]]},"entities":{"$set":[{"$oid":{"kind":"entity",'
    '"parts":["o3"]}}]},"window":{"$constraint":[[{"left":{"$var":"t"},'
    '"op":">=","right":1},{"left":{"$var":"t"},"op":"<=",'
    '"right":3}],[{"left":{"$var":"t"},"op":">=","right":6},'
    '{"left":{"$var":"t"},"op":"<=","right":7}]]}},"kind":"interval",'
    '"oid":{"$oid":{"kind":"interval","parts":["g2"]}}}],'
    '["relate",{"args":[{"$oid":{"kind":"entity","parts":["o3"]}},'
    '{"$fraction":[1,2]},{"$oid":{"kind":"interval","parts":["g2"]}}],'
    '"name":"near"}],["replace",{"attributes":{"name":"Ana",'
    '"score":{"$fraction":[7,8]}},"kind":"entity","oid":{"$oid":{"kind":'
    '"entity","parts":["o1"]}}}],["remove_fact",{"args":[{"$oid":{"kind":'
    '"entity","parts":["o1"]}},{"$oid":{"kind":"entity","parts":["o2"]}},'
    '{"$oid":{"kind":"interval","parts":["g1"]}}],"name":"near"}],'
    '["remove_object",{"oid":{"$oid":{"kind":"entity","parts":["o2"]}}}]]},'
    '"lsn":9,"type":"commit"}')


def footprint(*pairs):
    return GeneralizedInterval.from_pairs(pairs).to_constraint()


def golden():
    """``(database, events of its last commit)``."""
    db = VideoDatabase("golden")
    db.new_entity("o1", name="Ana", score=Fraction(3, 4))
    db.new_entity("o2", name="Ben")
    db.new_interval("g1", entities=["o1", "o2"], duration=[(0, 5), (8, 9)],
                    mood="calm")
    db.relate("near", Oid.entity("o1"), Oid.entity("o2"), Oid.interval("g1"))
    events = []
    db.add_mutation_observer(lambda delta: events.extend(delta.events))
    with db.transaction():
        db.declare_relation("watched")
        db.add(EntityObject(Oid.entity("o3"), {
            "partner": Oid.entity("o1"),
            "tags": frozenset({"red", Oid.entity("o2"), 7}),
            "weight": Fraction(-5, 3)}))
        db.add(GeneralizedIntervalObject(Oid.interval("g2"), {
            "entities": frozenset({Oid.entity("o3")}),
            "duration": footprint((2, 4)),
            "window": footprint((1, 3), (6, 7))}))
        db.relate("near", Oid.entity("o3"), Fraction(1, 2),
                  Oid.interval("g2"))
        db.replace(db.entity("o1").with_attribute("score", Fraction(7, 8)))
        db.remove_fact(RelationFact("near", (
            Oid.entity("o1"), Oid.entity("o2"), Oid.interval("g1"))))
        db.remove_object(Oid.entity("o2"))
    return db, events


def test_snapshot_bytes(tmp_path):
    db, __ = golden()
    path = write_snapshot(db, tmp_path, lsn=9)
    expected = dict(json.loads(SNAPSHOT), wal_lsn=9)
    assert path.read_text(encoding="utf-8") == json.dumps(
        expected, indent=2, sort_keys=True)
    assert dumps(db) == json.dumps(json.loads(SNAPSHOT), indent=2,
                                   sort_keys=True)


def test_commit_frame_bytes():
    __, events = golden()
    assert [event[0] for event in events] == [
        "declare_relation", "add", "add", "relate", "replace",
        "remove_fact", "remove_object"]
    frame = encode_frame(WalRecord(9, COMMIT, encode_commit(events)))
    assert frame.endswith(COMMIT_FRAME.encode("utf-8"))
