"""Property-based tests: persistence round-trips for arbitrary databases,
on disk and over the wire."""

import io

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vidb.intervals.generalized import GeneralizedInterval
from vidb.model.oid import Oid
from vidb.service import ServiceClient, ServiceExecutor, VideoServer
from vidb.storage.database import VideoDatabase
from vidb.storage.persistence import (
    database_to_dict,
    decode_value,
    dumps,
    encode_value,
    loads,
)
from vidb.stream.ingest import ingest_records, iter_dump, record_to_op, write_dump

scalars = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.text(min_size=0, max_size=12),
    st.fractions(min_value=-10, max_value=10, max_denominator=50),
)

oids = st.one_of(
    st.sampled_from(["a", "b", "c"]).map(Oid.entity),
    st.sampled_from(["g1", "g2"]).map(Oid.interval),
)

constraints = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 10)), min_size=1,
    max_size=3).map(lambda pairs: GeneralizedInterval.from_pairs(
        [(lo, lo + width) for lo, width in pairs]).to_constraint())

values = st.recursive(
    st.one_of(scalars, oids, constraints),
    lambda children: st.frozensets(children, max_size=4),
    max_leaves=8,
)


class TestValueCodec:
    @settings(max_examples=200)
    @given(values)
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10)),
                    min_size=0, max_size=4))
    def test_constraint_roundtrip(self, pairs):
        footprint = GeneralizedInterval.from_pairs(
            [(lo, lo + width) for lo, width in pairs])
        constraint = footprint.to_constraint()
        decoded = decode_value(encode_value(constraint))
        assert GeneralizedInterval.from_constraint(decoded) == footprint


names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@st.composite
def databases(draw):
    db = VideoDatabase(draw(names))
    entity_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    for i, name in enumerate(entity_names):
        attrs = draw(st.dictionaries(names, values, max_size=3))
        db.new_entity(f"e_{name}_{i}", **attrs)
    entity_oids = [e.oid for e in db.entities()]
    interval_count = draw(st.integers(0, 3))
    for i in range(interval_count):
        pairs = draw(st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 10)),
            min_size=1, max_size=3))
        members = draw(st.sets(st.sampled_from(entity_oids), max_size=3)) \
            if entity_oids else set()
        db.new_interval(
            f"g{i}", entities=members,
            duration=[(lo, lo + width) for lo, width in pairs])
    for __ in range(draw(st.integers(0, 3))):
        args = draw(st.lists(st.one_of(st.sampled_from(entity_oids), scalars),
                             min_size=1, max_size=3)) if entity_oids else [1]
        db.relate(draw(names), *args)
    return db


class TestDatabaseRoundtrip:
    @settings(max_examples=50, deadline=None)
    @given(databases())
    def test_full_roundtrip(self, db):
        restored = loads(dumps(db))
        assert set(restored.entities()) == set(db.entities())
        assert set(restored.intervals()) == set(db.intervals())
        assert restored.facts() == db.facts()

    @settings(max_examples=50, deadline=None)
    @given(databases())
    def test_snapshot_stability(self, db):
        snapshot = dumps(db)
        assert dumps(loads(snapshot)) == snapshot


# -- over the wire -------------------------------------------------------------
def dump_records(db):
    """*db* as dump records whose every value is tagged as on disk."""
    def tagged(attributes):
        return {name: encode_value(value) for name, value in attributes}

    records = []
    for obj in sorted(db.entities(), key=lambda o: o.oid):
        [name] = obj.oid.parts
        records.append({"t": 0, "kind": "entity", "oid": name,
                        "attributes": tagged(obj.items())})
    for obj in sorted(db.intervals(), key=lambda o: o.oid):
        [name] = obj.oid.parts
        records.append({
            "t": 0, "kind": "interval", "oid": name,
            "entities": [encode_value(oid) for oid in sorted(obj.entities)],
            "duration": [list(pair) for pair in obj.footprint().to_pairs()],
            "attributes": tagged((name, value) for name, value in obj.items()
                                 if name not in ("entities", "duration"))})
    for fact in sorted(db.facts(), key=repr):
        records.append({"t": 0, "kind": "fact", "relation": fact.name,
                        "args": [encode_value(arg) for arg in fact.args]})
    return records


def served(load):
    """``database_to_dict`` of what ``load(client)`` writes to a live
    server over an empty database, without its name and epoch."""
    with ServiceExecutor(VideoDatabase("wire")) as service, \
            VideoServer(service, port=0) as server:
        server.start_background()
        client = ServiceClient(*server.address)
        try:
            load(client)
        finally:
            client.close()
        return comparable(service.db)


def comparable(db):
    data = database_to_dict(db)
    del data["name"], data["epoch"]
    return data


class TestWireRoundtrip:
    """Every object and fact the model holds can be written over the
    wire, as a ``batch`` and as an ingested dump, and reads back as the
    same snapshot."""

    @settings(max_examples=30, deadline=None)
    @given(databases())
    def test_batch_and_ingest_rebuild_the_database(self, db):
        names = {part for oid in db.objects for part in oid.parts}
        # A plain string argument naming an existing object resolves to
        # that object, as a symbol in query text does (docs/SERVICE.md,
        # "Typed values"): such a fact is not written as a constant.
        assume(not any(isinstance(arg, str) and arg in names
                       for fact in db.facts() for arg in fact.args))
        records = dump_records(db)
        expected = comparable(db)

        assert served(lambda client: client.batch(
            [record_to_op(record) for record in records])) == expected

        dump = io.StringIO()
        write_dump(records, dump)
        parsed = iter_dump(dump.getvalue().splitlines())
        assert served(lambda client: ingest_records(
            client, parsed, batch_size=2)) == expected
