"""Property-based test: observer-fed views ≡ from-scratch evaluation
under interleaved committed and aborted transactions.

Random transaction scripts — each a list of edge insertions (optionally
with a removal thrown in) ending in commit or abort — are applied to a
database with a StreamHub + ViewRegistry attached.  The registered
view, fed only through the observer stream, must afterwards equal a
fresh least-fixpoint over a database that replayed *only the committed
segments*; aborted segments must leave no trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidb.model.oid import Oid
from vidb.query.engine import QueryEngine
from vidb.query.fixpoint import evaluate
from vidb.query.parser import parse_program
from vidb.stream.hub import StreamHub
from vidb.stream.standing import SubscriptionManager
from vidb.stream.views import ViewRegistry
from vidb.storage.database import VideoDatabase

NODES = ["g0", "g1", "g2", "g3"]

REACH = parse_program("""
    reach(X, Y) :- next(X, Y).
    reach(X, Z) :- reach(X, Y), next(Y, Z).
""")

edge = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))

#: One transaction: its edges, whether it commits, and whether it also
#: removes the first edge it inserted (making the delta non-monotone).
segment = st.tuples(st.lists(edge, min_size=1, max_size=4),
                    st.booleans(), st.booleans())
script = st.lists(segment, max_size=6)

#: The constructive program of ``test_incremental_properties``: its ⊕
#: head makes a fed view copy the ``interval`` relation and object map.
CONSTRUCTIVE = parse_program("""
    linked(G1, G2) :- next(G1, G2).
    merged(G1 ++ G2) :- linked(G1, G2).
""")


def build_db():
    db = VideoDatabase("stream-prop")
    db.declare_relation("next")
    for i, node in enumerate(NODES):
        db.new_interval(node, duration=[(i * 10, i * 10 + 5)])
    return db


class Abort(Exception):
    pass


def run_script(db, steps, grow=False):
    """Apply *steps*; returns the edges seen only in aborted segments.

    With *grow*, each transaction first adds a fresh interval and links
    it after its first edge's source."""
    committed_edges = set()
    aborted_edges = set()
    for index, (edges, commits, removes) in enumerate(steps):
        try:
            with db.transaction():
                applied = []
                if grow:
                    fresh = f"n{index}"
                    db.new_interval(fresh, duration=[(100 + index * 10,
                                                      105 + index * 10)])
                    db.relate("next", Oid.interval(edges[0][0]),
                              Oid.interval(fresh))
                for src, dst in edges:
                    fact = db.relate("next", Oid.interval(src),
                                     Oid.interval(dst))
                    applied.append((fact, (src, dst)))
                if removes:
                    db.remove_fact(applied[0][0])
                if not commits:
                    raise Abort()
        except Abort:
            aborted_edges.update(edge for _, edge in applied)
            continue
        committed_edges.update(edge for _, edge in applied)
    return aborted_edges - committed_edges


class TestObserverFedViewEqualsFromScratch:
    @settings(max_examples=40, deadline=None)
    @given(script)
    def test_view_matches_committed_state(self, steps):
        db = build_db()
        hub = StreamHub(db)
        view = ViewRegistry(hub).register("reach", REACH)

        aborted_only = run_script(db, steps)

        # The fed view equals a fresh least-fixpoint over the final
        # database (whose state is, by rollback, the committed prefix)...
        fresh = evaluate(db, REACH)
        assert view.relation("reach") == fresh.relation("reach")
        assert view.relation("next") == fresh.relation("next")
        # ...edges only ever inserted by aborted segments left no trace...
        surviving = {tuple(str(v) for v in row)
                     for row in view.relation("next")}
        assert not (aborted_only & surviving)
        hub.check_epoch()  # ...and the mirror stayed in lockstep.

    @settings(max_examples=30, deadline=None)
    @given(script)
    def test_constructive_view_matches_committed_state(self, steps):
        db = build_db()
        hub = StreamHub(db)
        view = ViewRegistry(hub).register("merged", CONSTRUCTIVE)

        run_script(db, steps, grow=True)

        fresh = evaluate(db, CONSTRUCTIVE)
        for name in ("merged", "linked", "interval", "anyobject"):
            assert view.relation(name) == fresh.relation(name)
        assert set(view.context.objects) == set(fresh.context.objects)
        hub.check_epoch()

    @pytest.mark.parametrize("goal", ["?- reach(X, Y).", "?- reach(g0, Y).",
                                      "?- reach(X, g3)."],
                             ids=["free", "bound-source", "bound-target"])
    @settings(max_examples=40, deadline=None)
    @given(steps=script)
    def test_subscriber_hears_each_answer_exactly_once(self, goal, steps):
        db = build_db()
        hub = StreamHub(db)
        manager = SubscriptionManager(hub)
        engine = QueryEngine(db, rules=REACH)
        sub = manager.subscribe(goal, engine)

        run_script(db, steps)

        heard = []
        for batch in sub.poll():
            heard.extend(tuple(row) for row in batch["rows"])
        # No duplicates across all notification batches...
        assert len(heard) == len(set(heard))
        # ...and together they cover exactly the final answers (nothing
        # was ever removed from them that had been notified — removed
        # tuples stay "heard", so heard ⊇ final always holds; with no
        # removals it is exactly equal).
        oracle = engine.execute(goal, kernel="reference", mode="naive")
        final = {tuple(str(v) for v in row) for row in oracle.answers.rows()}
        assert final <= set(heard) or not final
        if not any(removes for _, commits, removes in steps if commits):
            assert set(heard) == final
