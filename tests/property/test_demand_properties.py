"""Differential suite for demand-driven evaluation.

The default engine (magic-set demand between rules, selection-first
joins inside them, semi-naive rounds, interned kernel) must answer every
query exactly as the same engine with all of it switched off:
``prune_rules=False, reorder_joins=False, mode="naive",
kernel="reference"`` — the whole program saturated, every body run as
written, textbook ``T_P`` rounds, reference solver.

Programs are assembled from rule blocks (left- and right-linear
recursion, factorable or not: a persistent variable read by a filter,
non-linear and mutual recursion; negation over a recursive predicate,
two ``++`` heads over derived predicates, and entailment / membership /
subset / comparison atoms), queries put a constant in every goal
argument position, and the data comes from the strategies the other
property suites already use: the interval graph of
``test_semantics_theorems`` and the interval objects of
``test_concat_properties``.  One engine is also reused
across a schedule of writes, removals and rolled-back transactions, so
its per-epoch ⊕ overlay is held to the oracle after every step.  And
each drawn goal is asked twice on one engine, with other constants the
second time, so the second ask binds its constants into the query shape
the first compiled.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from vidb.model.oid import Oid
from vidb.query.engine import QueryEngine
from vidb.query.execution import ExecutionOptions
from vidb.storage.database import VideoDatabase

from tests.property.test_concat_properties import interval_objects
from tests.property.test_semantics_theorems import NODES, edges

ENTITIES = ["o1", "o2", "o3", "o4"]  # test_concat_properties.entity_names

#: Rule blocks: name -> (rule text, blocks it needs).
BLOCKS = {
    "left": ("reach(X, Y) :- edge(X, Y).\n"
             "reach(X, Z) :- reach(X, Y), edge(Y, Z).", ()),
    "right": ("path(X, Y) :- edge(X, Y).\n"
              "path(X, Z) :- edge(X, Y), path(Y, Z).", ()),
    "negation": ("blocked(X, Y) :- interval(X), interval(Y), "
                 "not reach(X, Y).", ("left",)),
    "isolated": ("touched(X) :- path(X, Y).\n"
                 "isolated(X) :- interval(X), not touched(X).", ("right",)),
    "contains": ("contains(G1, G2) :- interval(G1), interval(G2), "
                 "G2.duration => G1.duration.", ()),
    "shares": ("shares(G1, G2, O) :- interval(G1), interval(G2), "
               "object(O), O in G1.entities, O in G2.entities.", ()),
    "pair": ("pair(G, O) :- interval(G), object(O), "
             "{o1, O} subset G.entities, O != o1.", ()),
    "rated": ("rated(G, O) :- object(O), interval(G), O in G.entities, "
              "G.rating >= 3, O.role = \"host\".", ()),
    "via": ("via(X, Z) :- reach(X, Y), contains(Y, Z).",
            ("left", "contains")),
    # reach(X, Y) demanded for every edge source Y, each answer keeping
    # the seed it came from
    "seeds": ("source_of(X, Y) :- edge(Y, W), reach(X, Y).", ("left",)),
    "concat": ("merged(G1 ++ G2) :- edge(G1, G2), contains(G1, G2).",
               ("contains",)),
    "splice": ("spliced(G1 ++ G2) :- reach(G1, G2), shares(G1, G2, O).",
               ("left", "shares")),
    "window": ("early(G) :- interval(G), "
               "G.duration => (t >= 0 and t <= 12).", ()),
    # factorable as hop(X, c): an IDB literal and a constraint atom ride
    # in the recursive body
    "hop": ("hop(X, Y) :- edge(X, Y).\n"
            "hop(X, Z) :- hop(X, Y), contains(Y, Z), o2 in Y.entities.",
            ("contains",)),
    # not factorable: the persistent X is read by a filter
    "near": ("near(X, Y) :- edge(X, Y).\n"
             "near(X, Z) :- near(X, Y), edge(Y, Z), X != Z.", ()),
    "tc": ("tc(X, Y) :- edge(X, Y).\n"
           "tc(X, Z) :- tc(X, Y), tc(Y, Z).", ()),
    "mutual": ("odd(X, Y) :- edge(X, Y).\n"
               "odd(X, Z) :- even(X, Y), edge(Y, Z).\n"
               "even(X, Z) :- odd(X, Y), edge(Y, Z).", ()),
}

#: Goal templates per block: predicate and argument sorts.
GOALS = {
    "left": ("reach", "ii"), "right": ("path", "ii"),
    "negation": ("blocked", "ii"), "isolated": ("isolated", "i"),
    "contains": ("contains", "ii"), "shares": ("shares", "iio"),
    "pair": ("pair", "io"), "rated": ("rated", "io"), "via": ("via", "ii"),
    "concat": ("merged", "i"), "splice": ("spliced", "i"),
    "window": ("early", "i"), "hop": ("hop", "ii"), "near": ("near", "ii"),
    "tc": ("tc", "ii"), "mutual": ("odd", "ii"), "seeds": ("source_of", "ii"),
}

#: Extra conjuncts a query may add over its first goal's variables.
FILTERS = {
    "i": ["{V}.duration => (t >= 0 and t <= 25)", "o2 in {V}.entities",
          "{{o1, o2}} subset {V}.entities", "{V} != g0",
          "not isolated({V})"],
    "o": ['{V}.role = "host"', "{V} != o1"],
}


@st.composite
def databases(draw):
    db = VideoDatabase("demand-prop")
    db.declare_relation("edge")
    for name in ENTITIES:
        db.new_entity(name, role=draw(st.sampled_from(["host", "guest"])))
    for node in NODES:
        db.add(draw(interval_objects(name=node)))
    for src, dst in draw(edges):
        db.relate("edge", Oid.interval(src), Oid.interval(dst))
    return db


@st.composite
def programs_and_queries(draw, required=()):
    chosen = draw(st.sets(st.sampled_from(sorted(BLOCKS)), min_size=1,
                          max_size=5)) | set(required)
    blocks = set()
    frontier = list(chosen)
    while frontier:
        name = frontier.pop()
        if name not in blocks:
            blocks.add(name)
            frontier.extend(BLOCKS[name][1])
    rules = "\n".join(BLOCKS[name][0] for name in sorted(blocks))

    fresh = iter("ABCDEF")
    variables = {"i": [], "o": []}

    def goal(block):
        predicate, sorts = GOALS[block]
        args = []
        for sort in sorts:
            pool = NODES if sort == "i" else ENTITIES
            kind = draw(st.sampled_from(["constant", "fresh", "shared"]))
            if kind == "shared" and variables[sort]:
                args.append(draw(st.sampled_from(variables[sort])))
            elif kind == "constant":
                args.append(draw(st.sampled_from(pool)))
            else:
                variable = next(fresh)
                variables[sort].append(variable)
                args.append(variable)
        return f"{predicate}({', '.join(args)})"

    goals = [goal(draw(st.sampled_from(sorted(blocks))))
             for _ in range(draw(st.integers(1, 2)))]
    for sort, pool in variables.items():
        for variable in pool:
            if draw(st.booleans()):
                text = draw(st.sampled_from(FILTERS[sort]))
                if "isolated" in text and "isolated" not in blocks:
                    continue
                goals.append(text.format(V=variable))
    return rules, "?- " + ", ".join(goals) + "."


#: Mutations a schedule draws from (``rollback`` wraps a few of the
#: others in a transaction that is rolled back, then commits as many
#: new intervals, so the database is back at an epoch the transaction
#: used, in a different state).
MUTATIONS = ["edge", "unedge", "interval", "remove"]


@st.composite
def mutations(draw, name):
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "edge":
        return kind, draw(st.sampled_from(NODES)), draw(st.sampled_from(NODES))
    if kind == "interval":
        return kind, draw(interval_objects(name=name))
    return kind, draw(st.integers(0, 7))


@st.composite
def schedules(draw):
    steps = []
    for index in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            inner = range(draw(st.integers(1, 3)))
            steps.append((
                "rollback",
                [draw(mutations(f"t{index}_{i}")) for i in inner],
                [draw(interval_objects(name=f"r{index}_{i}")) for i in inner]))
        else:
            steps.append(draw(mutations(f"h{index}")))
    return steps


def mutate(db, step):
    """Apply one drawn mutation; a removal picks among what exists."""
    kind, *args = step
    if kind == "edge":
        db.relate("edge", Oid.interval(args[0]), Oid.interval(args[1]))
    elif kind == "interval":
        db.add(args[0])
    elif kind == "unedge":
        facts = sorted(db.facts("edge"), key=str)
        if facts:
            db.remove_fact(facts[args[0] % len(facts)])
    else:
        oids = sorted(obj.oid for obj in db.intervals())
        if oids:
            db.remove_object(oids[args[0] % len(oids)])


class TestOneEngineAcrossWrites:
    """One engine — and so one ⊕ overlay per epoch — reused while the
    database changes, rolled-back transactions included, answers as a
    fresh unoptimised engine would after every step."""

    @settings(max_examples=40, deadline=None)
    @given(databases(), programs_and_queries(required=("concat", "splice")),
           schedules())
    def test_reused_engine_equals_the_oracle_after_every_step(
            self, db, pq, schedule):
        rules, query = pq
        fast = QueryEngine(db, rules=rules)
        oracle = QueryEngine(db, rules=rules, prune_rules=False,
                             reorder_joins=False, mode="naive",
                             kernel="reference")

        def check():
            for text in (query, "?- interval(G).", "?- spliced(G)."):
                assert fast.query(text).rows() == oracle.query(text).rows()

        check()
        for step in schedule:
            if step[0] == "rollback":
                before = db.epoch
                with db.transaction() as txn:
                    for inner in step[1]:
                        mutate(db, inner)
                    check()
                    inside = db.epoch
                    txn.rollback()
                for replacement in step[2][:inside - before]:
                    db.add(replacement)
                assert db.epoch == inside
            else:
                mutate(db, step)
            check()


class TestDemandIsAnswerPreserving:
    @settings(max_examples=150, deadline=None)
    @given(databases(), programs_and_queries())
    def test_default_engine_equals_the_unoptimised_oracle(self, db, pq):
        rules, query = pq
        fast = QueryEngine(db, rules=rules)
        oracle = QueryEngine(db, rules=rules, prune_rules=False,
                             reorder_joins=False, mode="naive",
                             kernel="reference")
        assert fast.query(query).rows() == oracle.query(query).rows()

    @settings(max_examples=40, deadline=None)
    @given(databases())
    def test_a_factored_closure_keeps_each_answer_with_its_seed(self, db):
        # both queries demand reach(X, c) for several constants c at once
        rules = BLOCKS["left"][0] + "\n" + BLOCKS["seeds"][0]
        fast = QueryEngine(db, rules=rules)
        oracle = QueryEngine(db, rules=rules, prune_rules=False,
                             reorder_joins=False, mode="naive",
                             kernel="reference")
        for text in ("?- source_of(X, Y).", "?- reach(X, g1), reach(Y, g2)."):
            assert fast.query(text).rows() == oracle.query(text).rows()

    @settings(max_examples=60, deadline=None)
    @given(databases(), programs_and_queries())
    def test_each_switch_alone_preserves_answers(self, db, pq):
        rules, query = pq
        expected = QueryEngine(db, rules=rules, prune_rules=False,
                               reorder_joins=False).query(query).rows()
        for switches in ({"prune_rules": False}, {"reorder_joins": False}):
            engine = QueryEngine(db, rules=rules, **switches)
            assert engine.query(query).rows() == expected
            assert engine.query(query).rows() == engine.execute(
                query, mode="naive").answers.rows()


class TestShapesBindConstants:
    """The second ask of a shape runs the first ask's compiled rewrite
    with its own constants bound in; both answer as the whole program
    with the query appended, which never goes through the rewrite."""

    @settings(max_examples=80, deadline=None)
    @given(databases(), programs_and_queries(), st.permutations(NODES),
           st.permutations(ENTITIES))
    def test_a_shape_hit_answers_like_the_unrewritten_program(
            self, db, pq, nodes, entities):
        rules, query = pq
        swap = dict(zip(NODES + ENTITIES, nodes + entities))
        other = re.sub(r"\b[go]\d\b", lambda m: swap[m.group()], query)
        engine = QueryEngine(db, rules=rules)
        unrewritten = ExecutionOptions(prune_rules=False)
        for text in (query, other):
            assert (engine.query(text).rows()
                    == engine.execute(text, unrewritten).answers.rows())
        # one shape per switch setting, each served again for `other`
        assert (engine.shapes.misses, engine.shapes.hits) == (2, 2)
