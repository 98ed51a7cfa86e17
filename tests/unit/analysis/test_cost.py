"""Unit tests for the cost/cardinality estimator (VDB042)."""

from vidb.analysis.cost import (
    CostReport,
    Stats,
    estimate_program,
)
from vidb.query.parser import parse_document, parse_program, parse_query
from vidb.storage.database import VideoDatabase


def stats(**relations):
    entities = relations.pop("entities", 100)
    intervals = relations.pop("intervals", 100)
    return Stats(relations=relations, entities=entities, intervals=intervals)


def codes(report: CostReport):
    return [d.code for d in report.diagnostics()]


class TestStats:
    def test_from_database(self):
        db = VideoDatabase("cost-test")
        db.declare_relation("appears")
        entity = db.new_entity("o1")
        db.new_interval("gi1", entities=[entity.oid], duration=[(0, 10)])
        db.relate("appears", "o1", "gi1")
        snapshot = Stats.from_database(db)
        assert snapshot.entities == 1
        assert snapshot.intervals == 1
        assert snapshot.relations["appears"] == 1

    def test_size_of_class_predicates(self):
        snapshot = stats(appears=7, entities=3, intervals=5)
        assert snapshot.size_of("object") == 3.0
        assert snapshot.size_of("interval") == 5.0
        assert snapshot.size_of("appears") == 7.0
        assert snapshot.size_of("nonexistent") is None


class TestVDB042CartesianBlowup:
    def test_cartesian_pair_blows_up(self):
        program = parse_program(
            "pair(X, Y) :- appears(X, G), appears(Y, H).")
        report = estimate_program(program, stats(appears=200))
        diags = report.diagnostics()
        assert [d.code for d in diags if d.code == "VDB042"]
        blowup = [d for d in diags if d.code == "VDB042"][0]
        assert blowup.severity == "warning"
        assert blowup.span is not None
        assert blowup.rule_index == 0

    def test_joined_body_does_not_blow_up(self):
        program = parse_program(
            "joined(X, G) :- appears(X, G), starts(G, T).")
        report = estimate_program(program, stats(appears=200, starts=200))
        assert "VDB042" not in codes(report)

    def test_small_inputs_stay_quiet(self):
        # 10 x 10 = 100 < BLOWUP_ROWS: too small to be worth a warning.
        program = parse_program(
            "pair(X, Y) :- appears(X, G), appears(Y, H).")
        report = estimate_program(program, stats(appears=10))
        assert "VDB042" not in codes(report)

    def test_query_body_is_estimated_too(self):
        query = parse_query("?- appears(X, G), appears(Y, H).")
        report = estimate_program(parse_program(""), stats(appears=200),
                                  queries=(query,))
        found = [d for d in report.diagnostics() if d.code == "VDB042"]
        assert found and found[0].rule_index is None

    def test_pure_cartesian_has_no_reorder_fix(self):
        # No order fixes a genuine cartesian product.
        program = parse_program(
            "pair(X, Y) :- appears(X, G), appears(Y, H).")
        report = estimate_program(program, stats(appears=200))
        assert "VDB042" in codes(report)


class TestPlannerOrder:
    """The estimate walks the join order the planner runs, not the
    body as written."""

    def test_small_join_literal_first_is_no_blowup(self):
        # As written a(X), b(Y) is a 1e6-row cross product; the planner
        # starts at c and probes a and b with bound variables.
        program = parse_program("p(X, Y) :- a(X), b(Y), c(X, Y).")
        report = estimate_program(program, stats(a=1000, b=1000, c=10))
        assert "VDB042" not in codes(report)
        assert report.costs[0].peak == 10

    def test_membership_generator_binds_its_variable(self):
        # object(O) is generated from G.entities, not crossed with G.
        query = parse_query(
            "?- interval(G), object(O), O in G.entities.")
        report = estimate_program(
            parse_program(""), stats(entities=1000, intervals=1000),
            queries=(query,))
        assert "VDB042" not in codes(report)
        assert report.costs[0].peak == 1000


class TestDerivedSizing:
    def test_derived_predicate_sizes_propagate(self):
        program = parse_program("""
            seen(X) :- appears(X, G).
            popular(X) :- seen(X), starred(X).
        """)
        report = estimate_program(program, stats(appears=500, starred=10))
        assert report.sizes["seen"] > 0
        assert "popular" in report.sizes

    def test_relevant_filter_skips_unreachable_rules(self):
        program = parse_program("""
            pair(X, Y) :- appears(X, G), appears(Y, H).
            seen(X) :- appears(X, G).
        """)
        report = estimate_program(program, stats(appears=200),
                                  relevant=frozenset({"seen"}))
        labels = [cost.label for cost in report.costs]
        assert not any("pair" in label for label in labels)
        # sizes still cover the whole program
        assert "pair" in report.sizes


class TestProfileRows:
    def test_rows_carry_label_estimate_peak_blowup(self):
        # Planned, tiny(X) runs first and big(X, Y) is a probe.
        program = parse_program("slow(X, Y) :- big(X, Y), tiny(X).")
        report = estimate_program(program, stats(big=100000, tiny=2))
        assert report.rows() == [("rule #0 (slow)", "2", "2", "0.0x")]


class TestEngineIntegration:
    def build_engine(self):
        from vidb.query.engine import QueryEngine

        db = VideoDatabase("cost-engine")
        db.declare_relation("appears")
        for i in range(40):
            entity = db.new_entity(f"o{i}")
            db.new_interval(f"gi{i}", entities=[entity.oid],
                            duration=[(i, i + 1)])
            db.relate("appears", f"o{i}", f"gi{i}")
        return QueryEngine(db, rules="pair(X, Y) :- appears(X, G), "
                                     "appears(Y, H).")

    def test_report_carries_cost_and_advisories(self):
        engine = self.build_engine()
        report = engine.execute("?- pair(X, Y).")
        assert report.cost is not None
        assert report.cost.costs
        assert any(d.code == "VDB042" for d in report.diagnostics)

    def test_cost_cache_hits_on_warm_path(self):
        # The epoch's cost reports are kept per query shape: a repeat,
        # or a text that differs only in a constant, re-estimates nothing.
        engine = self.build_engine()
        first = engine.execute("?- pair(X, Y).")
        costs = engine._epoch_state().costs
        assert (len(costs), costs.misses) == (1, 1)
        engine.execute("?- pair(X, Y).")
        engine.execute("?- pair(o1, Y).")
        engine.execute("?- pair(o2, Y).")
        assert (len(costs), costs.misses, costs.hits) == (2, 2, 2)
        assert engine.execute("?- pair(X, Y).").cost == first.cost

    def test_cost_cache_invalidated_by_epoch(self):
        engine = self.build_engine()
        engine.execute("?- pair(X, Y).")
        before = engine._epoch_state()
        engine.db.new_entity("fresh")
        engine.execute("?- pair(X, Y).")
        after = engine._epoch_state()
        assert after is not before
        assert (len(after.costs), after.costs.misses) == (1, 1)

    def test_profile_renders_cost_section(self):
        engine = self.build_engine()
        report = engine.execute("?- pair(X, Y).", trace=True)
        profile = report.profile()
        assert "-- cost (estimated) --" in profile
        assert "-- advisories --" in profile
        assert "VDB042" in profile

    def test_as_dict_exposes_cost(self):
        engine = self.build_engine()
        payload = engine.execute("?- pair(X, Y).").as_dict()
        assert "cost" in payload
        assert payload["cost"][0]["peak"] > 0
