"""Unit tests for observer-fed materialized views (ViewRegistry)."""

import pytest

from vidb.errors import EvaluationError, ObjectBudgetError
from vidb.query.fixpoint import evaluate
from vidb.query.parser import parse_program
from vidb.stream.hub import StreamHub
from vidb.stream.views import ViewRegistry, apply_delta
from vidb.storage.database import VideoDatabase

REACH = parse_program("""
    reach(X, Y) :- next(X, Y).
    reach(X, Z) :- reach(X, Y), next(Y, Z).
""")


@pytest.fixture
def db():
    database = VideoDatabase("views-test")
    database.declare_relation("next")
    for i, name in enumerate(["g0", "g1", "g2", "g3"]):
        database.new_interval(name, duration=[(i * 10, i * 10 + 5)])
    return database


@pytest.fixture
def hub(db):
    return StreamHub(db)


@pytest.fixture
def registry(hub):
    return ViewRegistry(hub)


def fresh_reach(db):
    return evaluate(db, REACH).relation("reach")


class TestFeeding:
    def test_committed_txn_feeds_view(self, db, hub, registry):
        view = registry.register("reach", REACH)
        with db.transaction():
            db.relate("next", "g0", "g1")
            db.relate("next", "g1", "g2")
        assert view.relation("reach") == fresh_reach(db)
        assert len(view.relation("reach")) == 3  # 01, 12, 02
        assert view.source_epoch == db.epoch

    def test_aborted_txn_leaks_nothing(self, db, hub, registry):
        view = registry.register("reach", REACH)
        with pytest.raises(Exception):
            with db.transaction():
                db.relate("next", "g0", "g1")
                raise RuntimeError("abort")
        assert view.relation("reach") == set()
        assert view.relation("reach") == fresh_reach(db)

    def test_autocommit_feeds_view(self, db, hub, registry):
        view = registry.register("reach", REACH)
        db.relate("next", "g2", "g3")
        assert view.relation("reach") == fresh_reach(db)

    def test_non_monotone_delta_rebuilds(self, db, hub, registry):
        fact = db.relate("next", "g0", "g1")
        db.relate("next", "g1", "g2")
        view = registry.register("reach", REACH)
        before = registry.rebuilds
        db.remove_fact(fact)
        assert registry.rebuilds == before + 1
        assert view.relation("reach") == fresh_reach(db)
        assert len(view.relation("reach")) == 1  # only g1->g2 left

    def test_multiple_views_all_fed(self, db, hub, registry):
        first = registry.register("a", REACH)
        second = registry.register("b", REACH)
        db.relate("next", "g0", "g1")
        assert first.relation("reach") == second.relation("reach") != set()


class TestSealing:
    def test_registered_view_rejects_direct_writes(self, db, registry):
        view = registry.register("reach", REACH)
        with pytest.raises(EvaluationError, match="VDB050"):
            view.insert_fact("next", "g0", "g1")
        entity = VideoDatabase("scratch").new_entity("tmp")
        with pytest.raises(EvaluationError, match="VDB050"):
            view.insert_object(entity)

    def test_unregister_unseals(self, db, registry):
        view = registry.register("reach", REACH)
        assert registry.unregister("reach") is view
        view.insert_fact("next", "g0", "g1")  # no raise once unsealed
        assert registry.get("reach") is None

    def test_duplicate_name_rejected(self, registry):
        registry.register("reach", REACH)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("reach", REACH)


class TestOutOfBandGuard:
    def test_register_after_unseen_write_raises(self, db, hub, registry):
        hub.detach()
        db.relate("next", "g0", "g1")
        with pytest.raises(EvaluationError, match="VDB051"):
            registry.register("reach", REACH)

    def test_feed_after_unseen_write_raises(self, db, hub, registry):
        registry.register("reach", REACH)
        hub.detach()
        db.relate("next", "g0", "g1")
        hub.attach()
        hub.mirror_epoch -= 1  # attach resyncs; simulate a missed write
        with pytest.raises(EvaluationError, match="VDB051"):
            db.relate("next", "g1", "g2")

    def test_refresh_all_recovers(self, db, hub, registry):
        view = registry.register("reach", REACH)
        hub.detach()
        db.relate("next", "g0", "g1")
        hub.attach()
        hub.mirror_epoch -= 1
        registry.refresh_all()
        hub.check_epoch()  # mirror resynced
        assert view.relation("reach") == fresh_reach(db)
        db.relate("next", "g1", "g2")  # feeding works again
        assert view.relation("reach") == fresh_reach(db)


class TestApplyDelta:
    def test_monotone_delta_reports_derived(self, db, hub):
        from vidb.query.incremental import MaterializedView

        view = MaterializedView(db, REACH)
        captured = []
        hub.add_consumer(
            lambda delta: captured.append(apply_delta(view, delta)))
        with db.transaction():
            db.relate("next", "g0", "g1")
            db.relate("next", "g1", "g2")
        (derived,) = captured
        assert {tuple(str(v) for v in row)
                for row in derived["reach"]} == \
            {("g0", "g1"), ("g1", "g2"), ("g0", "g2")}

    def test_non_monotone_delta_returns_none(self, db, hub):
        from vidb.query.incremental import MaterializedView

        fact = db.relate("next", "g0", "g1")
        view = MaterializedView(db, REACH)
        captured = []
        hub.add_consumer(
            lambda delta: captured.append(apply_delta(view, delta)))
        db.remove_fact(fact)
        assert captured == [None]
        assert view.rebuilds == 1


class TestMaintenanceLabels:
    """Deltas are metered, and budget errors named, under the rule's
    label, as in the build."""

    def test_fed_deltas_are_metered_under_rule_labels(self, db, registry):
        view = registry.register("reach", REACH)
        db.relate("next", "g0", "g1")
        db.relate("next", "g1", "g2")
        assert set(view.context.stats.rules) == {"reach", "reach#2"}

    def test_budget_error_names_the_constructive_rule(self, db, registry):
        # Four intervals close under ⊕ into 15 objects, five into 31.
        view = registry.register("both", parse_program(
            "both(G1 ++ G2) :- interval(G1), interval(G2), G1 != G2."),
            max_objects=20)
        with pytest.raises(ObjectBudgetError) as raised:
            db.new_interval("g4", duration=[(40, 45)])
        assert raised.value.rule == "both"
        assert "rule 'both'" in str(raised.value)
        assert "" not in view.context.stats.rules


class TestStatus:
    def test_status_rows(self, db, registry):
        registry.register("reach", REACH)
        db.relate("next", "g0", "g1")
        [(name, source_epoch, rebuilds)] = registry.status()
        assert name == "reach"
        assert source_epoch == db.epoch
        assert rebuilds == 0
