"""Unit tests for standing queries: Subscription and SubscriptionManager."""

import pytest

from vidb.errors import ServiceOverloadedError, SessionError
from vidb.model.oid import Oid
from vidb.query.engine import QueryEngine
from vidb.stream.hub import StreamHub
from vidb.stream.standing import SubscriptionManager
from vidb.storage.database import VideoDatabase

QUERY = "?- appears(O, G)."


@pytest.fixture
def db():
    database = VideoDatabase("standing-test")
    database.declare_relation("appears")
    for i in range(1, 5):
        database.new_entity(f"o{i}")
        database.new_interval(f"gi{i}", entities=[f"o{i}"],
                              duration=[(i * 10, i * 10 + 5)])
    return database


@pytest.fixture
def engine(db):
    return QueryEngine(db)


@pytest.fixture
def hub(db):
    return StreamHub(db)


@pytest.fixture
def manager(hub):
    return SubscriptionManager(hub, max_subscriptions=4)


class TestNotifications:
    def test_commit_notifies_new_answers(self, db, engine, manager):
        sub = manager.subscribe(QUERY, engine)
        with db.transaction():
            db.relate("appears", "o1", "gi1")
            db.relate("appears", "o2", "gi2")
        [batch] = sub.poll()
        assert batch["seq"] == 1
        assert batch["epoch"] == db.epoch
        assert batch["rows"] == [["o1", "gi1"], ["o2", "gi2"]]
        assert batch["count"] == 2
        assert sub.poll() == []

    def test_existing_answers_not_renotified(self, db, engine, manager):
        db.relate("appears", "o1", "gi1")
        sub = manager.subscribe(QUERY, engine)
        db.relate("appears", "o2", "gi2")
        [batch] = sub.poll()
        assert batch["rows"] == [["o2", "gi2"]]

    def test_sequence_numbers_follow_commit_order(self, db, engine, manager):
        sub = manager.subscribe(QUERY, engine)
        for i in range(1, 4):
            db.relate("appears", f"o{i}", f"gi{i}")
        batches = sub.poll()
        assert [b["seq"] for b in batches] == [1, 2, 3]
        epochs = [b["epoch"] for b in batches]
        assert epochs == sorted(epochs)

    def test_aborted_txn_notifies_nothing(self, db, engine, manager):
        sub = manager.subscribe(QUERY, engine)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.relate("appears", "o1", "gi1")
                raise RuntimeError("abort")
        assert sub.poll() == []

    def test_irrelevant_commit_notifies_nothing(self, db, engine, manager):
        sub = manager.subscribe(QUERY, engine)
        db.new_entity("bystander")
        assert sub.poll() == []

    def test_duplicate_fact_not_renotified(self, db, engine, manager):
        sub = manager.subscribe(QUERY, engine)
        db.relate("appears", "o1", "gi1")
        sub.poll()
        db.relate("appears", "o1", "gi1")  # idempotent re-assertion
        assert sub.poll() == []

    def test_boolean_query_notifies_once(self, db, engine, manager):
        from vidb.model.oid import Oid

        sub = manager.subscribe("?- appears(o1, gi1).", engine)
        assert sub.variables == ()
        db.relate("appears", Oid.entity("o1"), Oid.interval("gi1"))
        [batch] = sub.poll()
        assert batch["count"] == 1
        db.relate("appears", Oid.entity("o2"), Oid.interval("gi2"))
        assert sub.poll() == []


class TestFilter:
    def test_filter_restricts_rows(self, db, engine, manager):
        sub = manager.subscribe(QUERY, engine, filter={"O": "o1"})
        with db.transaction():
            db.relate("appears", "o1", "gi1")
            db.relate("appears", "o2", "gi2")
        [batch] = sub.poll()
        assert batch["rows"] == [["o1", "gi1"]]

    def test_fully_filtered_batch_not_queued(self, db, engine, manager):
        sub = manager.subscribe(QUERY, engine, filter={"O": "o1"})
        db.relate("appears", "o2", "gi2")
        assert sub.poll() == []
        assert sub.batches_emitted == 0

    def test_unknown_filter_variable_rejected(self, engine, manager):
        with pytest.raises(SessionError, match="unknown variable"):
            manager.subscribe(QUERY, engine, filter={"Z": "o1"})


class TestBackpressure:
    def test_bounded_queue_drops_oldest_with_lag_marker(self, db, engine,
                                                        manager):
        sub = manager.subscribe(QUERY, engine, max_queue=2)
        for i in range(1, 5):  # 4 notifications into a 2-deep queue
            db.relate("appears", f"o{i}", f"gi{i}")
        batches = sub.poll()
        assert len(batches) == 2
        assert [b["seq"] for b in batches] == [3, 4]  # oldest dropped
        assert batches[0]["lagged"] is True
        assert batches[0]["dropped_batches"] == 2
        assert batches[0]["dropped_rows"] == 2
        assert sub.lag_events == 2

    def test_lag_survives_unsubscribe_in_totals(self, db, engine, manager):
        sub = manager.subscribe(QUERY, engine, max_queue=1)
        db.relate("appears", "o1", "gi1")
        db.relate("appears", "o2", "gi2")
        assert manager.total_lag_events() == 1
        manager.unsubscribe(sub.id)
        assert manager.total_lag_events() == 1

    def test_poll_wait_returns_on_timeout(self, engine, manager):
        sub = manager.subscribe(QUERY, engine)
        assert sub.poll(wait_s=0.05) == []


class TestLifecycle:
    def test_admission_limit(self, engine, manager):
        for _ in range(4):
            manager.subscribe(QUERY, engine)
        with pytest.raises(ServiceOverloadedError):
            manager.subscribe(QUERY, engine)

    def test_unsubscribe_stops_feed(self, db, engine, manager):
        sub = manager.subscribe(QUERY, engine)
        assert manager.unsubscribe(sub.id) is True
        assert manager.unsubscribe(sub.id) is False
        db.relate("appears", "o1", "gi1")
        assert sub.poll() == []
        assert sub.closed

    def test_close_session_closes_only_its_subs(self, db, engine, manager):
        mine = manager.subscribe(QUERY, engine, session_id="s1")
        detached = manager.subscribe(QUERY, engine, session_id="s1",
                                     detached=True)
        other = manager.subscribe(QUERY, engine, session_id="s2")
        assert manager.close_session("s1") == 1
        assert mine.closed
        assert not detached.closed
        assert not other.closed

    def test_get_unknown_raises(self, manager):
        with pytest.raises(SessionError, match="no subscription"):
            manager.get("sub999")

    def test_describe_is_json_ready(self, db, engine, manager):
        import json

        sub = manager.subscribe(QUERY, engine, session_id="s1")
        db.relate("appears", "o1", "gi1")
        [entry] = manager.describe()
        json.dumps(entry)  # must serialize
        assert entry["id"] == sub.id
        assert entry["query"] == QUERY
        assert entry["seq"] == 1
        assert entry["rows"] == 1
        assert entry["queue_depth"] == 1

    def test_manager_close_detaches_from_hub(self, db, engine, hub, manager):
        sub = manager.subscribe(QUERY, engine)
        manager.close()
        db.relate("appears", "o1", "gi1")
        assert sub.closed
        assert manager.count() == 0


class TestRebuildDedup:
    def test_rebuild_does_not_renotify_known_answers(self, db, engine,
                                                     manager):
        doomed = db.relate("appears", "o3", "gi3")
        sub = manager.subscribe(QUERY, engine)
        db.relate("appears", "o1", "gi1")
        sub.poll()
        db.remove_fact(doomed)  # non-monotone: rebuild, nothing new
        assert sub.poll() == []
        db.relate("appears", "o2", "gi2")
        [batch] = sub.poll()
        assert batch["rows"] == [["o2", "gi2"]]
        assert sub.view.rebuilds == 1


class TestOnNotify:
    def test_callback_fires_per_batch(self, db, engine, hub):
        fired = []
        manager = SubscriptionManager(
            hub, on_notify=lambda sub, batch: fired.append(
                (sub.id, batch["count"])))
        sub = manager.subscribe(QUERY, engine)
        db.relate("appears", "o1", "gi1")
        assert fired == [(sub.id, 1)]


class _RecordingLog:
    def __init__(self):
        self.events = []

    def emit(self, name, **fields):
        self.events.append((name, fields))


class TestLatencyAndTracing:
    def test_batch_carries_commit_to_notify_latency(self, db, engine,
                                                    manager):
        sub = manager.subscribe(QUERY, engine)
        db.relate("appears", "o1", "gi1")
        [batch] = sub.poll()
        assert batch["latency_ms"] >= 0.0
        assert sub.last_latency_ms == batch["latency_ms"]
        assert sub.describe()["last_latency_ms"] == batch["latency_ms"]

    def test_batch_carries_ambient_trace_header(self, db, engine, manager):
        from vidb.obs.trace import TraceContext, Tracer

        sub = manager.subscribe(QUERY, engine)
        context = TraceContext.new(sampled=True)
        with Tracer(context).activate():
            db.relate("appears", "o1", "gi1")
        db.relate("appears", "o2", "gi2")  # untraced commit
        traced, untraced = sub.poll()
        assert traced["trace"] == context.to_header()
        assert "trace" not in untraced

    def test_drop_oldest_emits_lagged_event(self, db, engine, hub):
        log = _RecordingLog()
        manager = SubscriptionManager(hub, event_log=log)
        sub = manager.subscribe(QUERY, engine, max_queue=1)
        db.relate("appears", "o1", "gi1")
        db.relate("appears", "o2", "gi2")
        [(name, fields)] = log.events
        assert name == "subscription.lagged"
        assert fields["subscription"] == sub.id
        assert fields["dropped_seq"] == 1
        assert fields["seq_gap"] == 1
        assert fields["dropped_batches"] == 1
        assert fields["dropped_rows"] == 1
        assert fields["max_queue"] == 1

    def test_no_drop_no_event(self, db, engine, hub):
        log = _RecordingLog()
        manager = SubscriptionManager(hub, event_log=log)
        manager.subscribe(QUERY, engine)
        db.relate("appears", "o1", "gi1")
        assert log.events == []


class TestDemandCompiledView:
    """A standing query compiles through the demand rewrite, like an
    ad-hoc one."""

    REACH = """
        reach(X, Y) :- next(X, Y).
        reach(X, Z) :- reach(X, Y), next(Y, Z).
    """

    @pytest.fixture
    def chain(self):
        database = VideoDatabase("chain")
        database.declare_relation("next")
        for i in range(60):
            database.new_interval(f"n{i}", duration=[(i * 10, i * 10 + 5)])
        return database

    def subscribe(self, chain, text):
        engine = QueryEngine(chain, rules=self.REACH)
        manager = SubscriptionManager(StreamHub(chain))
        sub = manager.subscribe(text, engine)
        with chain.transaction():
            for i in range(59):
                chain.relate("next", Oid.interval(f"n{i}"),
                             Oid.interval(f"n{i + 1}"))
        expected = engine.execute(text, kernel="reference",
                                  mode="naive").answers
        return sub, {tuple(map(str, row)) for row in expected.rows()}

    def test_bound_goal_maintains_only_demanded_facts(self, chain):
        sub, expected = self.subscribe(chain, "?- reach(n30, Y).")
        held = sum(map(len, sub.view.context.relations.values()))
        assert held < 100  # the whole reach closure is 1 770 tuples
        [batch] = sub.poll()
        assert {tuple(row) for row in batch["rows"]} == expected
        assert len(expected) == 29

    def test_rewritten_rules_keep_their_source_labels(self, chain):
        sub, _ = self.subscribe(chain, "?- reach(n30, Y).")
        assert set(sub.view.context.stats.rules) <= {
            "reach", "reach#2", sub.view.program.rules[-1].name}

    def test_seed_named_before_its_object_exists(self, db, manager):
        # The demand seed o9 is a bare name until entity o9 arrives; the
        # commit that adds it rebuilds the view with the oid.
        engine = QueryEngine(db, rules="seen(O, G) :- appears(O, G).")
        sub = manager.subscribe("?- seen(o9, G).", engine)
        with db.transaction():
            db.new_entity("o9")
            db.relate("appears", Oid.entity("o9"), Oid.interval("gi1"))
        [batch] = sub.poll()
        assert batch["rows"] == [["gi1"]]
        assert sub.view.rebuilds == 1
