"""Unit tests for the concurrent executor: locking, caching, admission,
deadlines."""

import sys
import threading
import time
from collections import Counter

import pytest

from vidb.errors import (
    QueryTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
    VidbError,
)
from vidb.model.oid import Oid
from vidb.obs.events import EventLog
from vidb.query import engine as engine_module
from vidb.query import shape as shape_module
from vidb.query.engine import QueryEngine
from vidb.service import executor as executor_module
from vidb.service.executor import RWLock, ServiceExecutor
from vidb.stream import standing as standing_module
from vidb.workloads.paper import rope_database

Q_APPEARS = "?- interval(G), object(o1), o1 in G.entities."


@pytest.fixture
def service():
    with ServiceExecutor(rope_database(), max_workers=2) as executor:
        yield executor


class Caller(threading.Thread):
    """One client thread asking ``executor.execute(text, ...)``; its
    answers, or the error it raised, land in :attr:`outcome`."""

    def __init__(self, executor, text, **kwargs):
        super().__init__(daemon=True)
        self.ask = lambda: executor.execute(text, **kwargs)
        self.outcome = None

    def run(self):
        try:
            self.outcome = self.ask()
        except Exception as error:  # noqa: BLE001 - checked by the test
            self.outcome = error

    def finish(self, timeout=10):
        self.join(timeout)
        assert not self.is_alive()
        return self.outcome


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        entered = []

        def reader():
            with lock.read_locked():
                entered.append(1)
                time.sleep(0.05)

        threads = [threading.Thread(target=reader) for __ in range(4)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # four 50ms readers in parallel finish way under 4 * 50ms
        assert time.perf_counter() - start < 0.15
        assert len(entered) == 4

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                order.append("read")

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        order.append("write-done")
        lock.release_write()
        thread.join()
        assert order == ["write-done", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        got_write = threading.Event()

        def writer():
            with lock.write_locked():
                got_write.set()

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.02)
        # a late reader must queue behind the waiting writer
        late = threading.Thread(target=lambda: lock.read_locked().__enter__())
        assert not got_write.is_set()
        lock.release_read()
        thread.join()
        assert got_write.is_set()


class TestCaching:
    def test_repeat_query_hits_cache(self, service):
        first = service.execute(Q_APPEARS)
        second = service.execute(Q_APPEARS)
        snap = service.snapshot()
        assert snap["cache.hits"] == 1
        assert snap["cache.misses"] == 1
        assert first.rows() == second.rows()

    def test_alpha_variant_hits_same_entry(self, service):
        service.execute("?- object(O).")
        service.execute("?- object(X).")
        assert service.snapshot()["cache.hits"] == 1

    def test_mutation_bumps_epoch_and_invalidates(self, service):
        before = service.execute("?- object(O).")
        epoch_before = service.db.epoch
        service.mutate(lambda db: db.new_entity("o42", name="Visitor"))
        assert service.db.epoch > epoch_before
        after = service.execute("?- object(O).")
        assert len(after) == len(before) + 1
        snap = service.snapshot()
        assert snap["cache.hits"] == 0
        assert snap["cache.misses"] == 2

    def test_failed_mutation_rolls_back_and_keeps_epoch(self, service):
        baseline = service.execute("?- object(O).")
        epoch = service.db.epoch

        def bad_write(db):
            db.new_entity("o43", name="Ghost")
            raise RuntimeError("abort")

        with pytest.raises(RuntimeError):
            service.mutate(bad_write)
        assert service.db.epoch == epoch
        again = service.execute("?- object(O).")
        assert again.rows() == baseline.rows()
        # the rolled-back write left the cache entry valid: second read hits
        assert service.snapshot()["cache.hits"] == 1

    def test_add_rules_changes_fingerprint(self, service):
        service.execute("?- object(O).")
        service.add_rules("famous(O) :- object(O), O.role = \"Victim\".")
        service.execute("?- object(O).")
        # same query, new program -> second evaluation cannot reuse entry
        assert service.snapshot()["cache.misses"] == 2

    def test_different_constants_are_different_entries(self, service):
        victim = service.execute('?- object(O), O.role = "Victim".')
        murderers = service.execute('?- object(O), O.role = "Murderer".')
        assert service.snapshot()["cache.misses"] == 2
        assert (len(victim), len(murderers)) == (1, 2)

    def test_a_symbol_constant_is_not_a_string_constant(self, service):
        service.mutate(lambda db: db.new_entity("o50", name="o1"))
        assert len(service.execute('?- object(O), O.name = "o1".')) == 1
        # o1 names the entity o1, whose name is "David".
        assert len(service.execute("?- object(O), O.name = o1.")) == 0
        assert service.snapshot()["cache.misses"] == 2

    def test_a_renamed_variant_reads_its_own_columns(self, service):
        service.execute("?- in(X, Y, G).")
        renamed = service.execute("?- in(Y, X, G).")
        assert service.snapshot()["cache.hits"] == 1
        assert renamed.variables == ("Y", "X", "G")
        expected = QueryEngine(rope_database()).query("?- in(Y, X, G).")
        assert [a.as_dict() for a in renamed] == [
            a.as_dict() for a in expected]

    def test_rules_added_through_the_engine_are_served(self):
        rules = 'famous(O) :- object(O), O.role = "Victim".'
        with ServiceExecutor(rope_database(), rules=rules,
                             max_workers=1) as service:
            assert len(service.execute("?- famous(O).")) == 1
            service.engine.add_rules("famous(O) :- object(O).")
            assert len(service.execute("?- famous(O).")) == 9

    def test_computed_predicates_registered_on_the_engine_are_served(
            self, service):
        service.register_computed("picked", 1, lambda ctx, args: True)
        assert len(service.execute("?- object(O), picked(O).")) == 9
        service.engine.register_computed(
            "picked", 1, lambda ctx, args: args[0] == Oid.entity("o1"))
        assert len(service.execute("?- object(O), picked(O).")) == 1

    def test_a_served_miss_reports_its_parse(self, service, monkeypatch):
        parse = shape_module.parse_query

        def slow_parse(text):
            time.sleep(0.02)
            return parse(text)

        monkeypatch.setattr(shape_module, "parse_query", slow_parse)
        stats = service.execute_report(Q_APPEARS).stats
        assert stats.stages["parse"] >= 0.02
        assert stats.elapsed_s >= sum(stats.stages.values())


@pytest.fixture
def calls(monkeypatch):
    """How often the query path parses, safety-checks and lifts."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (shape_module, engine_module, executor_module,
                   standing_module):
        for name in ("parse_query", "check_query", "lift"):
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, counted(name, fn))
    return counts


class TestOneWalkPerQuery:
    def test_a_miss_parses_checks_and_lifts_once(self, service, calls):
        service.execute(Q_APPEARS)
        assert calls == {"parse_query": 1, "check_query": 1, "lift": 1}

    def test_a_hit_parses_and_lifts_once(self, service, calls):
        service.execute(Q_APPEARS)
        calls.clear()
        service.execute(Q_APPEARS)
        assert calls == {"parse_query": 1, "lift": 1}

    def test_a_subscribe_checks_and_lifts_once(self, service, calls):
        service.subscribe("?- interval(G), object(O), O in G.entities.")
        assert calls == {"parse_query": 1, "check_query": 1, "lift": 1}


class TestSlowQueryEvents:
    def test_the_fingerprint_is_the_shape(self):
        log = EventLog()
        with ServiceExecutor(rope_database(), max_workers=1,
                             slow_query_ms=0, event_log=log) as service:
            texts = ("?- interval(G), o1 in G.entities.",
                     "?- interval(H), o2 in H.entities.",
                     "?- object(O).")
            for text in texts:
                service.execute(text)
            events = service.recent_events(type="slow_query")[::-1]
        assert [event["query"] for event in events] == list(texts)
        fingerprints = [event["fingerprint"] for event in events]
        assert fingerprints[0] == fingerprints[1] != fingerprints[2]
        assert all(len(fp) == 64 for fp in fingerprints)


class TestAdmissionAndDeadlines:
    def _blockable(self, db, max_workers, max_in_flight):
        """An executor whose ``blocked`` predicate holds its query (and
        so its evaluation slot) until ``gate`` opens; ``entered`` is set
        once a query is inside it."""
        executor = ServiceExecutor(db, max_workers=max_workers,
                                   max_in_flight=max_in_flight)
        gate, entered = threading.Event(), threading.Event()

        def blocked(ctx, args):
            entered.set()
            gate.wait(timeout=10)
            return True

        executor.register_computed("blocked", 1, blocked)
        return executor, gate, entered

    def test_overload_fast_fails(self):
        executor, gate, __ = self._blockable(rope_database(),
                                             max_workers=1, max_in_flight=2)
        try:
            callers = [Caller(executor, "?- object(O), blocked(O).")
                       for __ in range(2)]
            for caller in callers:
                caller.start()
            wait_until(lambda: executor.snapshot()["in_flight"] == 2)
            with pytest.raises(ServiceOverloadedError):
                executor.execute("?- object(O).")
            assert executor.snapshot()["queries.rejected"] == 1
            gate.set()
            for caller in callers:
                assert len(caller.finish()) == 9
            # slots free again: admission works now
            assert len(executor.execute("?- object(O).")) == 9
        finally:
            gate.set()
            executor.close()

    def test_deadline_expires_in_queue(self):
        executor, gate, entered = self._blockable(
            rope_database(), max_workers=1, max_in_flight=4)
        try:
            running = Caller(executor, "?- object(O), blocked(O).")
            running.start()
            assert entered.wait(10)
            queued = Caller(executor, "?- interval(G).", timeout=0.05)
            queued.start()
            time.sleep(0.2)
            gate.set()
            assert isinstance(queued.finish(), QueryTimeoutError)
            assert len(running.finish()) == 9
            assert executor.snapshot()["queries.timeout"] == 1
        finally:
            gate.set()
            executor.close()

    def test_slot_wait_times_out_before_the_slot_frees(self):
        """The deadline bounds the wait for an evaluation slot itself:
        the waiting caller gets its timeout while the slot's holder is
        still blocked, not once the holder finishes."""
        executor, gate, entered = self._blockable(
            rope_database(), max_workers=1, max_in_flight=4)
        opener = threading.Timer(5.0, gate.set)
        try:
            running = Caller(executor, "?- object(O), blocked(O).")
            running.start()
            assert entered.wait(10)
            opener.start()
            with pytest.raises(QueryTimeoutError, match="while queued"):
                executor.execute("?- interval(G).", timeout=0.05)
            assert not gate.is_set()
            assert executor.snapshot()["queries.timeout"] == 1
            gate.set()
            assert len(running.finish()) == 9
        finally:
            opener.cancel()
            gate.set()
            executor.close()

    def test_slots_bound_concurrent_evaluations(self, monkeypatch):
        """More callers than slots: at most ``max_workers`` queries
        evaluate at once, and every slot and admission count returns."""
        executor = ServiceExecutor(rope_database(), max_workers=2,
                                   max_in_flight=8)
        guard, running, peak = threading.Lock(), [0], [0]
        serve = executor._serve

        def counted(*args):
            with guard:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                return serve(*args)
            finally:
                with guard:
                    running[0] -= 1

        monkeypatch.setattr(executor, "_serve", counted)
        texts = ["?- object(O).", "?- interval(G).", Q_APPEARS]
        errors = []

        def ask(index):
            try:
                for i in range(30):
                    executor.execute(texts[(index + i) % len(texts)])
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=ask, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            executor.close()
        assert errors == []
        assert 1 <= peak[0] <= 2
        snap = executor.snapshot()
        assert snap["in_flight"] == 0
        assert snap["queries.served"] == 8 * 30

    def test_deadline_expires_during_evaluation(self):
        executor = ServiceExecutor(rope_database(), max_workers=1)

        def slow(ctx, args):
            time.sleep(0.15)
            return True

        executor.register_computed("slow", 1, slow)
        try:
            with pytest.raises(QueryTimeoutError):
                executor.execute("?- interval(G), slow(G).", timeout=0.05)
        finally:
            executor.close()

    def test_no_timeout_by_default(self, service):
        assert len(service.execute("?- object(O).")) == 9


class TestCallerThread:
    def test_a_query_runs_on_the_calling_thread(self, service):
        seen = set()

        def record(ctx, args):
            seen.add(threading.current_thread())
            return True

        service.register_computed("record", 1, record)
        for caller in (Caller(service, "?- object(O), record(O)."),
                       Caller(service, "?- interval(G), record(G).")):
            caller.start()
            caller.finish()
            assert seen == {caller}
            seen.clear()
        service.execute("?- object(O), record(O), O != o1.")
        assert seen == {threading.current_thread()}


class TestLifecycle:
    def test_closed_executor_refuses_queries(self):
        executor = ServiceExecutor(rope_database(), max_workers=1)
        executor.close()
        with pytest.raises(ServiceClosedError):
            executor.execute("?- object(O).")

    def test_closed_executor_refuses_sessions(self):
        executor = ServiceExecutor(rope_database(), max_workers=1)
        executor.close()
        with pytest.raises(ServiceClosedError):
            executor.open_session()

    @pytest.mark.parametrize("bounds", [
        {"max_workers": 0}, {"max_in_flight": 0}, {"max_in_flight": -1}])
    def test_pool_bounds_must_be_positive(self, bounds):
        with pytest.raises(ValueError, match="must be greater than 0"):
            ServiceExecutor(rope_database(), **bounds)

    def test_max_in_flight_defaults_to_four_per_worker(self):
        with ServiceExecutor(rope_database(), max_workers=3) as executor:
            assert executor.max_in_flight == 12

    def test_service_answers_match_plain_engine(self, service):
        expected = QueryEngine(rope_database()).query(Q_APPEARS).rows()
        assert service.execute(Q_APPEARS).rows() == expected

    def test_snapshot_shape(self, service):
        service.execute("?- object(O).")
        snap = service.snapshot()
        for field in ("queries.served", "epoch", "in_flight",
                      "max_in_flight", "cache.size", "sessions.open"):
            assert field in snap
        assert snap["queries.served"] == 1
        assert snap["queries.latency_seconds"]["count"] == 1


class TestExecutionReports:
    def test_execute_report_fields(self, service):
        report = service.execute_report(Q_APPEARS)
        assert len(report.answers) == 2
        assert report.cached is False
        assert report.elapsed_s > 0
        assert report.trace is None

    def test_cache_hit_is_marked(self, service):
        first = service.execute_report(Q_APPEARS)
        second = service.execute_report(Q_APPEARS)
        assert first.cached is False
        assert second.cached is True
        assert second.answers.rows() == first.answers.rows()
        # hits reuse the original computation's statistics
        assert second.stats is first.stats

    def test_traced_report_bypasses_cache_but_populates_it(self, service):
        from vidb.query.execution import ExecutionOptions

        traced = service.execute_report(
            Q_APPEARS, options=ExecutionOptions(trace=True))
        assert traced.cached is False
        assert traced.trace is not None
        assert traced.trace.find("fixpoint.iteration")
        # the traced run still warmed the cache for plain queries
        assert service.execute_report(Q_APPEARS).cached is True

    def test_second_traced_query_recomputes(self, service):
        from vidb.query.execution import ExecutionOptions

        options = ExecutionOptions(trace=True)
        service.execute_report(Q_APPEARS, options=options)
        again = service.execute_report(Q_APPEARS, options=options)
        assert again.cached is False and again.trace is not None

    def test_execute_propagates_errors(self, service):
        with pytest.raises(VidbError):
            service.execute("?- interval(G")
        assert service.snapshot()["queries.errors"] == 1

    def test_ambient_tracer_follows_the_query_onto_the_worker(self, service):
        """A sampled caller's tracer records the run: executor spans and,
        on a miss, the engine's tree nest under the caller's open span;
        a hit is served from the cache like any other query."""
        from vidb.obs.trace import Tracer

        names = []
        for __ in range(2):
            tracer = Tracer()
            with tracer.activate(), tracer.span("caller"):
                report = service.execute_report(Q_APPEARS)
            names.append([child.name for child in tracer.root().children])
            (cache,) = tracer.root().find("service.cache")
            assert cache.payload["outcome"] == ("hit" if report.cached
                                                else "miss")
        assert names == [
            ["service.queue_wait", "service.lock_wait", "service.cache",
             "query.execute"],
            ["service.queue_wait", "service.lock_wait", "service.cache"]]
        assert service.snapshot()["cache.hits"] == 1

    def test_profiled_run_under_ambient_tracer_reports_its_span(self,
                                                              service):
        from vidb.obs.trace import Tracer
        from vidb.query.execution import ExecutionOptions

        service.execute(Q_APPEARS)  # warm: the profile must still run
        tracer = Tracer()
        with tracer.activate(), tracer.span("caller"):
            report = service.execute_report(
                Q_APPEARS, options=ExecutionOptions(trace=True))
        assert report.cached is False
        assert tracer.root().find("service.cache") == []
        assert report.trace is tracer.root().find("query.execute")[0]
        assert report.trace.find("fixpoint.iteration")

    def test_session_run_returns_report(self, service):
        with service.open_session() as session:
            report = session.run(Q_APPEARS)
            assert len(report.answers) == 2
            assert session.query(Q_APPEARS).rows() == report.answers.rows()
            assert session.queries_run == 2


class TestDurableService:
    def test_executor_unwraps_durable_database(self, tmp_path):
        from vidb.durability.durable import DurableDatabase

        durable = DurableDatabase(tmp_path, seed=rope_database(),
                                  fsync="never")
        service = ServiceExecutor(durable, max_workers=2)
        try:
            assert service.db is durable.db  # queries run on the inner db
            service.mutate(lambda db: db.new_entity("fresh", name="New"))
            assert durable.last_lsn > 0
            snap = service.snapshot()
            assert snap["wal.last_lsn"] == durable.last_lsn
            assert "snapshots.taken" in snap
        finally:
            service.close()

    def test_close_closes_the_durable_wrapper(self, tmp_path):
        from vidb.durability.durable import DurableDatabase

        durable = DurableDatabase(tmp_path, fsync="never")
        service = ServiceExecutor(durable, max_workers=2)
        service.close()
        from vidb.errors import DurabilityError
        with pytest.raises(DurabilityError):
            durable.checkpoint()

    def test_plain_database_has_no_durability(self):
        service = ServiceExecutor(rope_database(), max_workers=2)
        try:
            assert service.durability is None
            assert "wal.last_lsn" not in service.snapshot()
        finally:
            service.close()
