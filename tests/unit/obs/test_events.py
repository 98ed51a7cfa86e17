"""Unit tests for the structured event log and its producers: the
executor (slow queries, admission), durability (recovery, checkpoint),
replicas (resync), and the server's ``events`` op."""

import json
import threading

import pytest

from vidb.errors import ProtocolError, ServiceOverloadedError
from vidb.durability import DurableDatabase, Replica
from vidb.obs.events import EventLog, emit, get_event_log
from vidb.service.executor import ServiceExecutor
from vidb.service.server import ServiceClient, VideoServer
from vidb.workloads.paper import rope_database


class TestEventLog:
    def test_emit_stamps_ts_and_type(self):
        log = EventLog()
        event = log.emit("checkpoint", lsn=5)
        assert event["type"] == "checkpoint"
        assert event["lsn"] == 5
        assert isinstance(event["ts"], float)

    def test_capacity_bounds_the_ring(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("tick", i=i)
        assert len(log) == 3
        assert log.emitted == 10
        assert [e["i"] for e in log.recent()] == [9, 8, 7]

    def test_recent_filters_by_type_and_limit(self):
        log = EventLog()
        log.emit("a", n=1)
        log.emit("b", n=2)
        log.emit("a", n=3)
        assert [e["n"] for e in log.recent(type="a")] == [3, 1]
        assert [e["n"] for e in log.recent(limit=2)] == [3, 2]
        assert log.recent(type="zzz") == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_file_sink_writes_json_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(sink=path) as log:
            log.emit("slow_query", elapsed_ms=12.5)
            log.emit("checkpoint", lsn=3)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [e["type"] for e in lines] == ["slow_query", "checkpoint"]
        assert lines[0]["elapsed_ms"] == 12.5

    def test_broken_sink_keeps_the_ring(self, tmp_path):
        path = tmp_path / "events.jsonl"
        stream = open(path, "a", encoding="utf-8")
        log = EventLog(sink=stream)
        stream.close()  # the next write raises ValueError
        log.emit("tick")
        log.emit("tock")
        assert [e["type"] for e in log.recent()] == ["tock", "tick"]

    def test_concurrent_emitters(self):
        log = EventLog(capacity=10_000)

        def spin(n):
            for i in range(500):
                log.emit("tick", worker=n, i=i)

        threads = [threading.Thread(target=spin, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.emitted == 2000
        assert len(log) == 2000

    def test_global_log_and_module_emit(self):
        log = get_event_log()
        before = log.emitted
        emit("test.global", marker="x")
        assert log.emitted == before + 1
        assert log.recent(limit=1)[0]["type"] == "test.global"


class TestExecutorEvents:
    def test_slow_query_event_with_zero_threshold(self):
        log = EventLog()
        with ServiceExecutor(rope_database(), max_workers=1,
                             slow_query_ms=0, event_log=log) as executor:
            executor.execute("?- object(O).")
            events = executor.recent_events(type="slow_query")
        assert len(events) == 1
        event = events[0]
        assert event["rows"] == 9
        assert event["cached"] is False
        assert event["elapsed_ms"] >= 0
        assert len(event["fingerprint"]) == 64
        assert "object" in event["query"]
        assert set(event["stages"]) >= {"parse", "evaluate", "collect"}

    def test_no_events_when_threshold_unset(self):
        log = EventLog()
        with ServiceExecutor(rope_database(), max_workers=1,
                             event_log=log) as executor:
            executor.execute("?- object(O).")
        assert log.recent(type="slow_query") == []

    def test_admission_rejection_event(self):
        log = EventLog()
        executor = ServiceExecutor(rope_database(), max_workers=1,
                                   max_in_flight=1, event_log=log)
        gate, entered = threading.Event(), threading.Event()

        def blocked(ctx, args):
            entered.set()
            gate.wait(timeout=10)
            return True

        executor.register_computed("blocked", 1, blocked)
        answered = []
        running = threading.Thread(target=lambda: answered.append(
            executor.execute("?- object(O), blocked(O).")))
        try:
            running.start()
            assert entered.wait(10)
            with pytest.raises(ServiceOverloadedError):
                executor.execute("?- object(O).")
            gate.set()
            running.join(10)
            assert len(answered) == 1
            events = log.recent(type="admission.reject")
            assert len(events) == 1
            assert events[0]["in_flight"] == 1
            assert events[0]["limit"] == 1
        finally:
            gate.set()
            executor.close()


class TestDurabilityEvents:
    def test_recovery_and_checkpoint_events(self, tmp_path):
        log = EventLog()
        with DurableDatabase(tmp_path / "state", event_log=log) as durable:
            durable.db.new_entity("o1", name="A")
            durable.checkpoint()
        recoveries = log.recent(type="recovery")
        assert len(recoveries) == 1
        assert recoveries[0]["replayed"] == 0
        checkpoints = log.recent(type="checkpoint")
        # one initial (empty-directory) checkpoint plus the explicit one
        assert len(checkpoints) == 2
        assert checkpoints[0]["lsn"] >= 1
        assert checkpoints[0]["snapshot"].endswith(".json")
        rotations = log.recent(type="wal.rotate")
        assert len(rotations) == 2
        assert rotations[0]["bytes_truncated"] > 0

    def test_recovery_event_reports_replay(self, tmp_path):
        with DurableDatabase(tmp_path / "state") as durable:
            durable.db.new_entity("o1", name="A")
        log = EventLog()
        with DurableDatabase(tmp_path / "state", event_log=log):
            pass
        event = log.recent(type="recovery")[0]
        assert event["replayed"] == 1
        assert event["torn_tail"] is False

    def test_replica_resync_event(self, tmp_path):
        with DurableDatabase(tmp_path / "state") as durable:
            durable.db.new_entity("o1", name="A")
            durable.checkpoint()
            log = EventLog()
            replica = Replica.from_data_dir(tmp_path / "state",
                                            event_log=log)
            assert replica.lag_lsn == 0
        resyncs = log.recent(type="replica.resync")
        assert len(resyncs) == 1
        assert resyncs[0]["lsn"] >= 1


class TestServerEventsOp:
    def test_events_op_round_trip(self):
        log = EventLog()
        with ServiceExecutor(rope_database(), max_workers=2,
                             slow_query_ms=0, event_log=log) as executor:
            with VideoServer(executor, port=0) as server:
                server.start_background()
                host, port = server.address
                with ServiceClient(host, port) as client:
                    client.query("?- object(O).")
                    events = client.events(type="slow_query")
                    assert len(events) == 1
                    assert events[0]["rows"] == 9
                    # limit applies after the filter
                    client.query("?- interval(G).")
                    assert len(client.events(limit=1,
                                             type="slow_query")) == 1
                    assert client.events(type="nope") == []

    def test_events_op_validates_arguments(self):
        with ServiceExecutor(rope_database(), max_workers=1) as executor:
            with VideoServer(executor, port=0) as server:
                server.start_background()
                host, port = server.address
                with ServiceClient(host, port) as client:
                    with pytest.raises(ProtocolError):
                        client.request("events", limit="many")
                    with pytest.raises(ProtocolError):
                        client.request("events", type=7)
