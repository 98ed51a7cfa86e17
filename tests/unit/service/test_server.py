"""Unit tests for the JSON-lines TCP server and client."""

import json
import socket
import threading

import pytest

from vidb.errors import ProtocolError, QueryError, SessionError
from vidb.obs.trace import TraceContext, parse_traceparent
from vidb.service.executor import ServiceExecutor
from vidb.service.server import ServiceClient, VideoServer
from vidb.workloads.paper import rope_database


@pytest.fixture
def server():
    service = ServiceExecutor(rope_database(), max_workers=2)
    with service, VideoServer(service, port=0) as srv:
        srv.start_background()
        yield srv


@pytest.fixture
def client(server):
    host, port = server.address
    with ServiceClient(host, port) as c:
        yield c


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping() is True

    def test_info(self, client):
        info = client.info()
        assert info["database"] == "the-rope"
        assert info["stats"]["entities"] == 9
        assert "epoch" in info

    def test_query_rows_are_strings(self, client):
        reply = client.query(
            "?- interval(G), object(o1), o1 in G.entities.")
        assert reply["variables"] == ["G"]
        assert sorted(reply["rows"]) == [["gi1"], ["gi2"]]
        assert reply["count"] == 2

    def test_query_limit(self, client):
        reply = client.query("?- object(O).", limit=3)
        assert len(reply["rows"]) == 3
        assert reply["count"] == 9

    def test_a_query_runs_on_its_connection_thread(self, server):
        opened, seen = [], set()
        open_session = server.open_connection

        def recording_open():
            opened.append(threading.current_thread())
            return open_session()

        def record(ctx, args):
            seen.add(threading.current_thread())
            return True

        server.open_connection = recording_open
        server.service.register_computed("record", 1, record)
        host, port = server.address
        with ServiceClient(host, port) as client:
            assert client.query("?- object(O), record(O).")["count"] == 9
        assert len(opened) == 1
        assert seen == {opened[0]}


class TestPreparedOverTheWire:
    def test_prepare_execute(self, client):
        reply = client.prepare(
            "appears", "?- interval(G), object(O), O in G.entities.",
            params=["O"])
        assert reply["params"] == ["O"]
        result = client.execute("appears", params={"O": "o1"})
        assert sorted(r[0] for r in result["rows"]) == ["gi1", "gi2"]

    def test_prepared_state_is_per_connection(self, server, client):
        client.prepare("mine", "?- object(O).")
        host, port = server.address
        with ServiceClient(host, port) as other:
            with pytest.raises(SessionError):
                other.execute("mine")


class TestMutationsAndCache:
    def test_acceptance_flow(self, client):
        """Repeat -> cache hit; insert -> epoch bump -> fresh answers."""
        query = "?- interval(G), object(O), O in G.entities."
        first = client.query(query)
        second = client.query(query)
        assert second["rows"] == first["rows"]
        metrics = client.metrics()
        assert metrics["cache.hits"] >= 1
        epoch_before = client.info()["epoch"]

        client.insert_entity("o77", name="Latecomer")
        client.insert_interval("gi77", entities=["o77"],
                               duration=[[400, 410]])
        assert client.info()["epoch"] > epoch_before

        third = client.query(query)
        assert third["count"] == first["count"] + 1
        assert ["gi77", "o77"] in third["rows"]
        after = client.metrics()
        assert after["cache.misses"] > metrics["cache.misses"]

    def test_relate_resolves_oids(self, client):
        reply = client.relate("in", "o1", "o4", "gi1")
        assert reply["fact"] == "in(o1, o4, gi1)"
        result = client.query("?- in(X, Y, G).")
        assert ["o1", "o4", "gi1"] in result["rows"]


class TestErrorsOverTheWire:
    def test_query_error_round_trips(self, client):
        with pytest.raises(QueryError):
            client.query("?- object(O")

    def test_unknown_op(self, client):
        with pytest.raises(ProtocolError):
            client.request("frobnicate")

    def test_missing_field(self, client):
        with pytest.raises(ProtocolError):
            client.request("query")

    def test_connection_survives_errors(self, client):
        with pytest.raises(ProtocolError):
            client.request("frobnicate")
        assert client.ping() is True

    def test_garbage_line_gets_protocol_error(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["error"] == "protocol"

    def test_close_op_ends_connection(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'{"op": "close"}\n')
            assert json.loads(reader.readline())["closing"] is True
            assert reader.readline() == b""


class TestObservabilityOps:
    def test_query_profile_payload(self, client):
        reply = client.query("?- object(O).", profile=True)
        assert reply["count"] == 9
        assert "== execution profile ==" in reply["profile"]
        assert reply["stats"]["iterations"] >= 1
        assert reply["trace"]["name"] == "query.execute"
        json.dumps(reply)  # the whole payload stays JSON-clean

    def test_plain_query_has_no_profile(self, client):
        reply = client.query("?- object(O).")
        assert "profile" not in reply and "trace" not in reply


class TestDistributedTracing:
    """Cross-process trace contract at the wire boundary: header
    adoption, head sampling, black-box error retention."""

    @pytest.fixture
    def traced_server(self):
        service = ServiceExecutor(rope_database(), max_workers=2,
                                  trace_sample=1.0)
        with service, VideoServer(service, port=0) as srv:
            srv.start_background()
            yield srv

    def test_sampled_header_records_a_segment(self, server):
        context = TraceContext.new(sampled=True)
        host, port = server.address
        with ServiceClient(host, port, trace_context=context) as client:
            reply = client.query("?- object(O).")
            segments = client.trace(id=context.trace_id)["segments"]
        # The reply echoes the server's child context on the same trace.
        echoed = parse_traceparent(reply["trace"])
        assert echoed.trace_id == context.trace_id
        assert echoed.span_id != context.span_id
        (segment,) = segments
        assert segment["op"] == "query"
        assert segment["status"] == "ok"
        assert segment["parent_span_id"] == context.span_id
        assert segment["node"]["role"] == "standalone"
        assert segment["spans"]["name"] == "server.query"

    def test_unsampled_header_is_honored(self, traced_server):
        """flags=00 means the client decided *against* tracing; even a
        sample_rate=1.0 server must not head-sample over that."""
        context = TraceContext.new(sampled=False)
        host, port = traced_server.address
        with ServiceClient(host, port, trace_context=context) as client:
            reply = client.query("?- object(O).")
            assert "trace" not in reply
            assert client.trace(id=context.trace_id)["segments"] == []

    def test_head_sampling_without_client_header(self, traced_server):
        host, port = traced_server.address
        with ServiceClient(host, port) as client:
            reply = client.query("?- object(O).")
            context = parse_traceparent(reply["trace"])
            assert context is not None and context.sampled
            segments = client.trace(id=context.trace_id)["segments"]
        (segment,) = segments
        assert segment["parent_span_id"] is None  # server is the root

    def test_non_query_ops_are_not_head_sampled(self, traced_server):
        host, port = traced_server.address
        with ServiceClient(host, port) as client:
            assert client.ping() is True
            client.metrics()
            assert client.traces() == []

    def test_errors_retained_even_when_unsampled(self, server):
        context = TraceContext.new(sampled=False)
        host, port = server.address
        with ServiceClient(host, port, trace_context=context) as client:
            with pytest.raises(QueryError):
                client.query("?- object(O")
            segments = client.trace(id=context.trace_id)["segments"]
        (segment,) = segments
        assert segment["status"] == "error"
        assert segment["parent_span_id"] == context.span_id

    def test_sampled_query_takes_the_cache(self, server):
        """Sampling observes without changing execution: a sampled
        repeat is a cache hit whose segment shows the probe, and the
        reply is the unsampled reply."""
        host, port = server.address
        query = "?- interval(G), object(O), O in G.entities."
        with ServiceClient(host, port) as plain:
            expected = plain.query(query)
            hits = plain.metrics()["cache.hits"]
        context = TraceContext.new(sampled=True)
        with ServiceClient(host, port, trace_context=context) as client:
            replies = [client.query(query) for __ in range(2)]
            segments = client.trace(id=context.trace_id)["segments"]
        for reply in replies:
            assert parse_traceparent(reply.pop("trace")) is not None
            assert reply == expected
        with ServiceClient(host, port) as plain:
            assert plain.metrics()["cache.hits"] == hits + 2
        trees = [segment["spans"] for segment in segments
                 if segment["op"] == "query"]
        assert len(trees) == 2
        for tree in trees:
            assert tree["name"] == "server.query"
            children = {child["name"]: child for child in tree["children"]}
            assert children["service.cache"]["payload"] == {"outcome": "hit"}
            assert {"service.queue_wait", "service.lock_wait"} <= set(children)
            assert "query.execute" not in json.dumps(tree)

    def test_sampled_miss_nests_the_engine_under_the_request(self, server):
        host, port = server.address
        context = TraceContext.new(sampled=True)
        with ServiceClient(host, port, trace_context=context) as client:
            client.query("?- object(O).")
            segments = client.trace(id=context.trace_id)["segments"]
        (tree,) = [s["spans"] for s in segments if s["op"] == "query"]
        assert [child["name"] for child in tree["children"]] == [
            "service.queue_wait", "service.lock_wait", "service.cache",
            "query.execute"]
        assert tree["children"][2]["payload"] == {"outcome": "miss"}
        engine = tree["children"][3]
        assert [c["name"] for c in engine["children"]][:2] == [
            "parse", "safety"]

    def test_traces_op_lists_summaries_most_recent_first(self, server):
        host, port = server.address
        for name in ("first", "second"):
            context = TraceContext.new(sampled=True)
            with ServiceClient(host, port,
                               trace_context=context) as client:
                client.query("?- object(O).")
                client.request("insert_entity", oid=name)
        with ServiceClient(host, port) as client:
            rows = client.traces()
        assert len(rows) == 4
        assert rows[0]["started_at"] >= rows[-1]["started_at"]
        assert {row["op"] for row in rows} == {"query", "insert_entity"}
        assert all(row["node"]["role"] == "standalone" for row in rows)
