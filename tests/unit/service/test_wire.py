"""Wire-plane conformance: the same hostile input against every role.

One suite, parametrised over the three things that serve the JSON-lines
protocol — a primary :class:`VideoServer`, a serving replica (a
:class:`VideoServer` over a :class:`Replica`) and a
:class:`ClusterRouter` in front of both.
Each case asserts the contract of :mod:`vidb.service.wire`: exactly one
reply line per request line, a typed error kind, a connection that still
answers ``ping``, and no exception escaping a handler thread.
"""

import json
import socket
import socketserver
import struct
import threading
from pathlib import Path

import pytest

from vidb.cluster import ClusterRouter
from vidb.durability import DurableDatabase
from vidb.obs.trace import TraceContext
from vidb.service import ServiceExecutor, VideoServer
from vidb.service.wire import MAX_REQUEST_BYTES, OPS, UNKNOWN_OP
from vidb.storage.database import VideoDatabase

from tests.serving import close_replica, serve_replica

ROLES = ("primary", "replica", "router")

#: A well-typed and a wrong-typed value for every field kind the op
#: table declares ("flag" accepts anything, so it has no wrong value).
VALID = {"string": "x", "integer": 1, "number": 1, "object": {},
         "array": [], "pairs": [[0, 1]], "scalars": {}, "flag": True,
         "value": "x", "values": {}, "value_list": [], "args": ["x"]}
WRONG = {"string": 5, "integer": "1", "number": "1", "object": 5,
         "array": 5, "pairs": [5], "scalars": {"k": []},
         "value": [5], "values": 5, "value_list": 5, "args": []}


def wrong_field_requests():
    """One request per declared field: that field wrong-typed, the
    op's other required fields present and well-typed."""
    for row in OPS.values():
        for field in row.fields:
            if field.kind not in WRONG:
                continue
            request = {"op": row.name}
            request.update({f.name: VALID[f.kind]
                            for f in row.fields if f.required})
            request[field.name] = WRONG[field.kind]
            yield pytest.param(request, id=f"{row.name}.{field.name}")


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A durable primary, a serving replica of it and a router over
    both.  Module-scoped: nothing in this suite gets far enough to
    change state."""
    seed = VideoDatabase("wire")
    seed.new_entity("a", name="Ana")
    durable = DurableDatabase(tmp_path_factory.mktemp("wire") / "data",
                              seed=seed, fsync="never")
    service = ServiceExecutor(durable)
    primary = VideoServer(service).start_background()
    replica = serve_replica(durable.data_dir)
    replica.service.replicate()
    router = ClusterRouter(primary.address, [replica.address],
                           scrape_interval_s=60.0).start()
    yield {"primary": primary, "replica": replica, "router": router}
    router.close()
    close_replica(replica)
    primary.shutdown()
    service.close()


@pytest.fixture(params=ROLES)
def endpoint(request, fleet, monkeypatch):
    """The endpoint under test; fails the test afterwards if any
    handler thread let an exception escape to ``socketserver``."""
    escaped = []
    monkeypatch.setattr(
        socketserver.BaseServer, "handle_error",
        lambda self, request, address: escaped.append(address))
    yield fleet[request.param]
    assert escaped == []


class Wire:
    """A raw socket speaking lines, so the suite can send what no
    client library would."""

    def __init__(self, endpoint):
        self.sock = socket.create_connection(endpoint.address, timeout=10)
        self.reader = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.reader.close()
        self.sock.close()

    def send(self, data):
        if not isinstance(data, bytes):
            data = (json.dumps(data) + "\n").encode("utf-8")
        self.sock.sendall(data)

    def reply(self):
        line = self.reader.readline()
        return json.loads(line) if line else None

    def ask(self, data):
        self.send(data)
        return self.reply()

    def still_serves(self):
        """The connection is open, in step, and answers ``ping`` — so
        every earlier request got exactly one reply line."""
        return self.ask({"op": "ping"}) == {"ok": True, "pong": True}


class TestMalformedLines:
    @pytest.mark.parametrize("line", [
        b"this is not json\n",
        b"\xff\xfe{\"op\": \"ping\"}\n",        # invalid UTF-8
        b"[1, 2, 3]\n",                          # JSON, but not an object
        b"5\n",
        b"{}\n",                                 # no op at all
        b"{\"op\": [\"ping\"]}\n",               # op is not a name
        b"{\"op\": \"frobnicate\"}\n",           # unknown op
    ], ids=["garbage", "bad-utf8", "array", "number", "no-op",
            "op-not-a-name", "unknown-op"])
    def test_protocol_error_keeps_the_connection(self, endpoint, line):
        with Wire(endpoint) as wire:
            reply = wire.ask(line)
            assert reply["ok"] is False and reply["error"] == "protocol"
            assert wire.still_serves()

    def test_blank_lines_are_skipped(self, endpoint):
        with Wire(endpoint) as wire:
            wire.send(b"\n  \n")
            assert wire.still_serves()

    def test_truncated_final_line_gets_one_reply(self, endpoint):
        with Wire(endpoint) as wire:
            wire.send(b"{\"op\": \"pi")
            wire.sock.shutdown(socket.SHUT_WR)
            assert wire.reply()["error"] == "protocol"
            assert wire.reply() is None

    def test_half_closed_socket_still_gets_its_reply(self, endpoint):
        with Wire(endpoint) as wire:
            wire.send({"op": "ping"})
            wire.sock.shutdown(socket.SHUT_WR)
            assert wire.reply() == {"ok": True, "pong": True}
            assert wire.reply() is None

    def test_oversized_line_is_refused_and_the_connection_closed(
            self, endpoint):
        with Wire(endpoint) as wire:
            reply = wire.ask(b"x" * (MAX_REQUEST_BYTES + 1))
            assert reply["error"] == "protocol"
            assert str(MAX_REQUEST_BYTES) in reply["message"]
            assert wire.reply() is None

    def test_client_vanishing_mid_reply(self, endpoint):
        for _ in range(20):
            wire = Wire(endpoint)
            wire.send({"op": "metrics"})
            # Linger 0: close() resets instead of draining, so the reply
            # (or the next read) fails on the server side.
            wire.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                 struct.pack("ii", 1, 0))
            wire.__exit__()
        with Wire(endpoint) as wire:
            assert wire.still_serves()


class TestMalformedFields:
    @pytest.mark.parametrize("request_", wrong_field_requests())
    def test_every_declared_field_is_type_checked(self, endpoint,
                                                  request_):
        with Wire(endpoint) as wire:
            reply = wire.ask(request_)
            assert reply["ok"] is False and reply["error"] == "protocol"
            assert wire.still_serves()

    @pytest.mark.parametrize("request_", [
        {"op": "insert_entity", "oid": "x", "attributes": 5},
        {"op": "insert_interval", "oid": "g", "duration": 5},
        {"op": "query", "query": "?- object(O).", "timeout": "5"},
        {"op": "query", "query": "?- object(O).", "limit": "5"},
        {"op": "batch", "ops": [{"op": "insert_entity", "oid": "y",
                                 "attributes": 5}]},
        {"op": "batch", "ops": ["not an object"]},
    ], ids=["attributes", "duration", "timeout", "limit",
            "batch-attributes", "batch-item"])
    def test_requests_that_used_to_kill_the_connection(self, endpoint,
                                                       fleet, request_):
        """ISSUE 16's reproductions: each raised ``TypeError`` in the
        handler thread (no reply, dead connection), and through the
        router came back as "primary unreachable; promote a replica"."""
        # Sub-ops are checked as they are applied, inside the write
        # transaction — which a read-only replica refuses to open.
        refused = endpoint is fleet["replica"] and request_["op"] == "batch"
        with Wire(endpoint) as wire:
            reply = wire.ask(request_)
            assert reply["error"] == ("read_only" if refused else "protocol")
            assert "unreachable" not in reply["message"]
            assert wire.still_serves()

    @pytest.mark.parametrize("value", [
        {"$oid": 5},
        {"$oid": {"kind": "bogus", "parts": ["x"]}},
        {"$fraction": [1, 0]},
        {"$set": [[1]]},
        {"$constraint": [[{"left": 1, "op": "~", "right": 2}]]},
        {"$what": 1},
        [1, 2],
    ], ids=["oid-payload", "oid-kind", "fraction", "set-member",
            "constraint-op", "unknown-tag", "list"])
    def test_malformed_tag_is_a_protocol_error(self, endpoint, value):
        """A written value is decoded before the write runs, so every
        role answers ``protocol`` (not ``read_only``) and keeps going."""
        with Wire(endpoint) as wire:
            reply = wire.ask({"op": "insert_entity", "oid": "tagged",
                              "attributes": {"partner": value}})
            assert reply["ok"] is False and reply["error"] == "protocol"
            assert "'attributes'" in reply["message"]
            assert wire.still_serves()

    def test_null_counts_as_absent(self, endpoint):
        with Wire(endpoint) as wire:
            reply = wire.ask({"op": "query", "query": "?- object(O).",
                              "limit": None, "timeout": None})
            assert reply["ok"] is True and reply["count"] == 1


class TestInternalErrors:
    def test_handler_bug_answers_service_and_emits_one_event(self, endpoint,
                                                             fleet):
        # ``params`` keys become keyword arguments next to ``name``: a
        # TypeError no declaration can rule out.  Through the router it
        # happens on (and is reported by) the primary.
        serving = fleet["primary"] if endpoint is fleet["router"] \
            else endpoint
        before = len(serving.events.recent(type="wire.internal_error"))
        with Wire(endpoint) as wire:
            reply = wire.ask({"op": "execute", "name": "q",
                              "params": {"name": "twice"}})
            assert reply["ok"] is False and reply["error"] == "service"
            assert "TypeError" in reply["message"]
            assert wire.still_serves()
        events = serving.events.recent(type="wire.internal_error")
        assert len(events) == before + 1
        assert events[0]["op"] == "execute"
        assert "Traceback" in events[0]["traceback"]


class TestRequestMetrics:
    def test_junk_op_names_share_one_series(self, endpoint):
        def series():
            return {key: value
                    for key, value in endpoint.metrics.snapshot().items()
                    if key.startswith("requests_total{")}

        before = series()
        with Wire(endpoint) as wire:
            for index in range(200):
                assert wire.ask({"op": f"junk{index}"})["ok"] is False
        after = series()
        key = f"requests_total{{op={UNKNOWN_OP},outcome=protocol}}"
        assert after[key] - before.get(key, 0) == 200
        assert set(after) - set(before) <= {key}

    def test_op_label_is_the_table_name(self, endpoint):
        with Wire(endpoint) as wire:
            assert wire.still_serves()
        snapshot = endpoint.metrics.snapshot()
        assert snapshot["requests_total{op=ping,outcome=ok}"] >= 1


class TestTraceOps:
    def test_traces_limit_zero_lists_nothing(self, endpoint):
        """``limit: 0`` means no rows, on every role — not the whole
        ring (a recorded segment is there to be left out)."""
        header = TraceContext.new(sampled=True).to_header()
        with Wire(endpoint) as wire:
            assert wire.ask({"op": "ping", "trace": header})["ok"] is True
            assert len(wire.ask({"op": "traces", "limit": 1})["traces"]) == 1
            assert wire.ask({"op": "traces", "limit": 0}) == {
                "ok": True, "traces": []}

    def test_trace_without_id_is_a_protocol_error(self, endpoint):
        with Wire(endpoint) as wire:
            reply = wire.ask({"op": "trace"})
            assert reply["ok"] is False and reply["error"] == "protocol"
            assert wire.still_serves()


class TestOpTable:
    def test_docs_list_exactly_the_table(self):
        """docs/SERVICE.md's op reference and the wire table name the
        same ops, with the same retry and routing flags."""
        text = (Path(__file__).resolve().parents[3]
                / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        documented = {}
        for line in text.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) >= 6 and cells[1].startswith("`"):
                documented[cells[1].strip("`")] = (cells[2] == "yes",
                                                   cells[3] == "yes")
        assert documented == {name: (row.idempotent, row.replica)
                              for name, row in OPS.items()}

    def test_every_server_op_has_a_handler(self, fleet):
        served = set(fleet["primary"]._handlers)
        routed = set(fleet["router"]._handlers)
        assert served | routed == set(OPS)
        assert routed - served == {"cluster", "cluster_health", "repoint"}


class TestLifecycle:
    """Closing an endpoint whose serve loop never started returns at
    once (``socketserver.shutdown`` alone would wait for that loop)."""

    @staticmethod
    def closes_within(endpoint, seconds=2.0):
        closing = threading.Thread(target=endpoint.close, daemon=True)
        closing.start()
        closing.join(seconds)
        return not closing.is_alive()

    def test_unstarted_server_closes(self):
        with ServiceExecutor(VideoDatabase("idle")) as service:
            assert self.closes_within(VideoServer(service))

    def test_unstarted_router_closes(self):
        assert self.closes_within(ClusterRouter(("127.0.0.1", 1), []))

    def test_started_server_closes(self):
        with ServiceExecutor(VideoDatabase("idle")) as service:
            server = VideoServer(service).start_background()
            assert self.closes_within(server)
