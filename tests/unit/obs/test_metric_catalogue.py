"""docs/OBSERVABILITY.md's metric catalogue names every metric a server
registers: the catalogue cannot drift from the registry."""

import re
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from vidb.durability import DurableDatabase
from vidb.service import ServiceExecutor, VideoServer
from vidb.service.server import ServiceClient
from vidb.storage.database import VideoDatabase

from tests.serving import close_replica, serve_replica

DOC = Path(__file__).resolve().parents[3] / "docs" / "OBSERVABILITY.md"


def catalogue_patterns():
    """The backticked names in the first column of the catalogue table;
    a trailing ``*`` stands for any suffix."""
    text = DOC.read_text(encoding="utf-8")
    section = text.split("### Metric catalog", 1)[1].split("\n## ", 1)[0]
    patterns = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) > 2 and cells[1].strip().startswith("`"):
            patterns.extend(re.findall(r"`([^`]+)`", cells[1]))
    return patterns


def uncatalogued(snapshot):
    patterns = catalogue_patterns()
    return sorted(key for key in snapshot
                  if not any(fnmatchcase(key.split("{")[0], pattern)
                             for pattern in patterns))


@pytest.fixture
def primary(tmp_path):
    """A durable, streaming primary that has served a query, a write
    and a standing-query notification over the wire."""
    seed = VideoDatabase("catalogue")
    seed.new_entity("a", name="Ana")
    durable = DurableDatabase(tmp_path / "data", seed=seed, fsync="never")
    service = ServiceExecutor(durable)
    server = VideoServer(service).start_background()
    with ServiceClient(*server.address) as client:
        client.declare_relation("appears")
        subscription = client.subscribe("?- appears(O, G).")["id"]
        client.insert_interval("g1", entities=["a"], duration=[[0, 10]])
        client.relate("appears", "a", "g1")
        assert client.poll(subscription, wait_s=5.0)["batches"]
        client.query("?- object(O).")
    yield service
    server.shutdown()
    service.close()


def test_primary_registry_is_catalogued(primary):
    snapshot = primary.snapshot()
    assert any(key.startswith("stream_notifications_total{")
               for key in snapshot)
    assert uncatalogued(snapshot) == []


def test_replica_registry_is_catalogued(primary):
    replica = serve_replica(primary.durability.data_dir)
    try:
        replica.service.replicate()
        snapshot = replica.service.snapshot()
        assert "replica.applied_lsn" in snapshot
        assert uncatalogued(snapshot) == []
    finally:
        close_replica(replica)
