"""Concurrency stress: N reader threads + 1 writer thread on one service.

The invariants under test:

* no reader ever sees an exception or a torn read while the writer
  mutates the database (the RW lock serializes them);
* answer counts for a grow-only workload are monotonically
  non-decreasing in real time (a reader can never observe the database
  going backwards);
* after quiescence, every cached answer equals a fresh, uncached
  :class:`QueryEngine` evaluation at the same epoch;
* sequentially, a cached answer re-read at an unchanged epoch is
  identical, and changes exactly when the epoch changes.
"""

import threading

import pytest

from vidb.query.engine import QueryEngine
from vidb.service.executor import ServiceExecutor
from vidb.workloads.paper import rope_database

QUERIES = [
    "?- object(O).",
    "?- interval(G).",
    "?- interval(G), object(O), O in G.entities.",
]

N_READERS = 4
WRITES = 30
READS_PER_READER = 60


@pytest.mark.slow
class TestReaderWriterStress:
    def test_stress(self):
        service = ServiceExecutor(rope_database(), max_workers=N_READERS + 1,
                                  max_in_flight=256, cache_capacity=64)
        errors = []
        low_water = {text: 0 for text in QUERIES}
        low_water_lock = threading.Lock()
        stop_writing = threading.Event()

        def reader(index):
            try:
                for i in range(READS_PER_READER):
                    text = QUERIES[(index + i) % len(QUERIES)]
                    count = len(service.execute(text))
                    with low_water_lock:
                        if count < low_water[text]:
                            errors.append(
                                f"{text!r} shrank: {count} < "
                                f"{low_water[text]}")
                        low_water[text] = max(low_water[text], count)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(f"reader {index}: {exc!r}")

        def writer():
            try:
                for i in range(WRITES):
                    service.mutate(lambda db, i=i: db.new_entity(
                        f"ox{i}", name=f"Extra{i}"))
                    service.mutate(lambda db, i=i: db.new_interval(
                        f"gix{i}", entities=[f"ox{i}"],
                        duration=[(500 + i, 501 + i)]))
                    if i % 7 == 0:
                        # an aborted write: must be invisible to readers
                        def bad(db, i=i):
                            db.new_entity(f"ghost{i}")
                            raise RuntimeError("abort")
                        with pytest.raises(RuntimeError):
                            service.mutate(bad)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"writer: {exc!r}")
            finally:
                stop_writing.set()

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(N_READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []

        # quiescent: every cached answer equals a fresh engine at this epoch
        db = service.db
        assert not any(t.is_alive() for t in threads)
        fresh = QueryEngine(db)
        for text in QUERIES:
            cached_rows = service.execute(text).rows()
            assert cached_rows == fresh.query(text).rows(), text
        assert db.get(db.entity_oid("ghost0")) is None
        snapshot = service.snapshot()
        assert snapshot["queries.served"] == (
            N_READERS * READS_PER_READER + len(QUERIES))
        assert snapshot["cache.hits"] > 0
        assert snapshot["writes.applied"] == WRITES * 2
        service.close()

    def test_sequential_epoch_consistency(self):
        """Cache hits repeat exact answers until the epoch moves."""
        service = ServiceExecutor(rope_database(), max_workers=2)
        text = "?- object(O)."
        for i in range(10):
            first = service.execute(text)
            epoch = service.db.epoch
            again = service.execute(text)
            assert service.db.epoch == epoch
            assert again.rows() == first.rows()
            fresh = QueryEngine(service.db).query(text)
            assert again.rows() == fresh.rows()
            service.mutate(lambda db, i=i: db.new_entity(f"seq{i}"))
            bumped = service.execute(text)
            assert len(bumped) == len(first) + 1
        service.close()
