"""Seeded input generation: databases, query populations, op lists.

Everything here is a pure function of the seed (no clocks, no set
iteration order), so one seed always yields byte-identical inputs —
``tests/test_determinism.py`` holds that.  The program under test
receives only these generated inputs, never the seed.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Any, Dict, Iterator, List, Tuple

from vidb.storage.database import VideoDatabase
from vidb.stream.ingest import Record, apply_record, generate_dump, record_to_op
from vidb.workloads import WorkloadConfig, random_database
from vidb.workloads.generator import ROLES, SUBJECTS

from benchmarks.e2e import config

#: Rules every read workload's oracle loads; the adhoc server gets them
#: through ``--rules`` (plus ``--stdlib`` for contains/same_object_in).
REACH_RULES = (
    "reach(X, Y) :- in(X, Y, G).\n"
    "reach(X, Z) :- reach(X, Y), in(Y, Z, G).\n"
)

#: The derived rule behind stream_ingest's two-literal join subscription:
#: appearances of the watched subjects.  (A self-join of ``appears`` on
#: the interval was probed first: its maintenance scans every stored
#: fact per insert, so ingest fell from 1000 to 250 records/s within
#: 3000 records and that one subscription was 90 % of the workload.)
STREAM_RULES = "alert(O, G) :- appears(O, G), watched(O).\n"
STREAM_WATCHED = ("o1", "o2", "o3")


def _index(oid: Any) -> int:
    return int(str(oid)[1:])


# -- the read workloads' database --------------------------------------------
def database_records() -> List[Record]:
    """``random_database`` under the pinned shape and dataset seed, as
    dump records, so the server is loaded over the wire and the oracle
    replays the very same records."""
    db = random_database(WorkloadConfig(seed=config.DATASET_SEED,
                                        **config.READ_DB))
    records: List[Record] = []
    for entity in sorted(db.entities(), key=lambda o: _index(o.oid)):
        records.append({"t": 0.0, "kind": "entity", "oid": str(entity.oid),
                        "attributes": dict(entity.items())})
    for interval in sorted(db.intervals(), key=lambda o: _index(o.oid)):
        attributes = {name: value for name, value in interval.items()
                      if name not in ("entities", "duration")}
        records.append({
            "t": 0.0, "kind": "interval", "oid": str(interval.oid),
            "entities": sorted((str(e) for e in interval.entities),
                               key=_index),
            "duration": [[float(lo), float(hi)]
                         for lo, hi in interval.footprint().to_pairs()],
            "attributes": attributes,
        })
    facts = sorted(([fact.name] + [str(a) for a in fact.args]
                    for fact in db.facts()))
    for name, *args in facts:
        records.append({"t": 0.0, "kind": "fact", "relation": name,
                        "args": args})
    return records


def build_database(records: List[Record], name: str = "video") -> VideoDatabase:
    """The oracle's in-process copy of what the server was sent."""
    db = VideoDatabase(name)
    for record in records:
        apply_record(db, record)
    return db


def load_batches(records: List[Record],
                 batch_size: int) -> List[List[Dict[str, Any]]]:
    """Wire ``batch`` payloads for *records*, in order."""
    ops = [record_to_op(record) for record in records]
    return [ops[i:i + batch_size] for i in range(0, len(ops), batch_size)]


# -- adhoc_cold ----------------------------------------------------------------
def _concat_rule(a: str, b: str) -> str:
    """The paper's Section 6.2 constructive rule for one object pair."""
    return (f"cat_{a}_{b}(G1 ++ G2) :- interval(G1), interval(G2), "
            f"object({a}), anyobject({b}), "
            f"{{{a}, {b}}} subset G1.entities, "
            f"{{{a}, {b}}} subset G2.entities.\n")


def _cooccurrence(records: List[Record]) -> Counter:
    pairs: Counter = Counter()
    for record in records:
        if record["kind"] == "interval":
            for a, b in itertools.combinations(record["entities"], 2):
                pairs[(a, b)] += 1
    return pairs


def adhoc_population(records: List[Record], seed: int
                     ) -> Tuple[Dict[str, List[str]], str]:
    """Distinct query texts per shape (each list seeded-shuffled) and
    the rule text the server must load (see
    ``config.ADHOC_CONCAT_COOCCURRENCE`` for why the constructive rule
    is instantiated on a single, unpopular object pair)."""
    rng = random.Random(seed * 7919 + 11)
    entities = [r["oid"] for r in records if r["kind"] == "entity"]
    intervals = [r["oid"] for r in records if r["kind"] == "interval"]
    shapes: Dict[str, List[str]] = {
        "membership_e": [
            f"?- interval(G), object({e}), {e} in G.entities."
            for e in entities],
        "membership_g": [
            f"?- interval({g}), object(O), O in {g}.entities."
            for g in intervals],
        "attribute": [
            f'?- interval(G), object(O), O in G.entities, '
            f'O.role = "{role}", O.salience {op} {k}.'
            for role in ROLES for op in "<>" for k in range(1, 10)],
        "join_c": ([f"?- interval(G), object(O2), in({e}, O2, G)."
                    for e in entities]
                   + [f"?- interval(G), object(O1), in(O1, {e}, G)."
                      for e in entities]),
        "pairwise_c": (
            [f"?- interval(G), object(O2), {{{e}, O2}} subset G.entities, "
             f"{e} != O2." for e in entities]
            + [f"?- interval(G), object(O2), {{{e}, O2}} subset G.entities, "
               f"{e}.role = O2.role, {e} != O2." for e in entities]),
        "reach": ([f"?- reach({e}, Y)." for e in entities]
                  + [f"?- reach(X, {e})." for e in entities]),
        "contains": ([f"?- contains({g}, G2)." for g in intervals]
                     + [f"?- contains(G1, {g})." for g in intervals]),
        "same_object_in": [
            f"?- same_object_in({g}, G2, O)." for g in intervals],
    }
    windows = set()
    while len(windows) < config.ADHOC_TEMPORAL_WINDOWS:
        lo = rng.randrange(0, 6000, 10)
        windows.add((lo, lo + rng.randrange(2000, 4000, 10)))
    shapes["temporal"] = [
        f"?- interval(G), object(O), O in G.entities, "
        f"G.duration => (t > {lo} and t < {hi})."
        for lo, hi in sorted(windows)]
    a, b = min(pair for pair, n in _cooccurrence(records).items()
               if n == config.ADHOC_CONCAT_COOCCURRENCE)
    created = f"cat_{a}_{b}(G)"
    shapes["concat"] = (
        [f"?- {created}.", f"?- {created}, object(O), O in G.entities."]
        + [f"?- {created}, G.duration => (t > {lo} and t < {hi})."
           for lo, hi in sorted(windows)[:config.ADHOC_CONCAT_WINDOWS]])
    rules = REACH_RULES + _concat_rule(a, b)
    for texts in shapes.values():
        rng.shuffle(texts)
    return shapes, rules


def adhoc_ops(shapes: Dict[str, List[str]]
              ) -> Tuple[List[Tuple[str, str]], Iterator[Tuple[str, str]]]:
    """``(warm-up, endless op stream)`` of ``(shape, query text)``.

    The stream is blocks of ``ADHOC_BLOCK``, classes spread evenly
    inside each block, every shape cycling through its own population.
    No text may come round again within twice the server's cache
    capacity, or the workload would stop being all misses; a population
    too small for that is an error.  The warm-up is one reserved text
    per shape that the stream never uses.
    """
    pools = {shape: list(texts) for shape, texts in shapes.items()}
    warmup = [(shape, pool.pop()) for shape, pool in sorted(pools.items())]
    block_size = sum(config.ADHOC_BLOCK.values())
    slots: List[Tuple[float, str]] = []
    for cls, count in sorted(config.ADHOC_BLOCK.items()):
        slots += [((i + 0.5) / count, cls) for i in range(count)]
    pattern = [cls for _, cls in sorted(slots)]
    for cls, count in config.ADHOC_BLOCK.items():
        names = config.ADHOC_SHAPES[cls]
        for shape in set(names):
            per_block = count * names.count(shape) / len(names)
            reuse_distance = len(pools[shape]) / per_block * block_size
            if reuse_distance < 2 * config.SERVER_CACHE_CAPACITY:
                raise ValueError(
                    f"shape {shape!r}: {len(pools[shape])} texts repeat "
                    f"every {reuse_distance:.0f} ops, inside the cache")

    def stream() -> Iterator[Tuple[str, str]]:
        class_cycles = {cls: itertools.cycle(names)
                        for cls, names in config.ADHOC_SHAPES.items()}
        shape_cycles = {shape: itertools.cycle(pool)
                        for shape, pool in pools.items()}
        for cls in itertools.cycle(pattern):
            shape = next(class_cycles[cls])
            yield shape, next(shape_cycles[shape])

    return warmup, stream()


# -- dashboard_routed -----------------------------------------------------------
def dashboard_queries(records: List[Record]) -> List[str]:
    """The wall's small fixed set of cheap, rule-free queries (replicas
    started from the CLI load no rules), most popular first.  Which
    queries a wall shows is part of the dataset, not of the traffic, so
    it does not move with the run's seed."""
    rng = random.Random(config.DATASET_SEED * 7919 + 23)
    shapes, _ = adhoc_population(records, config.DATASET_SEED)
    per_shape = config.DASHBOARD_QUERIES // 4
    chosen: List[str] = []
    for shape in ("membership_g", "membership_e", "attribute", "join_c"):
        chosen += rng.sample(sorted(shapes[shape]), per_shape)
    rng.shuffle(chosen)
    return chosen


def dashboard_ops(seed: int, connection: int) -> Iterator[Tuple[str, int]]:
    """An endless ``("read", query index)`` stream with Zipf-skewed
    popularity; every ``DASHBOARD_WRITE_EVERY``-th op is
    ``("write", n)`` — the harness follows it with the read that must
    see it."""
    rng = random.Random(seed * 7919 + 31 + connection)
    ranks = range(config.DASHBOARD_QUERIES)
    weights = [1.0 / (rank + 1) ** config.DASHBOARD_ZIPF for rank in ranks]
    every = config.DASHBOARD_WRITE_EVERY
    # Connections write at staggered offsets so their invalidations
    # do not coincide.
    offset = (connection + 1) * every // (config.DASHBOARD_CONNECTIONS + 1)
    index = 0
    while True:
        for choice in rng.choices(ranks, weights=weights, k=1024):
            if index % every == offset:
                yield ("write", index // every)
            else:
                yield ("read", choice)
            index += 1


# -- stream_ingest ---------------------------------------------------------------
def stream_records(seed: int) -> List[Record]:
    """The annotation dump: its structure (which subjects appear in which
    interval) from the dataset seed, the values a detector would report
    (names, confidences) from the run's seed."""
    rng = random.Random(seed * 7919 + 37)
    records = generate_dump(entities=config.STREAM_ENTITIES,
                            intervals=config.STREAM_INTERVALS,
                            seed=config.DATASET_SEED)
    for record in records:
        if record["kind"] == "entity":
            record["attributes"]["name"] = f"subject{rng.randrange(10**6):06d}"
        elif record["kind"] == "interval":
            record["attributes"]["confidence"] = round(
                rng.uniform(0.5, 1.0), 3)
    return records


def stream_subscriptions() -> List[Dict[str, Any]]:
    """The eight standing queries: four filtered, two identical
    unfiltered (the sharing opportunity), one duration-entailment
    window, one derived two-literal join."""
    base = "?- appears(O, G)."
    subs: List[Dict[str, Any]] = [
        {"query": base, "filter": {"O": f"o{n}"}} for n in range(1, 5)]
    subs += [{"query": base}, {"query": base}]
    subs.append({"query": "?- appears(O, G), "
                          "G.duration => (t > 100 and t < 1000000)."})
    subs.append({"query": "?- alert(O, G)."})
    return subs


#: Index (into stream_subscriptions) of the subscription the harness
#: listens on: the first unfiltered copy.
STREAM_LISTEN_INDEX = 4


def appears_rows(records: List[Record]) -> List[List[str]]:
    """The rows the unfiltered ``appears`` subscription must be notified
    of for a commit of *records*, as the server renders them."""
    return sorted([str(a) for a in r["args"]] for r in records
                  if r["kind"] == "fact" and r["relation"] == "appears")


# -- write_recover ----------------------------------------------------------------
def write_records(seed: int) -> Iterator[Record]:
    """An endless round-robin of single-write records: entity, interval
    over recent entities, ``in`` fact over recent objects.  Every write
    is fresh (a duplicate ``relate`` would be an idempotent no-op).
    Which objects a write links comes from the dataset seed, the values
    it carries from the run's seed."""
    rng = random.Random(seed * 7919 + 41)
    shape = random.Random(config.DATASET_SEED * 7919 + 43)
    n = 0
    while True:
        recent = [f"e{k}" for k in range(max(0, n - 20), n + 1)]
        yield {"t": float(n), "kind": "entity", "oid": f"e{n}",
               "attributes": {"name": f"subject_{n}",
                              "role": rng.choice(ROLES),
                              "salience": rng.randint(1, 10)}}
        start = round(n * 3.0 + rng.uniform(0.0, 1.0), 2)
        members = sorted(shape.sample(recent, k=min(len(recent),
                                                    shape.randint(1, 3))),
                         key=_index)
        yield {"t": float(n), "kind": "interval", "oid": f"g{n}",
               "entities": members,
               "duration": [[start, round(start + rng.uniform(1.0, 40.0), 2)]],
               "attributes": {"subject": rng.choice(SUBJECTS)}}
        yield {"t": float(n), "kind": "fact", "relation": "in",
               "args": [f"e{n}", shape.choice(recent[:-1] or recent),
                        f"g{n}"]}
        n += 1
