"""One seed, one set of inputs — byte for byte; another seed differs."""

import itertools
import json

from benchmarks.e2e import inputs


def _adhoc(seed: int, count: int):
    shapes, rules = inputs.adhoc_population(inputs.database_records(), seed)
    warmup, stream = inputs.adhoc_ops(shapes)
    return rules, warmup, list(itertools.islice(stream, count))


def _generated(seed: int) -> bytes:
    records = inputs.database_records()
    rules, warmup, ops = _adhoc(seed, 2000)
    return json.dumps({
        "database": records,
        "rules": rules,
        "adhoc": [warmup, ops],
        "dashboard_queries": inputs.dashboard_queries(records),
        "dashboard": [list(itertools.islice(inputs.dashboard_ops(seed, c),
                                            5000)) for c in range(2)],
        "stream": inputs.stream_records(seed)[:3000],
        "writes": list(itertools.islice(inputs.write_records(seed), 3000)),
    }, sort_keys=True).encode("utf-8")


def test_same_seed_gives_identical_inputs():
    assert _generated(7) == _generated(7)


def test_another_seed_gives_other_inputs():
    one, other = json.loads(_generated(7)), json.loads(_generated(8))
    for part in ("adhoc", "dashboard", "stream", "writes"):
        assert one[part] != other[part], part
    # the dataset itself is pinned (config.DATASET_SEED), not seeded
    assert one["database"] == other["database"]


def test_adhoc_population_outruns_the_cache():
    from benchmarks.e2e import config

    texts = [text for _, text in _adhoc(7, 6000)[2]]
    assert len(set(texts)) >= 600 > 2 * config.SERVER_CACHE_CAPACITY
    last_seen = {}
    for index, text in enumerate(texts):
        if text in last_seen:
            assert index - last_seen[text] >= 2 * config.SERVER_CACHE_CAPACITY
        last_seen[text] = index
