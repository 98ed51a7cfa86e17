"""``BENCHMARK.json`` stays inside the driver's limits and in step with
the benchmark's own catalogue."""

import json
import re

from benchmarks.e2e import catalog
from benchmarks.e2e.nodes import REPO_ROOT
from benchmarks.e2e.workloads import WORKLOADS

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_and_command():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert all(len(part) <= 200 and not part.startswith("/")
               and ".." not in part for part in SPEC["command"])


def test_counts_within_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_names_units_and_shapes():
    names = []
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names)), "a name is used twice"


def test_setup_metric_is_present_and_loosest():
    by_name = {entry["name"]: entry for entry in SPEC["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_workloads_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(catalog.OPERATIONS) == set(WORKLOADS)


def test_every_per_layer_metric_points_at_real_targets():
    end_to_end = {entry["name"] for entry in SPEC["end_to_end"]}
    per_layer = [entry["name"] for entry in SPEC["per_layer"]]
    assert set(catalog.MOVES) == set(per_layer)
    for name, targets in catalog.MOVES.items():
        for metric, workload in targets:
            assert metric in end_to_end, (name, metric)
            assert workload in WORKLOADS, (name, workload)
