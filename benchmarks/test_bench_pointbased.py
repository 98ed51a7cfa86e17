"""E10: point-based (constraint) vs interval-based temporal encodings.

Section 1 argues for the point-based approach ("first-order queries can
then be conveniently asked in a much more declarative and natural way",
citing Toman).  This experiment measures the two faithful execution
strategies the model supports for the same temporal questions:

* **constraint route** — durations stay in their point-based dense-order
  constraint form; containment is decided by the entailment procedure;
* **interval route** — durations are materialised as explicit
  generalized intervals; containment is decided by span-subset checks.

Both answer identically (a property test guarantees it); the benchmark
shows the cost profile, and a build-cost benchmark shows what the
materialisation step itself costs.
"""

import pytest

from vidb.constraints.kernel import default_kernel
from vidb.intervals.generalized import GeneralizedInterval
from vidb.workloads.generator import WorkloadConfig, random_database


@pytest.fixture(scope="module")
def db():
    return random_database(WorkloadConfig(
        entities=30, intervals=120, facts=0, fragments_per_interval=3,
        seed=33))


@pytest.fixture(scope="module")
def constraints(db):
    return [interval.duration for interval in db.intervals()]


@pytest.fixture(scope="module")
def footprints(db):
    return [interval.footprint() for interval in db.intervals()]


def test_materialisation_cost(benchmark, db):
    """Decoding every duration constraint into explicit intervals."""
    def materialise():
        return [interval.footprint() for interval in db.intervals()]

    result = benchmark(materialise)
    assert len(result) == 120


def test_containment_constraint_route(benchmark, constraints):
    probe = constraints[0]
    kernel = default_kernel()

    def check_all():
        return sum(1 for c in constraints if kernel.entails(c, probe))

    count = benchmark(check_all)
    assert count >= 1


def test_containment_interval_route(benchmark, footprints):
    probe = footprints[0]

    def check_all():
        return sum(1 for fp in footprints if probe.contains(fp))

    count = benchmark(check_all)
    assert count >= 1


def test_point_query_constraint_route(benchmark, constraints):
    from vidb.intervals.generalized import T

    def check_all():
        return sum(1 for c in constraints if c.evaluate({T: 5000}))

    benchmark(check_all)


def test_point_query_interval_route(benchmark, footprints):
    def check_all():
        return sum(1 for fp in footprints if fp.contains_point(5000))

    benchmark(check_all)


def test_routes_agree(benchmark, constraints, footprints):
    """Sanity for the whole experiment: both encodings answer alike."""
    probe_constraint = constraints[0]
    probe_footprint = footprints[0]
    kernel = default_kernel()

    def check():
        for constraint, footprint in zip(constraints, footprints):
            assert kernel.entails(constraint, probe_constraint) == \
                probe_footprint.contains(footprint)
        return True

    assert benchmark(check)
