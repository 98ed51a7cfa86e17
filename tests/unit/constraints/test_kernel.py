"""Unit tests for the constraint kernel API: registry, interning,
caching, and engine-level kernel selection."""

import pytest

from vidb.constraints import (
    DEFAULT_KERNEL_NAME,
    KERNEL_ENV_VAR,
    ConstraintKernel,
    available_kernels,
    default_kernel,
    default_kernel_name,
    get_kernel,
    make_kernel,
    register_kernel,
    resolve_kernel,
    set_default_kernel,
)
from vidb.constraints.dense import FALSE, TRUE, conjoin, disjoin
from vidb.constraints.interned import InternedKernel, atom_key
from vidb.constraints.reference import ReferenceKernel
from vidb.constraints.setorder import (
    Member,
    SetVar,
    SubsetConst,
    SubsetVar,
    SupersetConst,
)
from vidb.constraints.terms import Var
from vidb.errors import ConstraintError

x = Var("x")
y = Var("y")
z = Var("z")


# -- registry ------------------------------------------------------------------

class TestRegistry:
    def test_builtins_available(self):
        names = available_kernels()
        assert "interned" in names
        assert "reference" in names
        for name in ("interned", "reference"):
            assert isinstance(get_kernel(name), ConstraintKernel)

    def test_make_kernel_fresh_instances(self):
        assert make_kernel("interned") is not make_kernel("interned")

    def test_get_kernel_shared_instance(self):
        assert get_kernel("interned") is get_kernel("interned")

    def test_unknown_name(self):
        with pytest.raises(ConstraintError, match="unknown constraint kernel"):
            make_kernel("no-such-kernel")

    def test_register_duplicate_requires_replace(self):
        with pytest.raises(ConstraintError, match="already registered"):
            register_kernel("interned", InternedKernel)
        register_kernel("interned", InternedKernel, replace=True)

    def test_register_custom(self):
        class Custom(ReferenceKernel):
            name = "custom-test"

        register_kernel("custom-test", Custom)
        try:
            kernel = make_kernel("custom-test")
            assert kernel.name == "custom-test"
            assert kernel.satisfiable(x > 1)
        finally:
            # Re-registering under replace=True with a throwaway factory
            # is not removal, but keeps the registry harmless for other
            # tests that enumerate names.
            register_kernel("custom-test", Custom, replace=True)

    def test_default_name_and_env_override(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        previous = set_default_kernel(None)
        try:
            assert default_kernel_name() == DEFAULT_KERNEL_NAME
            monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
            assert default_kernel_name() == "reference"
            assert default_kernel().name == "reference"
        finally:
            set_default_kernel(previous)

    def test_set_default_kernel_overrides_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        previous = set_default_kernel("interned")
        try:
            assert default_kernel_name() == "interned"
        finally:
            set_default_kernel(previous)

    def test_set_default_unknown_name(self):
        with pytest.raises(ConstraintError):
            set_default_kernel("bogus")

    def test_resolve_kernel_forms(self):
        assert resolve_kernel(None) is default_kernel()
        assert resolve_kernel("reference").name == "reference"
        kernel = InternedKernel()
        assert resolve_kernel(kernel) is kernel

    def test_resolve_kernel_bad_spec(self):
        with pytest.raises(ConstraintError):
            resolve_kernel(42)  # type: ignore[arg-type]


# -- interning / canonical forms -----------------------------------------------

class TestInterning:
    def test_atom_key_numeric_cross_type(self):
        assert atom_key(x > 1) == atom_key(x > 1.0)

    def test_reordered_clauses_share_form(self):
        kernel = InternedKernel()
        a = disjoin(conjoin(x > 1, y < 2), conjoin(x < 0))
        b = disjoin(conjoin(x < 0), conjoin(y < 2, x > 1))
        assert kernel.intern(a).key == kernel.intern(b).key
        # and the same InternedForm object is shared
        assert kernel.intern(a) is kernel.intern(b)

    def test_duplicate_atoms_collapse(self):
        kernel = InternedKernel()
        a = conjoin(x > 1, x > 1, y < 2)
        b = conjoin(y < 2, x > 1)
        assert kernel.intern(a) is kernel.intern(b)

    def test_true_false_forms(self):
        kernel = InternedKernel()
        assert kernel.satisfiable(TRUE)
        assert not kernel.satisfiable(FALSE)
        assert kernel.entails(FALSE, x > 1)
        assert kernel.entails(x > 1, TRUE)
        assert not kernel.entails(TRUE, FALSE)

    def test_by_constraint_fast_path(self):
        kernel = InternedKernel()
        c = conjoin(x > 1, y < 2)
        kernel.intern(c)
        before = dict(kernel.counters())
        kernel.intern(c)
        after = kernel.counters()
        assert after["canon.hits"] == before["canon.hits"] + 1

    def test_counters_stable_keys(self):
        kernel = InternedKernel()
        keys = set(kernel.counters())
        assert {"canon.hits", "canon.misses", "entails.hits",
                "entails.misses", "forms", "evictions"} <= keys

    def test_entails_pair_cache(self):
        kernel = InternedKernel()
        a, b = conjoin(x > 2), conjoin(x > 1)
        assert kernel.entails(a, b)
        before = kernel.counters()["entails.hits"]
        assert kernel.entails(a, b)
        assert kernel.counters()["entails.hits"] == before + 1

    def test_eviction_keeps_answers_correct(self):
        kernel = InternedKernel(max_forms=4, max_cached=4)
        for i in range(20):
            assert kernel.satisfiable(conjoin(x > i, x < i + 1))
            assert not kernel.satisfiable(conjoin(x > i + 1, x < i))
        assert kernel.counters()["evictions"] > 0
        # stale indices must not alias new forms after a clear
        assert kernel.entails(conjoin(x > 5), conjoin(x > 1))

    def test_reset_clears_counters(self):
        kernel = InternedKernel()
        kernel.satisfiable(x > 1)
        kernel.reset()
        counters = kernel.counters()
        assert counters["forms"] == 0
        assert counters["sat.misses"] == 0


# -- bounded caches -----------------------------------------------------------

class TestEvictions:
    def test_every_overflow_counts(self):
        kernel = InternedKernel(max_cached=2)
        for bound in (1, 2, 3):
            assert kernel.entails(conjoin(x > bound + 1), conjoin(x > bound))
        assert kernel.counters()["evictions"] >= 1

    def test_set_entailment_overflow_counts(self):
        kernel = InternedKernel(max_forms=1000, max_cached=1)
        X = SetVar("X")
        premise = [SupersetConst(["a", "b"], X)]
        for element in ("a", "b"):
            assert kernel.set_entails(premise, [Member(element, X)])
        assert kernel.counters()["evictions"] >= 1


# -- set-order kernel ops ------------------------------------------------------

class TestSetOrderOps:
    def test_set_satisfiable_parity(self):
        X, Y = SetVar("X"), SetVar("Y")
        sat = [Member("a", X), SubsetVar(X, Y), SubsetConst(Y, ["a", "b"])]
        unsat = [Member("a", X), SubsetConst(X, ["b"])]
        for kernel in (InternedKernel(), ReferenceKernel()):
            assert kernel.set_satisfiable(sat)
            assert not kernel.set_satisfiable(unsat)
            assert kernel.set_satisfiable([])

    def test_set_entails_parity(self):
        X, Y, Z = SetVar("X"), SetVar("Y"), SetVar("Z")
        premise = [SubsetVar(X, Y), SubsetVar(Y, Z), Member("a", X)]
        for kernel in (InternedKernel(), ReferenceKernel()):
            assert kernel.set_entails(premise, [Member("a", Z)])
            assert kernel.set_entails(premise, [SubsetVar(X, Z)])
            assert not kernel.set_entails(premise, [Member("b", Z)])
            # unsatisfiable premise entails anything
            assert kernel.set_entails(
                [Member("a", X), SubsetConst(X, ["b"])], [Member("q", Y)])

    def test_set_entails_superset_const(self):
        X = SetVar("X")
        premise = [SupersetConst(["a", "b"], X)]
        for kernel in (InternedKernel(), ReferenceKernel()):
            assert kernel.set_entails(premise, [Member("a", X)])
            assert not kernel.set_entails(premise, [Member("c", X)])

    def test_set_state_cache(self):
        kernel = InternedKernel()
        X = SetVar("X")
        atoms = [Member("a", X)]
        kernel.set_satisfiable(atoms)
        before = kernel.counters()["set.hits"]
        kernel.set_satisfiable(list(reversed(atoms)) + [Member("a", X)])
        assert kernel.counters()["set.hits"] == before + 1


# -- engine-level selection ----------------------------------------------------

class TestEngineSelection:
    def _db(self):
        from vidb.workloads import rope_database
        return rope_database()

    def test_execution_options_kernel_validation(self):
        from vidb.errors import EvaluationError
        from vidb.query.execution import ExecutionOptions
        ExecutionOptions(kernel="reference")
        ExecutionOptions(kernel=None)
        with pytest.raises(EvaluationError):
            ExecutionOptions(kernel=InternedKernel())  # type: ignore[arg-type]

    def test_report_stats_name_kernel(self):
        from vidb.query.engine import QueryEngine
        from vidb.query.execution import ExecutionOptions
        engine = QueryEngine(self._db(), use_stdlib_rules=True)
        report = engine.execute("?- contains(V, O).")
        assert report.stats.kernel == default_kernel().name
        report = engine.execute(
            "?- contains(V, O).", options=ExecutionOptions(kernel="reference"))
        assert report.stats.kernel == "reference"

    def test_engine_kernel_constructor(self):
        from vidb.query.engine import QueryEngine
        engine = QueryEngine(self._db(), use_stdlib_rules=True,
                             kernel="reference")
        assert engine.kernel.name == "reference"
        report = engine.execute("?- contains(V, O).")
        assert report.stats.kernel == "reference"

    def test_unknown_kernel_fails_at_execution(self):
        from vidb.errors import EvaluationError
        from vidb.query.engine import QueryEngine
        from vidb.query.execution import ExecutionOptions
        engine = QueryEngine(self._db(), use_stdlib_rules=True)
        with pytest.raises((ConstraintError, EvaluationError)):
            engine.execute("?- contains(V, O).",
                           options=ExecutionOptions(kernel="bogus"))

    def test_kernels_agree_on_query_results(self):
        from vidb.query.engine import QueryEngine
        db = self._db()
        reports = {}
        for name in ("interned", "reference"):
            engine = QueryEngine(db, use_stdlib_rules=True, kernel=name)
            report = engine.execute("?- contains(V, O).")
            reports[name] = sorted(
                tuple(sorted(answer.as_dict().items()))
                for answer in report.answers)
        assert reports["interned"] == reports["reference"]
