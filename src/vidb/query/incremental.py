"""Incremental maintenance of a materialised program.

The paper's target applications (broadcast archives, monitoring) ingest
annotations continuously; re-saturating the whole program on every new
fact wastes exactly the work semi-naive evaluation knows how to avoid.
A :class:`MaterializedView` keeps the least fixpoint *live*: inserting a
fact (or a new entity/interval object) seeds the semi-naive delta with
just that fact and propagates — for **monotone** programs (no negation)
insertion-only maintenance is sound and produces the same fixpoint a
from-scratch evaluation would (property-tested).

Limitations, stated plainly:

* insertions only — deletions would need DRed-style over-deletion and
  re-derivation, which this engine does not implement; a view fed by
  :class:`vidb.stream.ViewRegistry` falls back to :meth:`refresh` (a
  from-scratch rebuild) when a committed delta removes or rewrites
  state, so correctness is preserved at the cost of incrementality;
* positive programs only — a stratified program with negation must be
  re-evaluated (the view refuses to build otherwise);
* no EDB copy: a view reads the database's relations and object map in
  place and owns only its derived relations.  A fed view (inserts made
  inside :meth:`feeding`, after the database stored the row) reads the
  live store, so an insert only seeds the semi-naive delta.  A direct
  insert on a standalone view copies the relation it touches on first
  write, so later database writes to it stay invisible; a row the
  database already holds counts as known outside :meth:`feeding`.  ⊕
  heads copy ``interval`` / ``anyobject`` and the object map, and fed
  rows are added to those copies too;
* out-of-band writes: when the view is registered with a
  :class:`vidb.stream.ViewRegistry`, the registry **seals** it — the
  registry feeds it committed deltas from the mutation-observer stream,
  direct ``insert_*`` calls raise :class:`~vidb.errors.EvaluationError`
  (diagnostic ``VDB050``), and writes the observer never saw are
  detected by epoch checksum (``VDB051``) instead of silently
  diverging.

Usage::

    view = MaterializedView(db, parse_program(RULES))
    view.relation("contains")            # saturated now
    view.insert_interval(new_interval)   # propagates incrementally
    view.insert_fact("in", o1, o4, gi3)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from vidb.constraints.kernel import KernelSpec
from vidb.errors import EvaluationError
from vidb.model.objects import (
    EntityObject,
    GeneralizedIntervalObject,
    VideoObject,
)
from vidb.model.oid import Oid
from vidb.model.relations import FactArg
from vidb.query.ast import Program, Symbol
from vidb.query.fixpoint import (
    EvaluationContext,
    FixpointResult,
    GroundTuple,
    Relation,
    RulePlan,
    delta_round,
    evaluate,
    rule_labels,
)
from vidb.storage.database import VideoDatabase, classes_of


class MaterializedView:
    """A saturated program kept up to date under fact insertion."""

    def __init__(self, db: VideoDatabase, program: Program,
                 computed=None, max_objects: int = 50_000,
                 kernel: KernelSpec = None,
                 labels: Optional[Dict[int, str]] = None,
                 guarded: Iterable[int] = ()):
        for rule in program:
            if rule.negated_literals():
                raise EvaluationError(
                    "incremental maintenance supports positive programs "
                    f"only; rule {rule!r} uses negation"
                )
        self.program = program
        self._db = db
        self._computed = computed
        self._max_objects = max_objects
        self._kernel = kernel
        #: Statistics labels and demand-guarded rules, as ``evaluate``
        #: takes them; the maintenance plans are labelled the same way.
        self._labels = labels if labels is not None else rule_labels(program)
        self._guarded = frozenset(guarded)
        self._plans: List[RulePlan] = [RulePlan.compile(r) for r in program]
        for plan in self._plans:
            plan.label = self._labels[id(plan.rule)]
        #: The oids a symbol in a rule head resolves to once the object
        #: exists.  A fact derived before then holds the bare name, so a
        #: fed delta adding one rebuilds the view (``apply_delta``).
        self.symbol_oids = frozenset(
            oid(arg.name) for rule in program for arg in rule.head.args
            if isinstance(arg, Symbol) for oid in (Oid.entity, Oid.interval))
        self.inserted_facts = 0
        self.propagated_facts = 0
        self.rebuilds = 0
        #: When set (by :meth:`seal`), direct insert calls raise unless
        #: the owner is feeding (see :meth:`feeding`) — the view's
        #: content is then maintained exclusively from the mutation
        #: observer stream and an out-of-band write would diverge it.
        self._sealed_by: Optional[str] = None
        self._feeding = False
        #: Derived facts produced by the most recent insert (the seed
        #: facts plus everything propagation fired), keyed by predicate.
        #: Standing queries read their incremental answers from here.
        self.last_delta: Dict[str, Set[GroundTuple]] = {}
        self._build()

    def _build(self) -> None:
        self._result: FixpointResult = evaluate(
            self._db, self.program, mode="seminaive",
            computed=self._computed, max_objects=self._max_objects,
            kernel=self._kernel, labels=self._labels, guarded=self._guarded,
        )
        self._ctx: EvaluationContext = self._result.context
        #: The database epoch the view content corresponds to, advanced
        #: by the feeding registry as it applies committed deltas.
        self.source_epoch = self._db.epoch

    # -- reads ---------------------------------------------------------------
    def relation(self, name: str) -> FrozenSet[GroundTuple]:
        return self._result.relation(name)

    @property
    def context(self) -> EvaluationContext:
        return self._ctx

    @property
    def sealed(self) -> bool:
        return self._sealed_by is not None

    # -- observer-fed lifecycle ----------------------------------------------
    def seal(self, owner: str) -> None:
        """Mark this view as fed exclusively by *owner* (a registry).

        Once sealed, direct ``insert_fact`` / ``insert_object`` calls
        raise :class:`EvaluationError` (``VDB050``) unless made inside
        the owner's :meth:`feeding` window — mixing hand-pushed deltas
        with observer-fed ones would double-count or diverge.
        """
        self._sealed_by = owner

    def unseal(self) -> None:
        self._sealed_by = None

    def feeding(self) -> "_FeedingWindow":
        """Context manager the sealing owner uses to push deltas."""
        return _FeedingWindow(self)

    def refresh(self) -> None:
        """Rebuild the view from the current database state.

        The escape hatch for everything incremental maintenance cannot
        express: deletions, replacements, or out-of-band writes.  The
        result is exactly a from-scratch evaluation.
        """
        self.rebuilds += 1
        self.last_delta = {}
        self._build()

    def rebind(self, db: VideoDatabase) -> None:
        """Rebuild against a different database object (replica resync
        replaced the whole store).  Owner-level: allowed while sealed."""
        self._db = db
        self.refresh()

    def _check_unsealed(self) -> None:
        if self._sealed_by is not None and not self._feeding:
            raise EvaluationError(
                f"VDB050 out-of-band write to observer-fed view: this "
                f"view is maintained by {self._sealed_by!r} from the "
                f"database mutation stream; mutate the database (the "
                f"view updates on commit) instead of calling its insert "
                f"API directly")

    # -- insert API ------------------------------------------------------------
    def insert_fact(self, name: str, *args: FactArg) -> bool:
        """Insert one EDB fact and propagate; returns False if known."""
        self._check_unsealed()
        row = tuple(a.oid if isinstance(a, VideoObject) else a for a in args)
        if not self._add(name, row):
            self.last_delta = {}
            return False
        self.inserted_facts += 1
        self._propagate([(name, row)])
        return True

    def insert_object(self, obj: VideoObject) -> bool:
        """Register a new entity or interval object and propagate the
        class facts it makes true."""
        self._check_unsealed()
        if not isinstance(obj, (EntityObject, GeneralizedIntervalObject)):
            raise EvaluationError(f"cannot insert {obj!r}")
        ctx = self._ctx
        if self._feeding:
            if ctx.extended:
                ctx.objects[obj.oid] = obj
            seed = [(name, (obj.oid,)) for name in classes_of(obj)]
            for name, row in seed:
                self._add(name, row)
        elif obj.oid in ctx.objects:
            self.last_delta = {}
            return False
        else:
            seed = ctx.admit(obj)
        self.inserted_facts += 1
        self._propagate(seed)
        return True

    insert_interval = insert_object
    insert_entity = insert_object

    def _add(self, name: str, row: GroundTuple) -> bool:
        """Add *row* to the view's relation *name*; False when known.

        While fed, the database already holds the row and the view has
        not seen it: it only goes into a relation the view has copied.
        A direct insert copies the database's relation on first write.
        """
        if self._feeding:
            own = self._ctx.relations.get(name)
            if own is not None:
                own.add(row)
            return True
        return self._ctx.writable(name).add(row)

    # -- the delta loop -----------------------------------------------------------
    def _propagate(self, seed: List[Tuple[str, GroundTuple]]) -> None:
        derived: Dict[str, Set[GroundTuple]] = {}
        delta: Dict[str, Relation] = {}
        for name, row in seed:
            delta.setdefault(name, Relation()).add(row)
        while delta:
            for name, rows in delta.items():
                derived.setdefault(name, set()).update(rows.tuples)
            delta = delta_round(self._ctx, self._plans, delta)
            self.propagated_facts += sum(map(len, delta.values()))
        self.last_delta = derived

    def __repr__(self) -> str:
        derived = sum(map(len, self._ctx.relations.values()))
        sealed = f", sealed by {self._sealed_by!r}" if self._sealed_by else ""
        return (f"MaterializedView({len(self.program)} rules, "
                f"{derived} tuples, {self.inserted_facts} inserts{sealed})")


class _FeedingWindow:
    """Reentrancy-safe window during which a sealed view accepts inserts."""

    def __init__(self, view: MaterializedView):
        self._view = view
        self._was_feeding = False

    def __enter__(self) -> MaterializedView:
        self._was_feeding = self._view._feeding
        self._view._feeding = True
        return self._view

    def __exit__(self, *exc_info) -> None:
        self._view._feeding = self._was_feeding
