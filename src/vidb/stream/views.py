"""Observer-fed materialized views.

A :class:`ViewRegistry` closes ROADMAP item 2's remaining gap: instead
of callers pushing deltas into a :class:`MaterializedView` by hand, the
registry consumes :class:`~vidb.stream.hub.CommittedDelta` batches from
a :class:`~vidb.stream.hub.StreamHub` and feeds every registered view
automatically, at commit granularity:

* a **monotone** delta (pure inserts) is applied incrementally through
  the view's semi-naive insert API — the cheap path;
* a delta containing a deletion/replacement, or adding the object a
  symbol in a rule head names, triggers a from-scratch
  :meth:`MaterializedView.refresh` — sound, not incremental;
* aborted transactions never reach the registry at all (the database
  announces only commits), so a view never observes uncommitted state.

Registered views are **sealed**: direct ``insert_*`` calls raise
``VDB050`` (the registry is the only writer), and the registry verifies
the hub's epoch mirror against the live database at every flush so a
write the observer never saw raises ``VDB051`` instead of silently
diverging.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from vidb.query.ast import Program
from vidb.query.fixpoint import GroundTuple
from vidb.query.incremental import MaterializedView
from vidb.stream.hub import CommittedDelta, StreamHub

#: Derived facts per predicate produced by applying one committed delta.
DerivedDelta = Dict[str, Set[GroundTuple]]


def apply_delta(view: MaterializedView, delta: CommittedDelta,
                ) -> Optional[DerivedDelta]:
    """Feed one committed delta into *view*.

    Returns the union of derived facts (per predicate) the delta
    produced in the view, or ``None`` when the delta was non-monotone,
    or added an object a rule head's symbol names (what the symbol
    resolves to changed), and the view was rebuilt instead (the caller
    cannot attribute derived facts to this delta in that case).
    """
    if not delta.monotone or (view.symbol_oids and any(
            event[0] == "add" and event[1].oid in view.symbol_oids
            for event in delta.events)):
        with view.feeding():
            view.refresh()
        view.source_epoch = delta.epoch
        return None
    derived: DerivedDelta = {}
    with view.feeding():
        for event in delta.events:
            kind = event[0]
            if kind == "add":
                view.insert_object(event[1])
            elif kind == "relate":
                fact = event[1]
                view.insert_fact(fact.name, *fact.args)
            else:  # declare_relation: no facts, nothing to propagate
                continue
            for name, rows in view.last_delta.items():
                derived.setdefault(name, set()).update(rows)
    view.source_epoch = delta.epoch
    return derived


class ViewRegistry:
    """Keeps registered materialized views live from the mutation stream.

    Thread-safety: deltas arrive serialized on the mutating thread (the
    hub contract); ``register`` / ``unregister`` / reads may come from
    any thread and are guarded by the registry lock.  Because the flush
    runs while the mutator still holds the write lock, a reader that
    acquires the service read lock afterwards always sees views at the
    database's current epoch.
    """

    def __init__(self, hub: StreamHub):
        self.hub = hub
        self._lock = threading.RLock()
        self._views: Dict[str, MaterializedView] = {}
        self.deltas_applied = 0
        self.rebuilds = 0
        hub.add_consumer(self._on_delta)

    # -- registration -------------------------------------------------------
    def register(self, name: str, program: Program, *,
                 computed=None, max_objects: int = 50_000,
                 kernel=None) -> MaterializedView:
        """Build a view over *program* and keep it fed from commits.

        The build snapshots the database; the registry verifies the hub
        observed every prior mutation first, so the view starts exactly
        at the hub's epoch and stays in lockstep from then on.
        """
        with self._lock:
            if name in self._views:
                raise ValueError(f"view {name!r} already registered")
            self.hub.check_epoch()
            view = MaterializedView(self.hub.db, program,
                                    computed=computed,
                                    max_objects=max_objects, kernel=kernel)
            view.seal(f"ViewRegistry[{name}]")
            self._views[name] = view
            return view

    def adopt(self, name: str, view: MaterializedView) -> MaterializedView:
        """Seal and register an existing view (it must be freshly built
        against the hub's database, at the current epoch)."""
        with self._lock:
            if name in self._views:
                raise ValueError(f"view {name!r} already registered")
            self.hub.check_epoch()
            view.seal(f"ViewRegistry[{name}]")
            self._views[name] = view
            return view

    def unregister(self, name: str) -> Optional[MaterializedView]:
        with self._lock:
            view = self._views.pop(name, None)
            if view is not None:
                view.unseal()
            return view

    def get(self, name: str) -> Optional[MaterializedView]:
        with self._lock:
            return self._views.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._views)

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    # -- the feed ------------------------------------------------------------
    def _on_delta(self, delta: CommittedDelta) -> None:
        with self._lock:
            if not self._views:
                return
            # The out-of-band checksum (satellite guard): if mutations
            # bypassed the observer, feeding this delta would diverge
            # every view — fail loudly instead.
            self.hub.check_epoch()
            self.deltas_applied += 1
            for view in self._views.values():
                if apply_delta(view, delta) is None:
                    self.rebuilds += 1

    def refresh_all(self) -> None:
        """Rebuild every view from scratch against the hub's current
        database (recovery after VDB051, or after a replica resync
        swapped the database object)."""
        with self._lock:
            for view in self._views.values():
                view.rebind(self.hub.db)
                view.source_epoch = self.hub.db.epoch
            self.hub.mirror_epoch = self.hub.db.epoch

    def status(self) -> List[Tuple[str, int, int]]:
        """``(name, source_epoch, rebuilds)`` per registered view."""
        with self._lock:
            return [(name, view.source_epoch, view.rebuilds)
                    for name, view in sorted(self._views.items())]

    def __repr__(self) -> str:
        return (f"ViewRegistry({len(self)} views, "
                f"{self.deltas_applied} deltas, {self.rebuilds} rebuilds)")
