"""The constraint kernel: one narrow seam over both constraint theories.

Every decision the engine makes about constraints — satisfiability of a
dense-order formula (Definition 21's condition), entailment for pruning
and ``=>`` atoms, set-order bound propagation — goes through a
:class:`ConstraintKernel`.  The kernel is the *only* seam the algebra
layer above (fixpoint, analyzer, intervals) sees, so backends can swap
freely: the pure-Python reference solver, the interned/bitset backend,
or a future C/numpy accelerated one, without touching a single call
site.

Two backends ship in-tree and register themselves on first use:

``"reference"``
    :class:`~vidb.constraints.reference.ReferenceKernel` — thin calls
    into the original decision procedures in
    :mod:`vidb.constraints.solver` and :mod:`vidb.constraints.setorder`.
    The semantic baseline the property parity suite holds every other
    backend to.

``"interned"`` (the default)
    :class:`~vidb.constraints.interned.InternedKernel` — hash-conses
    constraints into canonical DNF forms so repeated satisfiability or
    entailment checks between the same canonical pair are a dict hit,
    and decides clause satisfiability / set-order closure with
    int-bitmask transitive closure instead of per-edge Python object
    graphs.

Selection: pass ``kernel=`` to :class:`~vidb.query.engine.QueryEngine`
or :class:`~vidb.query.execution.ExecutionOptions`, use
``vidb serve --kernel``, or set the ``VIDB_KERNEL`` environment
variable.  :func:`default_kernel` resolves the process-wide default.
"""

from __future__ import annotations

import os
import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    Optional,
    Tuple,
    Union,
)

from vidb.constraints.dense import Constraint
from vidb.constraints.setorder import SetAtom
from vidb.errors import ConstraintError

#: Environment variable naming the process-wide default backend.
KERNEL_ENV_VAR = "VIDB_KERNEL"

#: The backend used when neither code nor environment chooses one.
DEFAULT_KERNEL_NAME = "interned"


class ConstraintKernel:
    """Abstract decision-procedure backend for both constraint classes.

    Subclasses implement the dense-order operations and the two
    set-order operations.  Kernels must be semantically interchangeable:
    the property parity suite (``tests/property/test_kernel_parity.py``)
    asserts every registered backend agrees with ``"reference"``.

    Kernels may be shared across threads; backends with internal caches
    must keep them safe under concurrent readers (constraints are
    immutable, so caches never need invalidation — only bounding).
    """

    #: Registry name of the backend (shown in ExecutionReport stats,
    #: ``/metrics`` and ``vidb top``).
    name: str = "abstract"

    # -- dense-order operations -------------------------------------------
    def satisfiable(self, constraint: Constraint) -> bool:
        """Is there an assignment making *constraint* true?"""
        raise NotImplementedError

    def entails(self, c1: Constraint, c2: Constraint) -> bool:
        """Does every assignment satisfying *c1* satisfy *c2*?"""
        raise NotImplementedError

    def equivalent(self, c1: Constraint, c2: Constraint) -> bool:
        """Mutual entailment."""
        return self.entails(c1, c2) and self.entails(c2, c1)

    def simplify(self, constraint: Constraint) -> Constraint:
        """A logically equivalent, lighter constraint."""
        raise NotImplementedError

    # -- set-order operations ---------------------------------------------
    def set_satisfiable(self, atoms: Iterable[SetAtom]) -> bool:
        """Satisfiability of a conjunction of set-order atoms."""
        raise NotImplementedError

    def set_entails(self, premise: Iterable[SetAtom],
                    conclusion: Iterable[SetAtom]) -> bool:
        """Conjunction-level set-order entailment."""
        raise NotImplementedError

    # -- observability ------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Cache hit/miss and sizing counters (empty for stateless
        backends).  Keys are stable, dot-separated metric suffixes."""
        return {}

    def reset(self) -> None:
        """Drop caches and counters (safe at any time: constraints are
        immutable, so a cleared cache only costs recomputation)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------------
# Registry and default resolution
# ---------------------------------------------------------------------------

_registry: Dict[str, Callable[[], ConstraintKernel]] = {}
_shared: Dict[str, ConstraintKernel] = {}
_lock = threading.Lock()
_default_override: Optional[str] = None
_builtins_loaded = False


def register_kernel(name: str, factory: Callable[[], ConstraintKernel],
                    *, replace: bool = False) -> None:
    """Register a backend factory under *name*.

    Registering an existing name raises unless ``replace=True`` (the
    shared instance for that name is dropped either way on replace).
    """
    if not name or not isinstance(name, str):
        raise ConstraintError(f"kernel name must be a non-empty string, got {name!r}")
    with _lock:
        if name in _registry and not replace:
            raise ConstraintError(f"constraint kernel {name!r} is already registered")
        _registry[name] = factory
        _shared.pop(name, None)


def _load_builtins() -> None:
    """Import the in-tree backends (they self-register on import)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    import vidb.constraints.interned  # noqa: F401  (registers "interned")
    import vidb.constraints.reference  # noqa: F401  (registers "reference")
    _builtins_loaded = True


def available_kernels() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    _load_builtins()
    with _lock:
        return tuple(sorted(_registry))


def make_kernel(name: str) -> ConstraintKernel:
    """A **fresh** instance of the named backend (cold caches).

    Prefer :func:`get_kernel` for normal use — sharing one instance per
    name is what lets interned forms amortise across queries.
    """
    _load_builtins()
    with _lock:
        factory = _registry.get(name)
    if factory is None:
        raise ConstraintError(
            f"unknown constraint kernel {name!r}; "
            f"available: {', '.join(available_kernels())}")
    return factory()


def get_kernel(name: str) -> ConstraintKernel:
    """The process-wide shared instance of the named backend."""
    _load_builtins()
    with _lock:
        kernel = _shared.get(name)
        if kernel is None:
            factory = _registry.get(name)
            if factory is None:
                raise ConstraintError(
                    f"unknown constraint kernel {name!r}; "
                    f"available: {', '.join(sorted(_registry))}")
            kernel = _shared[name] = factory()
    return kernel


def default_kernel_name() -> str:
    """The name the process-wide default resolves to right now:
    :func:`set_default_kernel` override, else ``$VIDB_KERNEL``, else
    ``"interned"``."""
    if _default_override is not None:
        return _default_override
    return os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL_NAME


def default_kernel() -> ConstraintKernel:
    """The shared instance of the current default backend."""
    return get_kernel(default_kernel_name())


def set_default_kernel(name: Optional[str]) -> Optional[str]:
    """Override the process default (``None`` restores env/built-in
    resolution).  Returns the previous override, for restoring."""
    global _default_override
    if name is not None:
        make_kernel(name)  # validate eagerly; fresh instance is discarded
    previous = _default_override
    _default_override = name
    return previous


KernelSpec = Union[None, str, ConstraintKernel]


def resolve_kernel(spec: KernelSpec) -> ConstraintKernel:
    """Coerce a user-facing kernel spec to an instance.

    ``None`` means the process default; a string is looked up in the
    registry (shared instance); an instance passes through.
    """
    if spec is None:
        return default_kernel()
    if isinstance(spec, ConstraintKernel):
        return spec
    if isinstance(spec, str):
        return get_kernel(spec)
    raise ConstraintError(
        f"kernel must be a name, a ConstraintKernel or None, got {spec!r}")
