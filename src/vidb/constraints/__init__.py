"""Constraint languages of the video data model.

Two constraint classes, exactly as in the paper:

* **dense linear order inequality constraints** (:mod:`vidb.constraints.dense`,
  solved in :mod:`vidb.constraints.solver`) — used for the temporal extents
  of generalized intervals and for inequality atoms in queries;
* **set-order constraints** (:mod:`vidb.constraints.setorder`) — used for
  membership/subset atoms over set-valued attributes such as
  ``G.entities``.

:mod:`vidb.constraints.domains` supplies the concrete domains
(Definition 1) the constants are drawn from.

Decision procedures are served by a pluggable **constraint kernel**
(:mod:`vidb.constraints.kernel`): get one with :func:`default_kernel`
(or :func:`get_kernel` / :func:`make_kernel` by name) and call
``satisfiable`` / ``entails`` / ``equivalent`` / ``simplify`` /
``set_satisfiable`` / ``set_entails`` on it, one decision per call.
Two backends ship in-tree: ``"reference"`` (the original pure-Python
procedures) and ``"interned"`` (hash-consed canonical forms + bitset
closure, the default).
"""

from vidb.constraints.dense import (
    FALSE,
    TRUE,
    And,
    Comparison,
    Constraint,
    Or,
    conjoin,
    disjoin,
    fold_ground,
    from_dnf,
    interval_constraint,
)
from vidb.constraints.eliminate import eliminate_variable, project
from vidb.constraints.kernel import (
    DEFAULT_KERNEL_NAME,
    KERNEL_ENV_VAR,
    ConstraintKernel,
    KernelSpec,
    available_kernels,
    default_kernel,
    default_kernel_name,
    get_kernel,
    make_kernel,
    register_kernel,
    resolve_kernel,
    set_default_kernel,
)
from vidb.constraints.domains import (
    INTEGERS,
    RATIONALS,
    STRINGS,
    ConcreteDomain,
    Predicate,
    domain_of,
)
from vidb.constraints.setorder import (
    Member,
    SetAtom,
    SetConjunction,
    SetVar,
    SubsetConst,
    SubsetVar,
    SupersetConst,
)
from vidb.constraints.solver import (
    Span,
    clause_satisfiable,
    solution_set_1var,
    spans_subset,
)
from vidb.constraints.terms import Var, is_constant, is_numeric

__all__ = [
    "And",
    "Comparison",
    "ConcreteDomain",
    "Constraint",
    "ConstraintKernel",
    "DEFAULT_KERNEL_NAME",
    "FALSE",
    "KERNEL_ENV_VAR",
    "KernelSpec",
    "INTEGERS",
    "Member",
    "Or",
    "Predicate",
    "RATIONALS",
    "STRINGS",
    "SetAtom",
    "SetConjunction",
    "SetVar",
    "Span",
    "SubsetConst",
    "SubsetVar",
    "SupersetConst",
    "TRUE",
    "Var",
    "available_kernels",
    "clause_satisfiable",
    "conjoin",
    "default_kernel",
    "default_kernel_name",
    "disjoin",
    "domain_of",
    "eliminate_variable",
    "fold_ground",
    "from_dnf",
    "get_kernel",
    "interval_constraint",
    "is_constant",
    "is_numeric",
    "make_kernel",
    "project",
    "register_kernel",
    "resolve_kernel",
    "set_default_kernel",
    "solution_set_1var",
    "spans_subset",
]
