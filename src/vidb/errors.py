"""Exception hierarchy for the :mod:`vidb` package.

Every error raised by vidb derives from :class:`VidbError`, so callers can
catch library failures with a single ``except VidbError`` clause while still
being able to discriminate finer-grained conditions (parse errors, safety
violations, storage conflicts, ...).
"""

from __future__ import annotations


class VidbError(Exception):
    """Base class for all vidb errors."""


class ConstraintError(VidbError):
    """A constraint expression is malformed or uses unsupported operands."""


class DomainError(ConstraintError):
    """A value does not belong to the concrete domain it is used with."""


class IntervalError(VidbError):
    """An interval or generalized interval is malformed (e.g. lo > hi)."""


class ModelError(VidbError):
    """A video-object, oid, value or relation fact violates the data model."""


class DuplicateOidError(ModelError):
    """An object with the same oid is already registered."""


class UnknownOidError(ModelError):
    """An oid was referenced but no object with that oid exists."""


class StorageError(VidbError):
    """Generic storage-layer failure."""


class TransactionError(StorageError):
    """A transaction was used incorrectly (e.g. commit after rollback)."""


class PersistenceError(StorageError):
    """A database snapshot could not be encoded or decoded."""


class DurabilityError(StorageError):
    """Base class for write-ahead-log / snapshot / recovery failures."""


class WalCorruptionError(DurabilityError):
    """A WAL frame in the *middle* of the log failed its CRC check.

    A torn (incomplete) *final* frame is expected after a crash and is
    tolerated by recovery; a bad frame with valid data after it means
    the log itself is damaged and replaying past it would load
    silently-wrong state.
    """


class SnapshotError(DurabilityError):
    """A durability snapshot file is missing, unreadable or malformed."""


class RecoveryError(DurabilityError):
    """Crash recovery could not reconstruct a consistent database."""


class ReplicationError(DurabilityError):
    """A log-shipping replica could not follow its primary."""


class FencedError(DurabilityError):
    """The data directory was fenced by a promotion.

    A newer primary generation exists; this directory must never accept
    writes again (it may be recovered read-only, or its host may rejoin
    the cluster as a replica of the new primary).
    """


class ServiceError(VidbError):
    """Base class for query-serving (``vidb.service``) failures."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a query: too many in-flight requests.

    Raised *fast* at submission time, never after queueing, so clients
    can shed load or retry with backoff.
    """


class QueryTimeoutError(ServiceError):
    """A query missed its deadline before (or while) being evaluated."""


class ServiceClosedError(ServiceError):
    """The executor/session was shut down and cannot accept work."""


class SessionError(ServiceError):
    """A client session was misused (unknown prepared query, bad bind...)."""


class ProtocolError(ServiceError):
    """A malformed request or response on the JSON-lines wire protocol."""


class StandingQueryError(SessionError):
    """A standing query was rejected by subscribe-time analysis.

    Carries the located diagnostics (``VDB06x`` streaming-safety errors
    and any other error-severity findings) so the server can return them
    over the wire with spans instead of a bare message.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class ReadOnlyError(ServiceError):
    """A mutation was sent to a read-only server (a serving replica).

    Writes belong on the primary; the cluster router forwards them
    there automatically.
    """


class ReplicaLagError(ServiceError):
    """An LSN-token read timed out waiting for replication.

    The replica's applied LSN did not reach the client's session token
    within the bounded wait; the caller (typically the cluster router)
    should redirect the read to the primary.
    """


class ClusterError(ServiceError):
    """A cluster-layer failure (routing, promotion, topology)."""


class QueryError(VidbError):
    """Base class for query-language errors."""


class ParseError(QueryError):
    """The textual rule/query syntax is invalid.

    Attributes
    ----------
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SafetyError(QueryError):
    """A rule violates a static safety condition.

    The paper requires rules to be *range-restricted* (Definition 11): every
    variable of a rule must occur in a positive body literal.  It also
    restricts constructive ``++`` terms to rule heads.

    Attributes
    ----------
    kind:
        Machine-readable failure class: ``"range"``, ``"redefine"``,
        ``"arity"``, ``"constructive"`` or ``"stratify"`` (``None`` for
        ad-hoc failures).
    rule_index, rule_name, predicate:
        Position of the offending rule in its program (0-based), the
        rule's optional name, and the predicate involved — attached so
        failures are actionable without a debugger.
    """

    def __init__(self, message: str, *, kind: "str | None" = None,
                 rule_index: "int | None" = None,
                 rule_name: "str | None" = None,
                 predicate: "str | None" = None):
        where = []
        if predicate is not None:
            where.append(f"predicate {predicate!r}")
        if rule_name is not None:
            where.append(f"rule {rule_name!r}")
        elif rule_index is not None:
            where.append(f"rule #{rule_index}")
        if where:
            message = f"{message} [{', '.join(where)}]"
        super().__init__(message)
        self.kind = kind
        self.rule_index = rule_index
        self.rule_name = rule_name
        self.predicate = predicate


class EvaluationError(QueryError):
    """A runtime failure during bottom-up evaluation."""


class UnknownPredicateError(EvaluationError):
    """A body literal refers to a predicate that is neither EDB nor IDB."""


class ObjectBudgetError(EvaluationError):
    """A ``++`` head would grow the extended active domain past its
    object budget (``max_objects``).

    Attributes
    ----------
    rule:
        The label of the constructive rule whose head fired.
    left, right:
        The operand oids of the ⊕ it was about to create.
    budget:
        The object budget.
    """

    def __init__(self, rule: str, left, right, budget: int):
        super().__init__(
            f"rule {rule!r}: {left} ++ {right} would exceed the object "
            f"budget of {budget}; constructive rules are diverging or "
            "max_objects is too small")
        self.rule = rule
        self.left = left
        self.right = right
        self.budget = budget
