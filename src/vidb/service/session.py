"""Client sessions and prepared queries.

A :class:`Session` belongs to one client of a
:class:`~vidb.service.executor.ServiceExecutor`.  It offers

* plain evaluation (:meth:`Session.query`) that shares the service's
  result cache, and
* *prepared* queries (:meth:`Session.prepare` / :meth:`Session.execute`):
  the text is parsed and safety-checked **once**; each execution only
  substitutes parameter values into the compiled AST, skipping the
  parser entirely.  The executions differ only in constants, so they
  share one query shape (:mod:`vidb.query.shape`): the engine compiles
  it once and binds each execution's values into it.

Parameters are ordinary query variables named at prepare time::

    session.prepare("appearances",
                    "?- interval(G), object(O), O in G.entities.",
                    params=["O"])
    session.execute("appearances", O="o1")     # binds O to the oid o1

A string value binds as a *symbol* (resolved against the database like a
constant in query text) when it looks like an identifier; wrap it in
double quotes (``'"David"'``) to force a literal string.  Numbers bind
as numeric constants.
"""

from __future__ import annotations

import itertools
import re
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from vidb.errors import QueryError, SessionError, ServiceClosedError
from vidb.model.oid import Oid
from vidb.query.ast import Query, Symbol, Term, Variable, spanned
from vidb.query.parser import parse_query
from vidb.query.safety import check_query
from vidb.query.shape import substitute

_IDENT_RE = re.compile(r"^[a-z][A-Za-z0-9_]*$")
_session_ids = itertools.count(1)


def coerce_param(value: Any) -> Term:
    """A wire/API parameter value as a query term."""
    if isinstance(value, (Variable, Symbol, Oid)):
        return value
    if isinstance(value, bool):
        raise SessionError("boolean parameters are not supported")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            return value[1:-1]
        if _IDENT_RE.match(value):
            return Symbol(value)
        return value
    raise SessionError(f"cannot bind parameter value {value!r}")


class PreparedQuery:
    """A query compiled once, re-executable with different parameters."""

    def __init__(self, name: str, text: str,
                 params: Sequence[str] = ()):
        self.name = name
        self.text = text
        self.query = parse_query(text)
        check_query(self.query)
        free = {v.name for item in self.query.body
                for v in item.variables()}
        self.params: Tuple[str, ...] = tuple(params)
        for param in self.params:
            if param not in free:
                raise SessionError(
                    f"prepared query {name!r} has no variable {param!r} "
                    f"to parameterize (variables: {sorted(free)})")

    @property
    def variables(self) -> Tuple[str, ...]:
        """The answer variables of the unbound query."""
        return tuple(v.name for v in self.query.answer_variables)

    def bind(self, **values: Any) -> Query:
        """The query with parameters substituted (no re-parse).

        Unbound parameters stay free variables; binding a name that was
        not declared as a parameter is an error.
        """
        unknown = set(values) - set(self.params)
        if unknown:
            raise SessionError(
                f"prepared query {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; declared: {list(self.params)}")
        if not values:
            return self.query
        binding = {name: coerce_param(value)
                   for name, value in values.items()}
        try:
            body = [substitute(item, binding) for item in self.query.body]
        except QueryError as exc:
            raise SessionError(str(exc)) from None
        projection = [v for v in self.query.answer_variables
                      if v.name not in binding]
        return spanned(Query(body, projection), self.query.span)

    def __repr__(self) -> str:
        return f"PreparedQuery({self.name!r}, params={list(self.params)})"


class Session:
    """One client's handle on the service: prepared queries + evaluation.

    Sessions are cheap; the heavyweight state (evaluation slots, cache,
    lock) lives in the executor they share.  A session is itself
    thread-safe, though the expected pattern is one session per client
    connection, whose thread runs the session's queries.
    """

    def __init__(self, executor, session_id: Optional[str] = None):
        self.executor = executor
        self.id = session_id or f"s{next(_session_ids)}"
        self._prepared: Dict[str, PreparedQuery] = {}
        self._lock = threading.Lock()
        self._closed = False
        self.queries_run = 0
        #: Ids of standing-query subscriptions this session created;
        #: non-detached ones are closed with the session (prepared
        #: statements and subscriptions share the lifecycle).
        self.subscription_ids: List[str] = []

    # -- prepared queries ---------------------------------------------------
    def prepare(self, name: str, text: str,
                params: Sequence[str] = ()) -> PreparedQuery:
        """Compile *text* once under *name*; re-preparing replaces it."""
        self._check_open()
        prepared = PreparedQuery(name, text, params)
        with self._lock:
            self._prepared[name] = prepared
        return prepared

    def prepared(self, name: str) -> PreparedQuery:
        with self._lock:
            try:
                return self._prepared[name]
            except KeyError:
                raise SessionError(
                    f"session {self.id} has no prepared query {name!r}"
                ) from None

    def execute(self, name: str, timeout: Optional[float] = None,
                **params: Any):
        """Run a prepared query with the given parameter values."""
        self._check_open()
        query = self.prepared(name).bind(**params)
        return self.run(query, timeout=timeout).answers

    # -- ad-hoc queries ------------------------------------------------------
    def query(self, text: Union[str, Query],
              timeout: Optional[float] = None):
        """Evaluate an ad-hoc query through the service."""
        return self.run(text, timeout=timeout).answers

    def run(self, query: Union[str, Query], options=None,
            timeout: Optional[float] = None):
        """Evaluate through the service, returning the full
        :class:`~vidb.query.execution.ExecutionReport`.

        ``options`` is an :class:`~vidb.query.execution.ExecutionOptions`
        (or ``None`` for defaults); the ``timeout`` argument, when given,
        overrides ``options.timeout_s`` — the same spelling the engine,
        executor and CLI use.
        """
        self._check_open()
        report = self.executor.execute_report(query, options=options,
                                              timeout=timeout)
        with self._lock:
            self.queries_run += 1
        return report

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._prepared.clear()
        manager = getattr(self.executor, "subscriptions", None)
        if manager is not None:
            manager.close_session(self.id)
        self.executor._forget_session(self)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(f"session {self.id} is closed")
        return None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"Session({self.id}, {state}, "
                f"{len(self._prepared)} prepared, "
                f"{self.queries_run} queries)")
