"""Demand-driven evaluation between rules: reachability, magic sets and
factoring.

Theorem 3 defines a query's answers as a projection of the least
fixpoint of ``T_P``; it does not say the whole fixpoint must be computed
to read one projection off it.  This module decides which part is:

* :func:`reachable_predicates` / :func:`relevant_rules` — the predicates
  and rules a query can possibly touch.  This is the one definition of
  reachability; the engine, the analyzer and standing queries share it.
* :func:`constructive_closure` — the rules of the ⊕ *overlay*: every
  constructive rule, every other rule of its head predicate, and every
  rule those use.  Its fixpoint is a function of the database epoch, not
  of the query, so the engine evaluates it once per epoch and queries
  read its predicates — and the ``interval`` / ``anyobject`` classes it
  grows — as stored relations.
* :func:`rewrite` — the adorned **magic-set** rewrite.  Each goal
  literal is adorned bound/free per argument (constants and variables
  bound by literals to its left are bound); a predicate demanded under
  an adornment with a bound position gets a copy of its rules guarded
  by a *demand* literal, and demand rules pass the bindings sideways,
  left to right, into the rule bodies.  ``?- reach(e, Y).`` therefore
  derives only the part of ``reach`` that starts at ``e``.  Predicates
  the overlay serves — every predicate with a ``++`` head among them,
  whose created values cannot be demanded — are neither adorned nor
  emitted.
* *Factoring* (Naughton et al., "Argument reduction by factoring",
  VLDB 1989) — a linear recursion (:func:`linear_recursion`, computed
  once per program) demanded with bound and free arguments, whose free
  arguments pass through the recursive literal unchanged, is rewritten
  as a closure over the bound arguments keyed by the demand's seed,
  joined with the exit rules: ``?- reach(X, e).`` derives the ancestors
  of ``e`` once, where magic sets alone would demand ``reach(X, Y)`` for
  each ancestor ``Y``.  The rewrite decides when it pops ``(p,
  adornment)``; whatever does not qualify gets magic sets.  Inline
  (oracle) runs never factor.

The all-free adornment is exactly predicate reachability, and the
rewrite falls back to it — the rules as written, under their own names
— wherever demand could change what a rule sees rather than how much
work it does: predicates reached under negation (the rewritten program
must stay stratified, so the negated side depends on nothing adorned)
and the class predicates ``interval`` / ``object`` / ``anyobject``
(never adorned; the ⊕-created members of ``interval`` / ``anyobject``
come from the overlay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from vidb.query.ast import (
    ANYOBJECT_PRED,
    BodyItem,
    INTERVAL_PRED,
    Literal,
    NegatedLiteral,
    Program,
    Rule,
    Variable,
    term_variables,
)

#: ``order(literals, bound, constraints)`` — the join order sideways
#: information passing follows inside one rule body.
LiteralOrder = Callable[
    [Sequence[Literal], FrozenSet[Variable], Sequence[BodyItem]],
    Sequence[Literal]]


# ---------------------------------------------------------------------------
# Reachability (the all-free case)
# ---------------------------------------------------------------------------

def goal_predicates(body: Iterable[BodyItem]) -> FrozenSet[str]:
    """Predicates a query body mentions (positive and negated)."""
    return frozenset(item.predicate for item in body
                     if isinstance(item, (Literal, NegatedLiteral)))


def _reach(program: Program, goals: Iterable[str],
           stored: FrozenSet[str] = frozenset()
           ) -> Tuple[Set[str], List[bool]]:
    """``(needed predicates, per-rule chosen flag)`` for *goals*.

    A rule participates when its head predicate is (transitively)
    needed, or when it is constructive and the growing ``interval`` /
    ``anyobject`` classes are needed (constructive rules feed those
    classes).  Rules of a *stored* predicate never participate: it is
    read as a relation.
    """
    needed: Set[str] = set(goals)
    rules = program.rules
    chosen = [False] * len(rules)
    changed = True
    while changed:
        changed = False
        for index, rule in enumerate(rules):
            if chosen[index] or rule.head.predicate in stored:
                continue
            feeds_classes = rule.is_constructive and (
                INTERVAL_PRED in needed or ANYOBJECT_PRED in needed)
            if rule.head.predicate in needed or feeds_classes:
                chosen[index] = True
                changed = True
                needed.update(goal_predicates(rule.body))
    return needed, chosen


def reachable_predicates(program: Program,
                         goals: Iterable[str]) -> FrozenSet[str]:
    """Predicates a query over *goals* can possibly touch, the heads of
    the participating rules included."""
    needed, chosen = _reach(program, goals)
    needed.update(rule.head.predicate
                  for rule, keep in zip(program.rules, chosen) if keep)
    return frozenset(needed)


def relevant_rules(program: Program, goals: Iterable[str]) -> Program:
    """The subset of *program* a query over *goals* can possibly use.

    Pruning is an optimisation only: irrelevant rules cannot contribute
    answer tuples, so answers are unchanged — the ablation benchmarks
    measure the saved saturation work.
    """
    _, chosen = _reach(program, goals)
    return Program([rule for rule, keep in zip(program.rules, chosen)
                    if keep])


#: predicate -> ``{program index of each of its rules: the recursive
#: literal of a linear rule, or None for an exit rule}``.
LinearRecursion = Dict[str, Dict[int, Optional[Literal]]]


def linear_recursion(program: Program) -> LinearRecursion:
    """The recursive predicates the rewrite may factor: every rule of
    ``p`` is an *exit* rule (nothing in its body reaches ``p``) or a
    *linear* one (exactly one positive ``p`` literal, and no other body
    predicate reaches ``p``).  A fact of the program alone, so the
    engine computes it once per program version.
    """
    below: Dict[str, Set[str]] = {}
    for rule in program:
        below.setdefault(rule.head.predicate, set()).update(
            goal_predicates(rule.body))
    reaches = {start: _reach(program, goals)[0]
               for start, goals in below.items()}
    result: LinearRecursion = {}
    for predicate in below:
        if predicate not in reaches[predicate]:
            continue  # not recursive
        shapes: Dict[int, Optional[Literal]] = {}
        for index, rule in enumerate(program.rules):
            if rule.head.predicate != predicate:
                continue
            recursive = [item for item in rule.body
                         if isinstance(item, (Literal, NegatedLiteral))
                         and (item.predicate == predicate
                              or predicate in reaches.get(item.predicate, ()))]
            if not recursive:
                shapes[index] = None
            elif (len(recursive) == 1 and isinstance(recursive[0], Literal)
                  and recursive[0].predicate == predicate):
                shapes[index] = recursive[0]
            else:
                break
        else:
            result[predicate] = shapes
    return result


def constructive_closure(program: Program) -> Program:
    """The rules of the ⊕ overlay: the rules relevant to the heads of
    the constructive rules (empty when no rule is constructive).

    Nothing outside the closure feeds it — the classes it reads grow
    only by its own ``++`` heads — so its least fixpoint is that of the
    whole program restricted to its predicates and the classes.
    """
    heads = {rule.head.predicate for rule in program if rule.is_constructive}
    return relevant_rules(program, heads) if heads else Program()


# ---------------------------------------------------------------------------
# The magic-set rewrite
# ---------------------------------------------------------------------------

@dataclass
class Demand:
    """A demand-rewritten program and the way back to its source.

    ``program`` is what the fixpoint evaluates: the query rule last, the
    relevant rules before it, adorned where the query's bindings reach
    them, plus the demand rules that seed and propagate those bindings.
    """

    program: Program
    #: ``id(rule)`` of a rewritten or demand rule -> the rule as written
    #: it came from (statistics and derivations are reported under it).
    source: Dict[int, Rule] = field(default_factory=dict)
    #: ``id(rule)`` of every rule whose first body literal is its demand
    #: guard; the join planner keeps that literal first.
    guarded: Set[int] = field(default_factory=set)
    #: adorned predicate -> ``(source predicate, adornment)``.
    adorned: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: demand predicate -> ``(source predicate, adornment)``.
    demands: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: factored closure predicate -> ``(source predicate, adornment)``.
    factored: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: Predicates evaluated as written although reached, with the reason.
    fallbacks: Dict[str, str] = field(default_factory=dict)
    #: The overlay's predicates (and grown classes) the query reads;
    #: empty when it needs no overlay.
    served: FrozenSet[str] = frozenset()

    def bound(self, program: Program, source: Dict[int, Rule],
              guarded: Set[int]) -> "Demand":
        """This rewrite evaluating *program* instead, with the id-keyed
        tables that follow its rules (the engine binds a query's
        constants into a rewrite of the query's shape)."""
        return Demand(program, source=source, guarded=guarded,
                      adorned=self.adorned, demands=self.demands,
                      factored=self.factored, fallbacks=self.fallbacks,
                      served=self.served)

    def display(self, text: str) -> str:
        """*text* with generated predicate names spelled ``p^bf`` /
        ``demand p^bf`` / ``factor p^bf``; longer names are replaced
        first, so none renders half-substituted."""
        spelled = {}
        for prefix, table in (("", self.adorned), ("demand ", self.demands),
                              ("factor ", self.factored)):
            for name, (predicate, adornment) in table.items():
                spelled[name] = f"{prefix}{predicate}^{adornment}"
        for name in sorted(spelled, key=len, reverse=True):
            text = text.replace(name, spelled[name])
        return text

    def translate_provenance(self, provenance: Dict) -> None:
        """Re-key *provenance* (``fact -> (rule, binding)``) to source
        predicates and source rules, dropping demand facts, so derivation
        trees read as if the program had run as written.  (Runs that
        record provenance are inline, so nothing in them is factored.)"""
        entries = list(provenance.items())
        provenance.clear()
        for (predicate, row), (rule, binding) in entries:
            if predicate in self.demands:
                continue
            if predicate in self.adorned:
                predicate = self.adorned[predicate][0]
            provenance.setdefault(
                (predicate, row), (self.source.get(id(rule), rule), binding))

    def describe(self, overlay: str) -> List[str]:
        """The adornment summary lines of the EXPLAIN ``-- demand --``
        section; *overlay* says where the served predicates came from."""
        lines = []
        if self.adorned:
            lines.append("adorned: " + ", ".join(sorted(
                f"{predicate}^{adornment}"
                for predicate, adornment in self.adorned.values())))
        else:
            lines.append("adorned: (none — every goal is all-free)")
        lines.extend(sorted(f"factored: {predicate}^{adornment}"
                            for predicate, adornment in self.factored.values()))
        for predicate in sorted(self.served):
            lines.append(f"from overlay: {predicate} ({overlay})")
        for predicate, reason in sorted(self.fallbacks.items()):
            lines.append(f"as written: {predicate} ({reason})")
        return lines


def _is_bound(term, bound: Set[Variable]) -> bool:
    return term in bound if isinstance(term, Variable) else True


def _fresh(rule: Rule, count: int) -> List[Variable]:
    """*count* seed-column variables that *rule* does not use."""
    used = {variable.name for variable in rule.variables()}
    names = ["C"] if count == 1 else [f"C{k}" for k in range(1, count + 1)]
    fresh = []
    for name in names:
        while name in used:
            name += "_"
        used.add(name)
        fresh.append(Variable(name))
    return fresh


class _Rewriter:
    def __init__(self, program: Program, query_rule: Rule,
                 taken: Iterable[str], order: Optional[LiteralOrder],
                 stored: FrozenSet[str], inline: bool,
                 linear: LinearRecursion):
        self.order = order
        self.linear = {} if inline else linear
        goals = goal_predicates(query_rule.body)
        needed, chosen = _reach(program, goals, stored)
        self.rules: Dict[str, List[Tuple[int, Rule]]] = {}
        for index, (rule, keep) in enumerate(zip(program.rules, chosen)):
            if keep:
                self.rules.setdefault(rule.head.predicate, []).append(
                    (index, rule))
        self.query_index = len(program.rules)
        self.taken = set(taken) | needed | set(self.rules) | stored
        self.result = Demand(Program())
        if stored:
            self.result.served = frozenset(
                needed & (stored | {INTERVAL_PRED, ANYOBJECT_PRED}))
        self.names: Dict[Tuple[str, str, str], str] = {}
        #: ``(source index, rule)`` in emission order.
        self.emitted: List[Tuple[int, Rule]] = []
        if inline and self.result.served:
            self.emitted = [(index, rule)
                            for index, rule in enumerate(program.rules)
                            if rule.head.predicate in stored]
        self.seen_demand_rules: Set[Rule] = set()
        self.queue: List[Tuple[str, str]] = []
        self.done: Set[Tuple[str, str]] = set()
        self._mark_as_written(query_rule)

    def _mark_as_written(self, query_rule: Rule) -> None:
        """The predicates evaluated under their own names, unadorned:
        everything reached under negation, closed under rule bodies."""
        reasons = self.result.fallbacks
        relevant = [rule for rules in self.rules.values()
                    for _, rule in rules]
        for rule in relevant + [query_rule]:
            for negated in rule.negated_literals():
                if negated.predicate in self.rules:
                    reasons.setdefault(negated.predicate,
                                       "reached under negation")
        frontier = list(reasons)
        while frontier:
            predicate = frontier.pop()
            for _, rule in self.rules[predicate]:
                for below in goal_predicates(rule.body):
                    if below in self.rules and below not in reasons:
                        reasons[below] = f"used by {predicate}"
                        frontier.append(below)

    # -- names ---------------------------------------------------------------
    def _name(self, kind: str, predicate: str, adornment: str) -> str:
        key = (kind, predicate, adornment)
        name = self.names.get(key)
        if name is None:
            name = (f"{predicate}__{adornment}" if kind == "adorned"
                    else f"{kind}__{predicate}__{adornment}")
            while name in self.taken:
                name += "_"
            self.taken.add(name)
            self.names[key] = name
            table = {"adorned": self.result.adorned,
                     "demand": self.result.demands,
                     "factor": self.result.factored}[kind]
            table[name] = (predicate, adornment)
        return name

    # -- one rule ----------------------------------------------------------------
    def _adornment(self, literal: Literal, bound: Set[Variable]) -> str:
        """The adornment *literal* is demanded under, or ``""`` when its
        predicate is not adorned at all (EDB, class, computed, served by
        the overlay, or evaluated as written)."""
        predicate = literal.predicate
        if predicate not in self.rules or predicate in self.result.fallbacks:
            return ""
        return "".join("b" if _is_bound(arg, bound) else "f"
                       for arg in literal.args)

    def _rewrite_rule(self, index: int, rule: Rule, adornment: str) -> None:
        head = rule.head
        guard: Optional[Literal] = None
        if "b" in adornment:
            guard = Literal(
                self._name("demand", head.predicate, adornment),
                [arg for arg, flag in zip(head.args, adornment)
                 if flag == "b"])
            head = Literal(self._name("adorned", head.predicate, adornment),
                           head.args)
        self._emit(index, rule, head, guard, rule.body)

    def _emit(self, index: int, rule: Rule, head: Literal,
              guard: Optional[Literal], body: Sequence[BodyItem]) -> None:
        """Emit ``head :- guard, body`` (reported under *rule*, the rule
        as written it comes from), demanding the IDB literals of *body*
        with the bindings that pass sideways from *guard*."""
        bound: Set[Variable] = set(guard.variables()) if guard else set()
        filters = [item for item in body
                   if not isinstance(item, (Literal, NegatedLiteral))]
        literals: Sequence[Literal] = [item for item in body
                                       if isinstance(item, Literal)]
        if self.order is not None and len(literals) > 1:
            literals = self.order(literals, frozenset(bound), filters)
        prefix: List[BodyItem] = [guard] if guard else []
        renamed: Dict[int, Literal] = {}
        for literal in literals:
            wanted = self._adornment(literal, bound)
            if wanted:
                if (literal.predicate, wanted) not in self.done:
                    self.done.add((literal.predicate, wanted))
                    self.queue.append((literal.predicate, wanted))
                if "b" in wanted:
                    self._demand_rule(index, rule, literal, wanted, prefix,
                                      [f for f in filters
                                       if f.variables() <= bound], guard)
                    adorned = Literal(
                        self._name("adorned", literal.predicate, wanted),
                        literal.args)
                    renamed[id(literal)] = adorned
                    literal = adorned
            prefix.append(literal)
            bound |= literal.variables()
        if guard is None and not renamed:
            self.emitted.append((index, rule))  # evaluated as written
            return
        body = [renamed.get(id(item), item) for item in body]
        rewritten = Rule(head, ([guard] if guard else []) + body,
                         name=rule.name)
        self.result.source[id(rewritten)] = rule
        if guard is not None:
            self.result.guarded.add(id(rewritten))
        self.emitted.append((index, rewritten))

    def _demand_rule(self, index: int, rule: Rule, literal: Literal,
                     adornment: str, prefix: List[BodyItem],
                     filters: List[BodyItem],
                     guard: Optional[Literal]) -> None:
        """``demand_q(bound args) :- guard, literals to the left, and the
        constraint atoms already ground there.``"""
        head = Literal(
            self._name("demand", literal.predicate, adornment),
            [arg for arg, flag in zip(literal.args, adornment)
             if flag == "b"])
        if head == guard:
            return  # demand_p(X) :- demand_p(X), ... adds nothing
        demand = Rule(head, list(prefix) + filters, name=rule.name)
        if demand in self.seen_demand_rules:
            return
        self.seen_demand_rules.add(demand)
        self.result.source[id(demand)] = rule
        if guard is not None:
            self.result.guarded.add(id(demand))
        self.emitted.append((index, demand))

    # -- factoring -------------------------------------------------------------
    def _factorable(self, predicate: str, adornment: str) -> bool:
        """Whether *predicate* under *adornment* reduces to a closure over
        its bound arguments: it is linear-recursive, and in each linear
        rule the head's free positions hold distinct variables that the
        recursive literal holds at the same positions and nothing else
        mentions, and the recursive literal's bound arguments are bound
        by the head's or by the other positive literals."""
        shapes = self.linear.get(predicate)
        if shapes is None or "b" not in adornment or "f" not in adornment:
            return False
        bound_at = [i for i, flag in enumerate(adornment) if flag == "b"]
        free_at = [i for i, flag in enumerate(adornment) if flag == "f"]
        for index, rule in self.rules[predicate]:
            recursive = shapes[index]
            if recursive is None:
                continue
            passed = [rule.head.args[i] for i in free_at]
            if (any(not isinstance(arg, Variable) or recursive.args[i] != arg
                    for i, arg in zip(free_at, passed))
                    or len(set(passed)) != len(passed)):
                return False
            rest = [item for item in rule.body if item is not recursive]
            head_bound = set().union(
                *(term_variables(rule.head.args[i]) for i in bound_at))
            needs = set().union(
                *(term_variables(recursive.args[i]) for i in bound_at))
            if (head_bound | needs).union(
                    *(item.variables() for item in rest)) & set(passed):
                return False
            if not needs <= head_bound.union(
                    *(item.variables() for item in rest
                      if isinstance(item, Literal))):
                return False
        return True

    def _factor(self, predicate: str, adornment: str) -> None:
        """Emit the seed-tagged closure of *predicate* under *adornment*:
        ``factor(C̄, C̄) :- demand(C̄)``; per linear rule ``p(h̄) :- r,
        rest``, ``factor(C̄, r̄_B) :- factor(C̄, h̄_B), rest``; per exit
        rule, ``p^α(h̄[B := C̄]) :- factor(C̄, h̄_B), body``."""
        factor = self._name("factor", predicate, adornment)
        demand = self._name("demand", predicate, adornment)
        adorned = self._name("adorned", predicate, adornment)
        shapes = self.linear[predicate]

        def bound(args):
            return [arg for arg, flag in zip(args, adornment) if flag == "b"]

        seeded = False
        for index, rule in self.rules[predicate]:
            seed = _fresh(rule, adornment.count("b"))
            recursive = shapes[index]
            guard = Literal(factor, seed + bound(rule.head.args))
            if recursive is None:
                args = iter(seed)
                head = Literal(adorned, [
                    next(args) if flag == "b" else arg
                    for arg, flag in zip(rule.head.args, adornment)])
                self._emit(index, rule, head, guard, rule.body)
                continue
            if not seeded:
                seeded = True
                self._emit(index, rule, Literal(factor, seed + seed),
                           Literal(demand, seed), ())
            head = Literal(factor, seed + bound(recursive.args))
            self._emit(index, rule, head, guard,
                       [item for item in rule.body if item is not recursive])

    # -- driver --------------------------------------------------------------------
    def run(self, query_rule: Rule) -> Demand:
        self._rewrite_rule(self.query_index, query_rule,
                           "f" * query_rule.head.arity)
        while self.queue:
            predicate, adornment = self.queue.pop()
            if self._factorable(predicate, adornment):
                self._factor(predicate, adornment)
                continue
            for index, rule in self.rules[predicate]:
                self._rewrite_rule(index, rule, adornment)
        for predicate in self.result.fallbacks:
            self.emitted.extend(self.rules[predicate])
        self.emitted.sort(key=lambda pair: pair[0])
        self.result.program = Program(rule for _, rule in self.emitted)
        return self.result


def rewrite(program: Program, query_rule: Rule, *,
            taken: Iterable[str] = (),
            order: Optional[LiteralOrder] = None,
            stored: Optional[FrozenSet[str]] = None,
            linear: Optional[LinearRecursion] = None,
            inline: bool = False) -> Demand:
    """The magic-set rewrite of *program* for *query_rule* (the anonymous
    rule whose body is the query).

    *taken* names predicates generated names must avoid (database
    relations, computed predicates); *order* is the join order sideways
    information passing follows inside a body (default: as written).
    *stored* is the overlay's predicates, the heads of
    :func:`constructive_closure`, and *linear* the factoring candidates,
    :func:`linear_recursion` (each computed when not given).  The result
    reads the stored predicates it needs (:attr:`Demand.served`) from
    the overlay and factors what qualifies, unless *inline* puts the
    overlay's rules, as written, into the program instead and factors
    nothing — the oracle runs stay independent of both.
    The rewritten query rule keeps its identity when no goal is adorned,
    and is always the last rule of the result.
    """
    if stored is None:
        stored = constructive_closure(program).idb_predicates()
    if linear is None:
        linear = linear_recursion(program)
    return _Rewriter(program, query_rule, taken, order, stored,
                     inline, linear).run(query_rule)
