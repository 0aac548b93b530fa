"""Conjunctive-query evaluation over :class:`~repro.data.database.Database`.

Implements ``ans(q, D)`` of Section 3 for CQs and UCQs, and the body
matching of the chase, Datalog and the materialized core, with one
compiled join kernel.

**The plan.**  A conjunction of atoms, plus the variables already bound
when it runs, compiles once per call into a :class:`JoinPlan`: a fixed
join order and, per step, one access path, the equality checks and the
new bindings.

* *Order.*  The greedy rule picks the next atom: most bound argument
  places first (constants and bound variables, each occurrence
  counted), then the smaller relation, then the earlier atom.
* *Access path.*  A step probes the (relation, position) hash index on
  its first bound argument place, or scans the relation when nothing is
  bound.
* *Checks.*  The other bound places must equal their values, and a
  variable repeated inside the atom must see equal values.  A relation
  stored with another arity than its atom matches nothing, so a plan
  with such an atom is empty.

**Slot layout.**  Bindings live in one list of slots.  The pre-bound
variables come first, in the caller's order; then each new variable in
the order the plan binds it, so a step's new variables fill a
contiguous run of slots; then one slot per constant of the body, at the
end of the list.  A step's checks and its probe value are reads from
that list, and its bindings are one slice assignment.  The list is
written in place; a binding dict (``dict(zip(plan.variables, slots))``,
with the keys in binding order) or an answer tuple is built only once
per complete match.

**Why the enumeration is the old matcher's.**  The per-row matcher this
kernel replaced re-ran the greedy rule at every partial binding.  The
rule reads only which variables are bound and the relation sizes (which
no caller changes while a plan runs), and after any partial match the
bound variables are exactly those of the atoms matched so far, so every
partial binding at one depth picks the same atom -- the order is fixed
once per call.  Each step then reads the same candidate rows in the
same order (same index probe, or the same scan), keeps the same ones
and binds the same values, so the plan yields the same homomorphisms
in the same order.

Two answer policies are provided:

* :func:`evaluate_cq` / :func:`evaluate_ucq` return every answer tuple,
  including tuples that mention labeled nulls (useful when querying a
  chase instance as a plain database);
* the ``certain=True`` flag filters tuples mentioning nulls, which is
  the filter used to read certain answers off a chase.

Answers need no more than one witness each: evaluation runs the plan up
to the last step that binds an answer variable, skips a partial match
whose answer is already known, and asks the remaining steps only for
the first completion.  A disjunct with an atom over a relation that
holds no rows has no answer, so it is skipped before its plan compiles;
that holds on any instance, mutated or not.

:func:`evaluate_nonrecursive` answers a nonrecursive Datalog program
with the same kernel: each rule runs once, in dependency order, as the
CQ of each of its head atoms, over a read-only view that lays the
derived relations over the database -- no copy and no fixpoint.
"""

from __future__ import annotations

from collections import ChainMap
from graphlib import CycleError, TopologicalSorter
from operator import itemgetter
from typing import (
    Callable,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Protocol,
    Sequence,
)

from repro import obs
from repro.data.database import Database
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.terms import Null, Term, Variable
from repro.lang.tgd import TGD

Binding = dict[Variable, Term]

#: Reads a tuple of values off a row or off the slots.
Getter = Callable[[Sequence[Term]], tuple[Term, ...]]


class Instance(Protocol):
    """The four reads the join kernel makes of an instance: a
    :class:`Database`, or the view :func:`evaluate_nonrecursive` lays
    over one."""

    @property
    def signature(self) -> Mapping[str, int]: ...

    def count(self, relation: str) -> int: ...

    def rows(self, relation: str) -> Collection[tuple[Term, ...]]: ...

    def lookup(
        self, relation: str, position: int, term: Term
    ) -> Sequence[tuple[Term, ...]]: ...


class _Step(NamedTuple):
    """One atom of a :class:`JoinPlan`, with its access path."""

    relation: str
    #: 1-based index position probed, or 0 for a scan.
    position: int
    #: Slot holding the probed value.
    source: int
    #: Reads the checked places off a row, and their values off the slots.
    check: Getter | None
    expect: Getter | None
    #: Pairs of places that must hold equal values (repeated variables).
    same: tuple[tuple[int, int], ...]
    #: The slots ``[low, high)`` the step binds, from ``bind(row)``.
    low: int
    high: int
    bind: Getter | None


def _getter(indices: Sequence[int]) -> Getter:
    """A function reading the values at *indices* as a tuple."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (index,) = indices
        return lambda values: (values[index],)
    return lambda values: ()


class JoinPlan:
    """A conjunction of atoms compiled against one database.

    *bound* lists the variables whose values the caller supplies in
    :meth:`slots`.  With *anchor*, the atom at that index is the first
    step and reads the rows passed to :meth:`run` instead of the
    database (the semi-naive delta); the greedy rule orders the rest.

    Attributes:
        variables: the variables in slot order (bound ones first).
        steps: the compiled steps, or None when no match can exist.
    """

    __slots__ = ("variables", "steps", "_slot", "_template")

    def __init__(
        self,
        atoms: Sequence[Atom],
        database: Instance,
        bound: Iterable[Variable] = (),
        anchor: int | None = None,
    ):
        slot: dict[Variable, int] = {}
        for var in bound:
            slot.setdefault(var, len(slot))
        constants: dict[Term, int] = {}
        arity = database.signature.get
        empty = False
        steps = []
        anchored = anchor is not None
        for i in _greedy_order(atoms, database, slot, anchor):
            atom = atoms[i]
            empty = empty or arity(atom.relation, atom.arity) != atom.arity
            steps.append(_compile_step(atom, slot, constants, anchored))
            anchored = False
        self.variables: tuple[Variable, ...] = tuple(slot)
        self.steps: tuple[_Step, ...] | None = None if empty else tuple(steps)
        self._slot = slot
        # Constant k sits in slot -(k + 1), at the end of the list.
        self._template: list[Term | None] = [None] * len(slot)
        self._template.extend(reversed(constants))

    def slots(self, values: Iterable[Term] = ()) -> list[Term | None]:
        """A fresh slot list holding *values* for the bound variables."""
        slots = list(self._template)
        for index, value in enumerate(values):
            slots[index] = value
        return slots

    def run(
        self,
        database: Database,
        slots: list,
        rows: Iterable[tuple[Term, ...]] | None = None,
    ) -> Iterator[list]:
        """Yield *slots* once per match, filled in (lazily, in order).

        *rows* feeds an anchored plan's first step.
        """
        if self.steps is None:
            return iter(())
        return _matches(self.steps, database, slots, rows)

    def binding(self, slots: Sequence[Term]) -> Binding:
        """The binding dict of a complete match, keys in binding order."""
        return dict(zip(self.variables, slots))

    def reader(self, terms: Sequence[Term]) -> Getter:
        """Reads *terms* off a slot list as a tuple (constants as
        themselves)."""
        if all(isinstance(t, Variable) for t in terms):
            return _getter([self._slot[t] for t in terms])
        spec = [
            (self._slot[t], t) if isinstance(t, Variable) else (-1, t)
            for t in terms
        ]
        return lambda slots: tuple(
            slots[index] if index >= 0 else term for index, term in spec
        )


def _greedy_order(
    atoms: Sequence[Atom],
    database: Instance,
    bound: Iterable[Variable],
    anchor: int | None,
) -> Sequence[int]:
    """Atom indices in join order: the anchor, then greedily by
    (most bound places, smallest relation, earliest atom)."""
    if len(atoms) < 2:
        return range(len(atoms))
    bound = set(bound)
    remaining = list(range(len(atoms)))
    order: list[int] = []
    if anchor is not None:
        remaining.remove(anchor)
        order.append(anchor)
        bound.update(atoms[anchor].variables())
    sizes = {atom.relation: database.count(atom.relation) for atom in atoms}

    def rank(i: int) -> tuple[int, int, int]:
        places = sum(
            not isinstance(t, Variable) or t in bound for t in atoms[i].terms
        )
        return (-places, sizes[atoms[i].relation], i)

    while remaining:
        best = min(remaining, key=rank)
        remaining.remove(best)
        order.append(best)
        bound.update(atoms[best].variables())
    return order


def _compile_step(
    atom: Atom,
    slot: dict[Variable, int],
    constants: dict[Term, int],
    anchored: bool,
) -> _Step:
    """Compile *atom* given the variables *slot* already binds; assign
    slots to the atom's new variables and to its new constants (both
    in place)."""
    fixed: list[tuple[int, int]] = []  # (place, slot) of bound places
    same: list[tuple[int, int]] = []
    binds: list[int] = []  # places of the new variables, in slot order
    low = len(slot)
    for place, term in enumerate(atom.terms):
        if not isinstance(term, Variable):
            index = constants.setdefault(term, len(constants))
            fixed.append((place, -1 - index))
        elif term not in slot:
            slot[term] = low + len(binds)
            binds.append(place)
        elif slot[term] >= low:
            same.append((binds[slot[term] - low], place))
        else:
            fixed.append((place, slot[term]))
    if anchored:
        checked = fixed
        position = source = 0
    elif fixed:
        (probe, source), checked = fixed[0], fixed[1:]
        position = probe + 1
    else:
        checked = []
        position = source = 0
    return _Step(
        atom.relation,
        position,
        source,
        _getter([p for p, _ in checked]) if checked else None,
        _getter([s for _, s in checked]) if checked else None,
        tuple(same),
        low,
        len(slot),
        _getter(binds) if binds else None,
    )


def _matches(
    steps: Sequence[_Step],
    database: Instance,
    slots: list,
    first_rows: Iterable[tuple[Term, ...]] | None = None,
) -> Iterator[list]:
    """The plan interpreter: depth-first over *steps* without recursion.

    Level ``i`` keeps its candidate iterator and its expected values in
    ``candidates[i]`` / ``expected[i]``; descending opens the next
    level, exhausting a level returns to the one above it.
    """
    depth = len(steps)
    if not depth:
        yield slots
        return
    last = depth - 1
    candidates: list = [None] * depth
    expected: list = [None] * depth
    step = steps[0]
    if first_rows is not None:
        candidates[0] = iter(first_rows)
        expected[0] = step.expect(slots) if step.expect is not None else None
    else:
        candidates[0], expected[0] = _open(step, database, slots)
    level = 0
    while level >= 0:
        _, _, _, check, _, same, low, high, bind = steps[level]
        want = expected[level]
        for row in candidates[level]:
            if check is not None and check(row) != want:
                continue
            if same and any(row[a] != row[b] for a, b in same):
                continue
            if bind is not None:
                slots[low:high] = bind(row)
            if level == last:
                yield slots
                continue
            level += 1
            candidates[level], expected[level] = _open(
                steps[level], database, slots
            )
            break
        else:
            level -= 1


def _open(step: _Step, database: Instance, slots: list):
    """The candidate rows of *step* under *slots*, and its expected values."""
    if step.position:
        rows = database.lookup(step.relation, step.position, slots[step.source])
    else:
        rows = database.rows(step.relation)
    return iter(rows), (step.expect(slots) if step.expect is not None else None)


# --------------------------------------------------------------------- #
# Answers                                                               #
# --------------------------------------------------------------------- #


def evaluate_cq(
    query: ConjunctiveQuery, database: Database, certain: bool = False
) -> frozenset[tuple[Term, ...]]:
    """All answers of *query* over *database*.

    With ``certain=True``, answers containing labeled nulls are
    filtered out (the certain-answer filter over chase instances).
    Boolean queries return ``{()}`` when satisfied and ``frozenset()``
    otherwise.
    """
    answers: set[tuple[Term, ...]] = set()
    _collect(query, database, certain, answers)
    return frozenset(answers)


def evaluate_ucq(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    database: Database,
    certain: bool = False,
) -> frozenset[tuple[Term, ...]]:
    """All answers of a UCQ (union of the disjuncts' answers)."""
    ucq = UnionOfConjunctiveQueries.of(query)
    answers: set[tuple[Term, ...]] = set()
    with obs.span("data.evaluate", disjuncts=len(ucq)) as span:
        for cq in ucq:
            _collect(cq, database, certain, answers)
        span.set(answers=len(answers))
    return frozenset(answers)


def _collect(
    query: ConjunctiveQuery,
    database: Instance,
    certain: bool,
    answers: set[tuple[Term, ...]],
) -> None:
    """Add the answers of *query* missing from *answers* to it.

    The plan runs up to the last step binding an answer variable; the
    remaining steps only need one completion per new answer.  An atom
    over a relation with no rows has no match, so such a query is
    skipped before a plan is compiled.
    """
    if any(database.count(atom.relation) == 0 for atom in query.body):
        return
    plan = JoinPlan(query.body, database)
    if plan.steps is None:
        return
    answer_vars = set(query.answer_variables)
    split = 0
    for number, step in enumerate(plan.steps):
        if any(v in answer_vars for v in plan.variables[step.low:step.high]):
            split = number + 1
    prefix, suffix = plan.steps[:split], plan.steps[split:]
    head = plan.reader(query.answer_terms)
    slots = plan.slots()
    for _ in _matches(prefix, database, slots):
        row = head(slots)
        if row in answers or (certain and Null in map(type, row)):
            continue
        if suffix:
            for _ in _matches(suffix, database, slots):
                break
            else:
                continue
        answers.add(row)


def evaluate_nonrecursive(
    rules: Sequence[TGD], database: Database, goal: str
) -> frozenset[tuple[Term, ...]]:
    """The rows a nonrecursive program of full TGDs derives for *goal*.

    One pass, no fixpoint: each rule runs once, after every rule that
    defines a relation its body reads, and each of its head atoms
    collects the answers of the body as a CQ through :func:`_collect`
    (one plan, one witness per head tuple, the empty-relation skip).
    The head relations are the derived ones.  Each collects into a row
    set of this call, empty before any rule runs, so it hides a base
    relation of the same name; *goal* derives nothing when no rule
    defines it.  Base relations are read from *database* itself, which
    is neither copied nor changed.  Tuples with labeled nulls are kept.

    Raises :class:`ValueError`, naming a cycle's predicates, when the
    program is recursive.
    """
    graph: dict[str, set[str]] = {}
    for rule in rules:
        for head in rule.head:
            graph.setdefault(head.relation, set()).update(
                atom.relation for atom in rule.body
            )
    order = TopologicalSorter(graph).static_order()
    try:
        position = {relation: index for index, relation in enumerate(order)}
    except CycleError as error:
        cycle = " -> ".join(error.args[1])
        raise ValueError(f"recursive program: {cycle}") from None
    derived: dict[str, set[tuple[Term, ...]]] = {r: set() for r in graph}
    arities = {head.relation: head.arity for rule in rules for head in rule.head}
    view = _ProgramView(database, derived, arities)
    # Every head of a rule comes after each relation its body reads,
    # and each rule defining that relation has a head no later: sorted
    # by their earliest heads, the rules run in dependency order.
    for rule in sorted(
        rules, key=lambda rule: min(position[h.relation] for h in rule.head)
    ):
        for head in rule.head:
            query = ConjunctiveQuery(head.terms, rule.body)
            _collect(query, view, False, derived[head.relation])
    return frozenset(derived.get(goal, ()))


class _ProgramView:
    """*base* with the derived relations of one program run laid over
    it, read-only: the :class:`Instance` of
    :func:`evaluate_nonrecursive`.

    A derived relation's rows are the run's own set, complete before
    any rule reads them, and get a (relation, position) index of the
    run on their first probe.  Every other read goes to *base*.
    """

    __slots__ = ("signature", "_base", "_derived", "_indexes")

    def __init__(
        self,
        base: Database,
        derived: dict[str, set[tuple[Term, ...]]],
        arities: dict[str, int],
    ):
        self.signature: Mapping[str, int] = ChainMap(arities, base.signature)
        self._base = base
        self._derived = derived
        self._indexes: dict[
            tuple[str, int], dict[Term, list[tuple[Term, ...]]]
        ] = {}

    def count(self, relation: str) -> int:
        rows = self._derived.get(relation)
        return self._base.count(relation) if rows is None else len(rows)

    def rows(self, relation: str) -> Collection[tuple[Term, ...]]:
        rows = self._derived.get(relation)
        return self._base.rows(relation) if rows is None else rows

    def lookup(
        self, relation: str, position: int, term: Term
    ) -> Sequence[tuple[Term, ...]]:
        rows = self._derived.get(relation)
        if rows is None:
            return self._base.lookup(relation, position, term)
        index = self._indexes.get((relation, position))
        if index is None:
            index = self._indexes[relation, position] = {}
            for row in rows:
                index.setdefault(row[position - 1], []).append(row)
        return index.get(term, ())


def holds(query: ConjunctiveQuery, database: Database) -> bool:
    """True iff the boolean query (or some answer) is satisfied."""
    return find_homomorphism(query.body, database) is not None


# --------------------------------------------------------------------- #
# Homomorphisms                                                         #
# --------------------------------------------------------------------- #


def find_homomorphism(
    atoms: Sequence[Atom],
    database: Database,
    binding: Binding | None = None,
) -> Binding | None:
    """The first homomorphism from *atoms* into *database* extending
    *binding*, or None."""
    return next(all_homomorphisms(atoms, database, binding), None)


def all_homomorphisms(
    atoms: Sequence[Atom],
    database: Database,
    binding: Binding | None = None,
) -> Iterator[Binding]:
    """Every homomorphism from *atoms* into *database* extending
    *binding* (lazily, each a fresh dict holding *binding* too)."""
    binding = binding or {}
    plan = JoinPlan(atoms, database, binding)
    for slots in plan.run(database, plan.slots(binding.values())):
        yield plan.binding(slots)
