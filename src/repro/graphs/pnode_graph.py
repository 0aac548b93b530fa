"""The P-node graph (Definitions 6–8): reconstruction.

The paper *defines* P-atoms (Definition 6) and P-nodes (Definition 7)
but explicitly omits the full graph construction ("For space reasons,
we do not give the detail of the definition of P-atom graph here"),
citing an unpublished manuscript [12].  This module reconstructs the
construction from the constraints the paper does give:

* nodes are P-nodes ``〈σ, Σ〉``: a canonical *P-atom* σ plus its
  *context* Σ, "the set of atoms that appear together with such atoms
  as a result of the application of a TGD" (Section 6);
* the special variable ``z`` "mark[s] the introduction of an
  existential variable in a step of the rewriting" and is "used in the
  same way in which positions of the form r[i] were used in the
  position graph";
* the compatibility condition "requires to check the context of a
  P-atom in order to establish whether such P-atom can unify with the
  head of a rule";
* edges carry four labels: ``s`` (splitting), ``m`` (missing), ``d``
  (decreasing bounded arguments), ``i`` (isolated body atom);
* Definition 8: P is WR iff no cycle contains a ``d``-edge, an
  ``m``-edge and an ``s``-edge while containing no ``i``-edge.

Reconstruction choices (each validated against the paper's examples in
the test suite and EXPERIMENTS.md):

1. **Roots.**  One generic node per head atom: ``σ = r(x1,...,xn)``
   with all-distinct canonical variables and context ``{σ}`` -- the
   refinement of the position graph's root ``r[ ]``.
2. **Compatibility.**  σ unifies position-wise with a head atom α.
   The induced term classes must satisfy: no two distinct constants;
   a class containing ``z`` contains no constant and no existential
   head variable (the trace must continue through the frontier, as
   Definition 3(ii) required ``α[i]`` distinguished); a class
   containing an existential head variable contains no constant, no
   frontier variable and no second existential variable; and -- the
   context check -- if it contains a σ-variable *shared* with other
   context atoms, each such context atom must itself be unifiable with
   some head atom of the rule (otherwise the rewriting step is
   inapplicable: aggregation of the piece is impossible).  This last
   clause is what blocks the "only apparent" recursion of Example 3.
   The constant and null conditions are the piece rewriter's own
   (:func:`repro.lang.unify.term_classes` and
   :func:`repro.lang.unify.null_clash`); the ``z`` and context
   conditions are this graph's.
3. **Targets.**  For each body atom β of the rule: a *generic*
   successor (no trace), one successor per existential body variable
   occurring in β (a freshly introduced unknown, marked ``z``), and --
   when σ carries ``z`` -- a *trace-continuation* successor marking
   with ``z`` the β-occurrences of the frontier variables unified with
   ``z``.  Contexts are the whole rule body under the same renaming.
4. **Labels.**  Per body atom β: ``m`` iff some frontier variable of
   the rule is missing from β (as in Definition 4, point 1d); ``d``
   iff β contains an existential body variable (the step strictly
   decreases the number of bounded arguments: a fresh unknown appears
   at an argument position); ``i`` iff β shares no variable with the
   head or the other body atoms (an isolated component).  Per
   expansion, as in Definition 4 points 2–3: ``s`` iff some
   existential body variable occurs in two or more body atoms, or the
   class of frontier variables unified with ``z`` occurs in two or
   more body atoms -- the latter is exactly the repeated-variable
   splitting that the position graph cannot see (Example 2).

Deviation from Definition 6: the canonical pool is allowed to grow to
``{z, x1, ..., xn}`` with *n* the number of distinct variables of a
node (a rule body may hold more distinct variables than the maximum
arity); the construction stays finite since every node is the
canonical image of a rule body under finitely many unifier outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graphs.cycles import LabeledEdge, LabeledGraph
from repro.lang.atoms import Atom
from repro.lang.errors import ReproError
from repro.lang.terms import Term, Variable
from repro.lang.tgd import TGD
from repro.lang.unify import class_substitution, null_clash, term_classes

MISSING = "m"
SPLITTING = "s"
DECREASING = "d"
ISOLATED = "i"

#: The special trace variable of Definition 6.
Z = Variable("z")

DEFAULT_MAX_NODES = 20_000


class PNodeGraphBudgetExceeded(ReproError):
    """Raised when P-node graph construction exceeds its node budget.

    WR membership is conjectured PSPACE-complete (Section 6); the node
    space is exponential in the worst case, so construction is bounded.
    """


@dataclass(frozen=True)
class PNode:
    """A P-node ``〈σ, Σ〉`` (Definition 7), in canonical form.

    ``atom`` is σ; ``context`` is Σ (which contains σ).  Variables are
    canonically named ``x1, x2, ...`` in order of first occurrence in
    σ and then in the remaining (sorted) context atoms; the trace
    variable ``z`` is preserved.
    """

    atom: Atom
    context: frozenset[Atom]

    def __post_init__(self) -> None:
        if self.atom not in self.context:
            raise ValueError(f"σ {self.atom} must belong to its context")

    def shared_variables(self) -> frozenset[Variable]:
        """Variables of σ also occurring in another context atom."""
        shared: set[Variable] = set()
        mine = set(self.atom.variables())
        for other in self.context:
            if other == self.atom:
                continue
            shared.update(mine & set(other.variables()))
        return frozenset(shared)

    def traced(self) -> bool:
        """True iff σ carries the trace variable ``z``."""
        return Z in self.atom.variables()

    def sort_key(self) -> tuple:
        return (
            self.atom.sort_key(),
            tuple(sorted(a.sort_key() for a in self.context)),
        )

    def __str__(self) -> str:
        if len(self.context) == 1:
            return str(self.atom)
        others = ", ".join(
            str(a) for a in sorted(self.context - {self.atom})
        )
        return f"⟨{self.atom} | {others}⟩"


@dataclass(frozen=True)
class PNodeGraph:
    """The computed P-node graph together with its input rules."""

    rules: tuple[TGD, ...]
    graph: LabeledGraph

    @property
    def pnodes(self) -> tuple[PNode, ...]:
        """All nodes, in construction order."""
        return tuple(self.graph.nodes)  # type: ignore[return-value]

    @property
    def edges(self) -> tuple[LabeledEdge, ...]:
        """All labeled edges, in construction order."""
        return self.graph.edges

    def dangerous_cycle(self) -> tuple[LabeledEdge, ...] | None:
        """A cycle with ``d``, ``m`` and ``s`` edges and no ``i``-edge.

        Definition 8 forbids exactly these cycles.
        """
        return self.graph.find_labeled_cycle(
            (DECREASING, MISSING, SPLITTING), forbidden=(ISOLATED,)
        )

    def summary(self) -> str:
        """Human-readable node/edge listing (stable order)."""
        lines = [f"nodes ({len(self.graph)}):"]
        lines.extend(
            f"  {node}"
            for node in sorted(self.pnodes, key=lambda n: n.sort_key())
        )
        lines.append(f"edges ({len(self.edges)}):")
        lines.extend(
            f"  {edge}"
            for edge in sorted(
                self.edges,
                key=lambda e: (e.source.sort_key(), e.target.sort_key()),
            )
        )
        return "\n".join(lines)


def build_pnode_graph(
    rules: Sequence[TGD],
    max_nodes: int = DEFAULT_MAX_NODES,
    context_check: bool = True,
) -> PNodeGraph:
    """Construct the P-node graph of *rules* (worklist closure).

    *context_check* enables the "involved" compatibility condition of
    Section 6 (a σ-variable unified with an invented null must have
    all its context atoms consumable by the same step).  Disabling it
    exists only for the ablation bench: without the check the graph
    over-approximates rewriting steps that can never fire, and the
    paper's Example 3 is wrongly rejected.
    """
    rules = tuple(rules)
    graph = LabeledGraph()
    worklist: list[PNode] = []

    def discover(node: PNode) -> None:
        if graph.add_node(node):
            if len(graph) > max_nodes:
                raise PNodeGraphBudgetExceeded(
                    f"P-node graph exceeded {max_nodes} nodes"
                )
            worklist.append(node)

    for rule in rules:
        head_context = [
            Atom(a.relation, [Variable(f"h{i}_{j}") for j in range(a.arity)])
            for i, a in enumerate(rule.head)
        ]
        for root_atom in head_context:
            discover(_canonical_node(root_atom, head_context))

    while worklist:
        node = worklist.pop(0)
        for rule in rules:
            for head_index in range(len(rule.head)):
                _expand(node, rule, head_index, graph, discover, context_check)

    return PNodeGraph(rules=rules, graph=graph)


# --------------------------------------------------------------------- #
# Canonicalization                                                       #
# --------------------------------------------------------------------- #


def _canonical_node(sigma: Atom, context: Sequence[Atom]) -> PNode:
    """Rename (σ, Σ) to canonical variables ``x1, x2, ...`` keeping z."""
    order: dict[Variable, Variable] = {}

    def rename(term: Term) -> Term:
        if not isinstance(term, Variable) or term == Z:
            return term
        fresh = order.get(term)
        if fresh is None:
            fresh = Variable(f"x{len(order) + 1}")
            order[term] = fresh
        return fresh

    new_sigma = Atom(sigma.relation, [rename(t) for t in sigma.terms])

    def shape_key(atom: Atom) -> tuple:
        # Rename-insensitive ordering so logically equal nodes reach
        # the same canonical form regardless of pre-canonical names.
        first_seen: dict[Variable, int] = {}
        cells: list[tuple] = []
        for term in atom.terms:
            if isinstance(term, Variable) and term != Z:
                first_seen.setdefault(term, len(first_seen))
                cells.append(("v", first_seen[term]))
            elif term == Z:
                cells.append(("z",))
            else:
                cells.append(("c", str(term)))
        return (atom.relation, tuple(cells), atom.sort_key())

    rest = sorted((a for a in context if a is not sigma), key=shape_key)
    new_context = [new_sigma]
    for atom in rest:
        new_context.append(Atom(atom.relation, [rename(t) for t in atom.terms]))
    return PNode(atom=new_sigma, context=frozenset(new_context))


# --------------------------------------------------------------------- #
# Expansion                                                              #
# --------------------------------------------------------------------- #


def _expand(
    node: PNode,
    rule: TGD,
    head_index: int,
    graph,
    discover,
    context_check: bool = True,
) -> None:
    """Add the successors of *node* via one head atom of *rule*."""
    fresh = rule.rename_apart(
        set(node.atom.variables())
        | {v for a in node.context for v in a.variables()}
        | {Z}
    )
    head = fresh.head[head_index]
    sigma = node.atom
    if sigma.relation != head.relation or sigma.arity != head.arity:
        return

    classes = term_classes(zip(sigma.terms, head.terms))
    if classes is None:
        return

    existential_head = set(fresh.existential_head_variables())
    frontier = set(fresh.distinguished_variables())
    shared = node.shared_variables()
    head_atoms = fresh.head

    traced_frontier: set[Variable] = set()
    for group in classes:
        if null_clash(group, existential_head, frontier):
            return
        if Z in group:
            # The trace must continue through the frontier
            # (Definition 3(ii) lifted to atoms).
            if any(
                not isinstance(t, Variable) or t in existential_head
                for t in group
            ):
                return
            traced_frontier.update(t for t in group if t in frontier)
        if context_check and existential_head.intersection(group):
            # Context check: σ-variables unified with an invented null
            # must be consumable by the same rewriting step, i.e. every
            # context atom they appear in must unify with some head atom.
            for term in group:
                if (
                    term != Z
                    and term in shared
                    and not _context_consumable(node, term, head_atoms)
                ):
                    return

    # Build the frontier renaming: one canonical value per class.  z is
    # never the representative: generic successors drop the trace, so
    # traced positions must rename to a plain variable; (c)-successors
    # re-mark them explicitly.
    image = class_substitution(classes, avoid={Z}).apply_term

    existential_body = set(fresh.existential_body_variables())

    # Expansion-wide s-label (Definition 4, points 2-3, lifted).
    split = any(
        _occurrence_atoms(fresh, var) >= 2 for var in existential_body
    )
    if traced_frontier:
        trace_atoms = sum(
            1
            for beta in fresh.body
            if traced_frontier & set(beta.variables())
        )
        if trace_atoms >= 2:
            split = True

    edges: list[tuple[PNode, set[str]]] = []
    for beta in fresh.body:
        beta_vars = set(beta.variables())
        labels: set[str] = set()
        if not frontier <= beta_vars:
            labels.add(MISSING)
        if beta_vars & existential_body:
            labels.add(DECREASING)
        if _is_isolated(beta, fresh):
            labels.add(ISOLATED)

        context_atoms = [
            Atom(b.relation, [image(t) for t in b.terms]) for b in fresh.body
        ]
        beta_position = list(fresh.body).index(beta)

        # (a) generic successor: no trace.
        edges.append(
            (_target_node(context_atoms, beta_position, trace=None), labels)
        )

        # (b) one traced successor per existential body variable in β.
        for var in beta.variables():
            if var in existential_body:
                edges.append(
                    (
                        _target_node(
                            context_atoms, beta_position, trace={var}
                        ),
                        labels,
                    )
                )

        # (c) trace continuation through the frontier: mark (the images
        # of) the frontier variables that were unified with z.
        if traced_frontier:
            traced_images = {
                img
                for img in (image(v) for v in traced_frontier)
                if isinstance(img, Variable)
            }
            beta_image = context_atoms[beta_position]
            traced_here = traced_images & set(beta_image.variables())
            if traced_here:
                edges.append(
                    (
                        _target_node(
                            context_atoms, beta_position, trace=traced_here
                        ),
                        labels,
                    )
                )

    provenance = (rule.label or str(rule),)
    for target, labels in edges:
        if split:
            labels = labels | {SPLITTING}
        discover(target)
        graph.add_edge(node, target, labels, rules=provenance)


def _target_node(
    context_atoms: Sequence[Atom],
    beta_position: int,
    trace: set[Variable] | None,
) -> PNode:
    """Canonical successor node, optionally marking *trace* vars as z.

    *trace* is expressed over the variables actually occurring in
    *context_atoms* (post-substitution images): existential body
    variables are untouched by the head unification, and trace
    continuations pass the image of each traced frontier variable.
    """
    if trace:
        traced_names = {v.name for v in trace}

        def mark(term: Term) -> Term:
            if isinstance(term, Variable) and term.name in traced_names:
                return Z
            return term

        marked = [
            Atom(a.relation, [mark(t) for t in a.terms])
            for a in context_atoms
        ]
    else:
        marked = list(context_atoms)
    return _canonical_node(marked[beta_position], marked)


def _context_consumable(
    node: PNode, variable: Variable, head_atoms: Sequence[Atom]
) -> bool:
    """Can every context atom holding *variable* join the piece?

    A context atom can join only if some head atom shares its relation
    and arity (a necessary condition for unification); otherwise the
    rewriting step that this edge would represent is inapplicable.
    """
    for atom in node.context:
        if atom == node.atom or variable not in atom.variables():
            continue
        if not any(
            h.relation == atom.relation and h.arity == atom.arity
            for h in head_atoms
        ):
            return False
    return True


def _is_isolated(beta: Atom, rule: TGD) -> bool:
    """True iff β shares no variable with the head or other body atoms."""
    mine = set(beta.variables())
    if not mine:
        return True
    others: set[Variable] = set()
    for atom in rule.body:
        if atom is not beta:
            others.update(atom.variables())
    for atom in rule.head:
        others.update(atom.variables())
    return not (mine & others)


def _occurrence_atoms(rule: TGD, var: Variable) -> int:
    """Number of body atoms of the rule in which *var* occurs."""
    return sum(1 for atom in rule.body if var in atom.variables())
