"""Workloads exercising the constraint-interaction analyzer.

Hand-verified rule sets separating the termination lattice's levels,
plus ready-made (rules, query, database) workloads that drive the
Section-7 plan kinds of :meth:`repro.api.PreparedQuery.plan`:

* :func:`ja_not_wa` -- jointly acyclic but not weakly acyclic: the
  invention cycle ``s -> r -> t -> s`` is guarded by ``u``, which no
  rule derives, so invented nulls can never re-enter ``s`` (the
  paper's Example 3 shows the same phenomenon in the wild).
* :func:`swa_not_ja` -- super-weakly but not jointly acyclic: the
  invented value flows back *positionally*, but the head constant
  ``"b"`` clashes with the body constant ``"c"``, so the trigger can
  never actually fire; only the unification-aware analysis sees this.
* :func:`lattice_chase_workload` -- Example 2 (whose chain query makes
  every rewriting diverge) unioned with one of the above, so only a
  chase plan answers exactly, and only the JA/SWA lattice members
  admit it.
* :func:`split_workload` -- Example 2 plus an audit/delegate invention
  cycle: not terminating at any lattice level, not FO-rewritable, but
  separable into a chase-safe core {R1, R2, R3} and a rewritable
  residual {R4, R5}.
"""

from __future__ import annotations

from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.lang.queries import ConjunctiveQuery
from repro.lang.tgd import TGD
from repro.workloads.paper import example2


def ja_not_wa() -> tuple[TGD, ...]:
    """Jointly acyclic, not weakly acyclic: a guarded invention cycle."""
    return parse_program(
        """
        C1: s(X) -> r(X, Y).
        C2: r(X, Y) -> t(Y).
        C3: t(X), u(X) -> s(X).
        """
    )


def swa_not_ja() -> tuple[TGD, ...]:
    """Super-weakly but not jointly acyclic: constants block the loop."""
    return parse_program(
        """
        S1: a(X) -> r(X, Y, "b").
        S2: r(X, Y, "c") -> a(Y).
        """
    )


def _renamed_ja_rules() -> tuple[TGD, ...]:
    # ja_not_wa over fresh relation names, so it can be unioned with
    # Example 2 without capturing its relations.
    return parse_program(
        """
        C1: f(X) -> g(X, Y).
        C2: g(X, Y) -> h(Y).
        C3: h(X), e(X) -> f(X).
        """
    )


def _renamed_swa_rules() -> tuple[TGD, ...]:
    return parse_program(
        """
        S1: aa(X) -> rr(X, Y, "b").
        S2: rr(X, Y, "c") -> aa(Y).
        """
    )


def lattice_chase_workload(
    level: str,
) -> tuple[tuple[TGD, ...], ConjunctiveQuery, Database]:
    """A workload only a lattice-admitted chase plan answers exactly.

    *level* is ``"ja"`` or ``"swa"``.  The fragment unions Example 2
    (so the query's rewriting diverges within any budget) with
    a set that breaks weak acyclicity but terminates at the requested
    lattice level; the chase over the union terminates.
    """
    if level == "ja":
        extra = _renamed_ja_rules()
        query = parse_query('q() :- r("a", X), f(Z)')
        data = "t(b, a). r(b, e). f(m). e(m)."
    elif level == "swa":
        extra = _renamed_swa_rules()
        query = parse_query('q() :- r("a", X), aa(Z)')
        data = "t(b, a). r(b, e). aa(m)."
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown lattice level {level!r}")
    return (
        example2() + extra,
        query,
        Database(parse_database(data)),
    )


#: The rules of :func:`split_workload`: Example 2 (diverging rewriting,
#: terminating chase) feeding an audit/delegate invention cycle
#: (diverging chase, terminating rewriting).
SPLIT_RULES_TEXT = """
R1: t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).
R2: s(Y1, Y1, Y2) -> r(Y2, Y3).
R3: r(X, Y) -> audit(Y).
R4: audit(X) -> delegate(X, Y).
R5: delegate(X, Y) -> audit(Y).
"""


def split_workload() -> tuple[tuple[TGD, ...], ConjunctiveQuery, Database]:
    """A workload answerable exactly only by a split plan.

    The full set terminates at no lattice level (R4/R5 feed each other
    fresh nulls) and the query's rewriting diverges through Example
    2's chain, but the set separates into the chase-safe core
    {R1, R2, R3} and the rewritable residual {R4, R5}.
    """
    rules = parse_program(SPLIT_RULES_TEXT)
    # The constant anchor "a" keeps the Example-2 chain from being
    # folded away by UCQ subsumption, so the full-set rewriting diverges;
    # the delegate/audit atoms pull R4 and R5 into the fragment.
    query = parse_query('q(W) :- r("a", X), delegate(W, Z)')
    database = Database(
        parse_database("t(b, a). r(b, e). audit(m). delegate(d, k).")
    )
    return rules, query, database
