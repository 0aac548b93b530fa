"""Tests for repro.rewriting.datalog_target (nonrecursive-Datalog target)."""

import itertools

import repro.chase.chase
import repro.data.datalog
import repro.data.saturate
import repro.hybrid.maintain
from repro.api import Session
from repro.data.database import Database
from repro.data.datalog import DatalogProgram
from repro.data.evaluation import evaluate_ucq
from repro.lang.atoms import Atom
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.lang.terms import Constant
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.datalog_target import rewrite_datalog
from repro.rewriting.rewriter import rewrite

HIERARCHY = parse_program(
    """
    R1: a1(X) -> c1(X).
    R2: a2(X) -> c1(X).
    R3: b1(X) -> c2(X).
    R4: b2(X) -> c2(X).
    """
)


def hierarchy_db() -> Database:
    c = Constant
    return Database(
        [
            Atom("a1", (c("u"),)),
            Atom("b2", (c("u"),)),
            Atom("a2", (c("v"),)),
            Atom("b1", (c("w"),)),
            Atom("c1", (c("d"),)),
            Atom("c2", (c("d"),)),
        ]
    )


class TestFactorization:
    def test_shared_aux_predicates_and_polynomial_size(self):
        query = parse_query("q(X) :- c1(X), c2(X)")
        ucq = rewrite(query, HIERARCHY)
        datalog = rewrite_datalog(query, HIERARCHY)
        # UCQ distributes the 3 choices per atom: 3 * 3 = 9 disjuncts;
        # the program pays per atom: 2 aux * 3 rules + 1 goal rule.
        assert ucq.size == 9
        assert datalog.size == 7
        assert len(datalog.predicates) == 2
        assert datalog.fallback_disjuncts == 0
        assert datalog.complete

    def test_answers_match_ucq_rewriting(self):
        query = parse_query("q(X) :- c1(X), c2(X)")
        database = hierarchy_db()
        via_ucq = evaluate_ucq(rewrite(query, HIERARCHY).ucq, database)
        via_datalog = rewrite_datalog(query, HIERARCHY).answer(database)
        assert via_datalog == via_ucq
        assert via_datalog == frozenset(
            {(Constant("u"),), (Constant("d"),)}
        )

    def test_pattern_shared_across_disjuncts(self):
        # Both disjuncts mention c1(X): one pattern, one aux predicate.
        query_a = parse_query("q(X) :- c1(X)")
        query_b = parse_query("q(X) :- c1(X), c2(X)")
        from repro.lang.queries import UnionOfConjunctiveQueries

        ucq = UnionOfConjunctiveQueries([query_a, query_b])
        datalog = rewrite_datalog(ucq, HIERARCHY)
        assert len(datalog.predicates) == 2
        assert len(datalog.goal_rules) == 2

    def test_boolean_query(self):
        query = parse_query("q() :- c1(X)")
        datalog = rewrite_datalog(query, HIERARCHY)
        assert datalog.arity == 0
        assert datalog.answer(hierarchy_db()) == frozenset({()})
        assert datalog.answer(Database([])) == frozenset()

    def test_constants_in_query(self):
        query = parse_query('q(X) :- c1(X), c2("d")')
        datalog = rewrite_datalog(query, HIERARCHY)
        database = hierarchy_db()
        via_ucq = evaluate_ucq(rewrite(query, HIERARCHY).ucq, database)
        assert datalog.answer(database) == via_ucq


class TestNLEFallback:
    RULES = parse_program(
        """
        R1: p(X) -> r(X, Y).
        R2: t(X) -> s(X).
        """
    )

    def test_join_existential_falls_back(self):
        # Y joins r and s: factorizing per atom would be unsound
        # (it loses the shared witness), so the disjunct takes the
        # full-UCQ fallback path.
        query = parse_query("q(X) :- r(X, Y), s(Y)")
        datalog = rewrite_datalog(query, self.RULES)
        assert datalog.fallback_disjuncts == 1
        database = Database(
            [
                Atom("p", (Constant("a"),)),
                Atom("r", (Constant("b"), Constant("c"))),
                Atom("t", (Constant("c"),)),
            ]
        )
        via_ucq = evaluate_ucq(rewrite(query, self.RULES).ucq, database)
        assert datalog.answer(database) == via_ucq

    def test_atom_local_existential_is_factorized(self):
        # Y occurs in one atom only: no NLE variable, no fallback.
        query = parse_query("q(X) :- r(X, Y), s(X)")
        datalog = rewrite_datalog(query, self.RULES)
        assert datalog.fallback_disjuncts == 0


class TestDeterminism:
    def test_rule_permutation_stable(self):
        query = parse_query("q(X) :- c1(X), c2(X)")
        reference = str(rewrite_datalog(query, HIERARCHY))
        for permuted in itertools.permutations(HIERARCHY):
            assert str(rewrite_datalog(query, permuted)) == reference

    def test_disjunct_permutation_stable(self):
        from repro.lang.queries import UnionOfConjunctiveQueries

        disjuncts = [
            parse_query("q(X) :- c1(X)"),
            parse_query("q(X) :- c2(X)"),
            parse_query("q(X) :- c1(X), c2(X)"),
        ]
        reference = str(
            rewrite_datalog(
                UnionOfConjunctiveQueries(disjuncts), HIERARCHY
            )
        )
        for permuted in itertools.permutations(disjuncts):
            program = str(
                rewrite_datalog(
                    UnionOfConjunctiveQueries(list(permuted)), HIERARCHY
                )
            )
            assert program == reference

    def test_alpha_renamed_query_stable(self):
        original = parse_query("q(X) :- c1(X), c2(X)")
        renamed = parse_query("q(Z) :- c2(Z), c1(Z)")
        assert str(rewrite_datalog(original, HIERARCHY)) == str(
            rewrite_datalog(renamed, HIERARCHY)
        )


class TestBudgetDegradation:
    DEEP = parse_program(
        """
        R1: d0(X) -> d1(X).
        R2: d1(X) -> d2(X).
        R3: d2(X) -> d3(X).
        R4: d3(X) -> d4(X).
        """
    )

    def test_truncated_subrewriting_is_sound_subset(self):
        query = parse_query("q(X) :- d4(X)")
        tight = RewritingBudget(max_depth=1, max_cqs=100_000)
        datalog = rewrite_datalog(query, self.DEEP, tight)
        assert not datalog.complete
        database = Database(
            [
                Atom("d0", (Constant("deep"),)),
                Atom("d3", (Constant("shallow"),)),
                Atom("d4", (Constant("direct"),)),
            ]
        )
        full = rewrite_datalog(query, self.DEEP).answer(database)
        partial = datalog.answer(database)
        assert partial <= full
        assert (Constant("direct"),) in partial
        assert (Constant("deep"),) not in partial


class TestProgramShape:
    def test_fresh_names_avoid_collisions(self):
        rules = parse_program("aux0(X) -> aux_ans(X). aux_ans(X) -> c1(X).")
        query = parse_query("q(X) :- c1(X)")
        datalog = rewrite_datalog(query, rules)
        taken = {"aux0", "aux_ans", "c1"}
        assert datalog.goal not in taken
        assert not set(datalog.predicates) & taken
        database = Database([Atom("aux0", (Constant("a"),))])
        via_ucq = evaluate_ucq(rewrite(query, rules).ucq, database)
        assert datalog.answer(database) == via_ucq

    def test_data_relations_named_like_the_program_are_hidden(self):
        # The fresh names avoid the rules and the query, not the data:
        # in memory the program's relations hide same-named data, as
        # the CTEs of its SQL hide same-named tables.
        rules = parse_program("R1: student(X) -> person(X).")
        query = parse_query("q(X) :- person(X)")
        data = "student(ann). aux_ans(mallory). aux0(eve)."
        with Session(rules, Database(parse_database(data))) as session:
            program = session.prepare(query, target="datalog").datalog
            assert {program.goal, *program.predicates} == {"aux_ans", "aux0"}
            memory = session.answer(query, target="datalog")
            assert memory == {(Constant("ann"),)}
            assert memory == session.answer(query, backend="sql", target="datalog")
            assert memory == session.answer(query, target="ucq")
        passed = Database(parse_database("student(bo). aux_ans(x). aux0(y)."))
        session = Session(rules)
        assert session.answer(query, passed, target="datalog") == session.answer(
            query, passed, target="ucq"
        )

    def test_base_atoms_exclude_intermediates(self):
        query = parse_query("q(X) :- c1(X), c2(X)")
        datalog = rewrite_datalog(query, HIERARCHY)
        intermediates = set(datalog.predicates) | {datalog.goal}
        for atom in datalog.base_atoms():
            assert atom.relation not in intermediates
        assert {a.relation for a in datalog.base_atoms()} == {
            "a1",
            "a2",
            "b1",
            "b2",
            "c1",
            "c2",
        }

    def test_program_is_stratified_full_tgds(self):
        query = parse_query("q(X) :- c1(X), c2(X)")
        datalog = rewrite_datalog(query, HIERARCHY)
        program = DatalogProgram(datalog.rules)  # raises unless all full
        aux = set(datalog.predicates)
        for rule in datalog.aux_rules:
            assert all(a.relation not in aux for a in rule.body)
        for rule in datalog.goal_rules:
            assert rule.head[0].relation == datalog.goal
        assert program is not None

    def test_str_roundtrips_through_parser(self):
        query = parse_query("q(X) :- c1(X), c2(X)")
        datalog = rewrite_datalog(query, HIERARCHY)
        reparsed = parse_program(str(datalog))
        assert len(reparsed) == datalog.size


class TestOnePass:
    def test_answer_copies_nothing_and_runs_no_fixpoint(self, monkeypatch):
        query = parse_query("q(X) :- c1(X), c2(X)")
        database = hierarchy_db()
        before = database.copy()
        with Session(HIERARCHY, database) as session:
            handle = session.prepare(query, target="datalog")
            expected = session.answer(query, target="ucq")

            def refuse(*args, **kwargs):
                raise AssertionError("no copy and no fixpoint on this path")

            monkeypatch.setattr(Database, "copy", refuse)
            for module in (
                repro.data.saturate,
                repro.data.datalog,
                repro.chase.chase,
                repro.hybrid.maintain,
            ):
                monkeypatch.setattr(module, "saturate", refuse)
            assert handle.answer() == expected
            assert handle.datalog.answer(database) == expected
        assert database == before
