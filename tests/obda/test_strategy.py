"""Section 7's decision procedure, answered by ``Session``'s one planner.

Every cell of the procedure -- rewriting when the query-relevant
fragment is SWR/WR or the rewriting completes within budget, the chase
when a termination-lattice member certifies it, SPLIT when a
non-terminating set separates, and approximation otherwise -- is a
plan kind of :meth:`repro.api.PreparedQuery.plan`.  The rewriting cells
run with ``hybrid="off"``, the chase and split cells with
``hybrid="auto"``, all under the procedure's depth cap.
"""

from repro.analysis import TerminationCriterion
from repro.api import EngineOptions, Session
from repro.chase.certain import certain_answers, certain_answers_via_chase
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.rewriting.approx import approximate_answers
from repro.rewriting.budget import RewritingBudget
from repro.workloads.interaction import lattice_chase_workload, split_workload
from repro.workloads.paper import EXAMPLE2_QUERY, example2, example3

#: The procedure's depth caps: the rewriting cells' and the
#: approximation cells'.
PROBE_DEPTH = 10
APPROX_DEPTH = 8

# Example 2 with a rule that breaks weak acyclicity: no lattice level,
# no proper partition, and the chain query's rewriting diverges.
NON_WA_RULES = parse_program(
    """
    t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).
    s(Y1, Y1, Y2) -> r(Y2, Y3).
    r(X, Y) -> t(Y, Z).
    """
)


def db(text):
    return Database(parse_database(text))


def run(query, rules, database, *, hybrid="off", depth=PROBE_DEPTH):
    """Answer on both backends through ``Session``.

    Returns the memory plan, the memory answers, the SQL answers and
    the certificate ``explain()`` names.
    """
    options = EngineOptions(
        hybrid=hybrid, budget=RewritingBudget.shallow(depth)
    )
    with Session(rules, database, options=options) as session:
        prepared = session.prepare(query)
        answers = prepared.answer(require_complete=False)
        sql = prepared.answer(backend="sql", require_complete=False)
        certificate = prepared.explain()["plan"]["certificate"]
        return prepared.plan(), answers, sql, certificate


class TestStrategySelection:
    def test_swr_fragment_uses_rewriting(self, hierarchy_rules):
        plan, answers, _, _ = run(
            parse_query("q(X) :- d(X)"), hierarchy_rules, db("a(v).")
        )
        assert plan.kind == "rewriting"
        assert plan.exact
        assert len(answers) == 1

    def test_wr_fragment_uses_rewriting(self):
        plan, _, _, certificate = run(
            parse_query("q(X, Y) :- r(X, Y)"),
            example3(),
            db("s(a, b, c)."),
        )
        assert plan.kind == "rewriting"
        assert "WR" in certificate

    def test_example2_weakly_acyclic_falls_back_to_chase(self):
        # Example 2 is not WR and its chain query diverges, but the
        # set IS weakly acyclic: the chase gives exact answers.
        database = db("t(b, a). r(b, e).")
        plan, answers, _, _ = run(
            EXAMPLE2_QUERY, example2(), database, hybrid="auto"
        )
        assert plan.kind == "chase"
        assert plan.exact
        assert answers == certain_answers(
            EXAMPLE2_QUERY, example2(), database
        )

    def test_non_wa_non_wr_uses_approximation(self):
        from repro.chase.termination import is_weakly_acyclic

        assert not is_weakly_acyclic(NON_WA_RULES)
        database = db("t(b, a). r(b, e).")
        plan, answers, _, _ = run(
            EXAMPLE2_QUERY,
            NON_WA_RULES,
            database,
            hybrid="auto",
            depth=APPROX_DEPTH,
        )
        assert plan.kind == "approximation"
        # The same depth-capped under-approximation the procedure
        # always returned...
        assert answers == approximate_answers(
            EXAMPLE2_QUERY, NON_WA_RULES, database, max_depth=APPROX_DEPTH
        ).answers
        # ...and sound: the chase would diverge, so validate against a
        # generously-bounded non-strict chase prefix.  Boolean query:
        # if the approximation says yes, the prefix derived it too.
        lower_bound = certain_answers_via_chase(
            EXAMPLE2_QUERY, NON_WA_RULES, database, max_steps=5_000,
            strict=False,
        )
        if answers:
            assert lower_bound.answers == answers

    def test_probed_rewriting_branch(self):
        # The s-query over the non-WR Example 2: the static class check
        # cannot help, but s is produced by R1 only and its rewriting
        # completes within the depth cap.
        query = parse_query("q() :- s(X, X, Y)")
        database = db("t(b, a). r(b, e).")
        plan, answers, _, _ = run(query, example2(), database)
        assert plan.kind in ("rewriting", "chase")
        assert plan.exact
        # Whatever plan ran, it must agree with the chase.
        assert answers == certain_answers(query, example2(), database)

    def test_reason_is_informative(self, hierarchy_rules):
        plan, _, _, certificate = run(
            parse_query("q(X) :- b(X)"), hierarchy_rules, db("a(v).")
        )
        assert plan.kind == "rewriting"
        assert certificate == "query-relevant fragment is SWR"


class TestDecisionMatrix:
    """One test per cell of the Section-7 decision procedure.

    Cells are (fragment class x termination verdict x rewriting
    outcome): the two static-rewriting rows, the completed-within-budget
    row, one chase row per termination-lattice member, the split row
    and the approximation fallback.  Each cell asserts the plan, the
    certificate that admitted it and -- where a ground truth is
    computable -- memory == SQL == the chase oracle.
    """

    def test_cell_swr_rewriting(self, hierarchy_rules):
        query, database = parse_query("q(X) :- d(X)"), db("a(v).")
        plan, answers, sql, certificate = run(query, hierarchy_rules, database)
        assert plan.kind == "rewriting"
        assert plan.exact
        assert certificate == "query-relevant fragment is SWR"
        assert plan.certificate is None  # never reached the lattice
        assert answers == sql == certain_answers(
            query, hierarchy_rules, database
        )

    def test_cell_wr_rewriting(self):
        query, database = parse_query("q(X, Y) :- r(X, Y)"), db("s(a, b, c).")
        plan, answers, sql, certificate = run(query, example3(), database)
        assert plan.kind == "rewriting"
        assert plan.exact
        assert certificate == "query-relevant fragment is WR"
        assert answers == sql == certain_answers(query, example3(), database)

    def test_cell_probe_terminates(self):
        plan, _, _, certificate = run(
            parse_query("q() :- s(X, X, Y)"),
            example2(),
            db("t(b, a). r(b, e)."),
        )
        assert plan.kind == "rewriting"
        assert plan.exact
        assert certificate == "completed within budget"

    def test_cell_chase_weak_acyclicity(self):
        database = db("t(b, a). r(b, e).")
        plan, answers, sql, certificate = run(
            EXAMPLE2_QUERY, example2(), database, hybrid="auto"
        )
        assert plan.kind == "chase"
        assert plan.exact
        assert plan.certificate.level is TerminationCriterion.WEAK_ACYCLICITY
        assert certificate == "chase terminates: weak-acyclicity"
        assert answers == sql == certain_answers(
            EXAMPLE2_QUERY, example2(), database
        )

    def test_cell_chase_joint_acyclicity(self):
        rules, query, database = lattice_chase_workload("ja")
        plan, answers, sql, certificate = run(
            query, rules, database, hybrid="auto"
        )
        assert plan.kind == "chase"
        assert plan.exact
        assert plan.certificate.level is (
            TerminationCriterion.JOINT_ACYCLICITY
        )
        assert "joint-acyclicity" in certificate
        assert answers == sql == certain_answers_via_chase(
            query, rules, database, max_steps=100_000, strict=True
        ).answers

    def test_cell_chase_super_weak_acyclicity(self):
        rules, query, database = lattice_chase_workload("swa")
        plan, answers, sql, certificate = run(
            query, rules, database, hybrid="auto"
        )
        assert plan.kind == "chase"
        assert plan.exact
        assert plan.certificate.level is (
            TerminationCriterion.SUPER_WEAK_ACYCLICITY
        )
        assert "super-weak-acyclicity" in certificate
        assert answers == sql == certain_answers_via_chase(
            query, rules, database, max_steps=100_000, strict=True
        ).answers

    def test_cell_split(self):
        rules, query, database = split_workload()
        plan, answers, sql, certificate = run(
            query, rules, database, hybrid="auto"
        )
        assert plan.kind == "split"
        assert plan.exact
        assert plan.partition is not None and plan.partition.proper
        assert not plan.certificate.terminating
        assert certificate.startswith("separable")
        assert "3-rule core" in certificate
        assert "2-rule residual" in certificate
        # Ground truth: generously bounded non-strict chase lower bound
        # (sound prefix) must agree on this finite workload.
        lower = certain_answers_via_chase(
            query, rules, database, max_steps=5_000, strict=False
        )
        assert answers == sql == lower.answers

    def test_cell_approximation(self):
        # Non-terminating at every lattice level, the rewriting
        # diverges, and no chase-safe core answers the query exactly:
        # Example 2's rules with the invention loop folded back in.
        plan, _, _, certificate = run(
            EXAMPLE2_QUERY,
            NON_WA_RULES,
            db("t(b, a). r(b, e)."),
            hybrid="auto",
            depth=APPROX_DEPTH,
        )
        assert plan.kind == "approximation"
        assert not plan.exact
        assert certificate.startswith("none")
        assert plan.certificate is not None
        assert not plan.certificate.terminating


class TestSplitDifferential:
    """SPLIT must agree with every other exact evaluation path."""

    def test_memory_equals_sql_equals_chase(self):
        rules, query, database = split_workload()
        options = EngineOptions(hybrid="auto")
        with Session(rules, database, options=options) as session:
            memory = session.answer(query)
            sql = session.answer(query, backend="sql")
            plan = session.prepare(query).plan(backend="sql")
        assert plan.kind == "split"
        assert plan.source == "core"

        chase_lower = certain_answers_via_chase(
            query, rules, database, max_steps=5_000, strict=False
        ).answers

        assert memory == sql == chase_lower

    def test_strategy_answers_match_differential(self):
        # The plan's answers equal the composition SPLIT stands for:
        # chase the core once, rewrite the query over the residual.
        from repro.analysis import separate
        from repro.chase.chase import restricted_chase
        from repro.data.evaluation import evaluate_ucq
        from repro.rewriting.rewriter import rewrite

        rules, query, database = split_workload()
        plan, answers, _, _ = run(query, rules, database, hybrid="auto")
        assert plan.kind == "split"
        partition = separate(rules)
        chased = restricted_chase(list(partition.core), database)
        assert chased.fixpoint
        ucq = rewrite(query, partition.residual).ucq
        assert answers == evaluate_ucq(ucq, chased.instance, certain=True)
