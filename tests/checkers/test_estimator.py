"""The static rewriting-size estimator (AG(P) fan-out bound)."""

from repro.checkers import BlowupEstimate, estimate_disjunct_bound
from repro.checkers.estimator import ESTIMATE_CAP, estimate_combination_bound
from repro.lang.parser import parse_program, parse_query
from repro.rewriting.budget import RewritingBudget

CHAIN = parse_program(
    "c1: a1(X) -> p(X).\n"
    "c2: a2(X) -> p(X).\n"
    "d1: b1(X) -> a1(X).\n"
    "d2: b2(X) -> b1(X).\n"
)


class TestAcyclic:
    def test_per_round_counts_derivers_per_atom(self):
        estimate = estimate_disjunct_bound(parse_query("q(X) :- p(X)"), CHAIN)
        # p has 2 derivers -> 1 + 2 per round.
        assert estimate.per_round == 3

    def test_depth_is_longest_derivation_chain(self):
        estimate = estimate_disjunct_bound(parse_query("q(X) :- p(X)"), CHAIN)
        assert estimate.depth == 3
        assert estimate.chain == ("c1", "d1", "d2")
        assert not estimate.cyclic

    def test_bound_is_per_round_to_the_depth(self):
        estimate = estimate_disjunct_bound(parse_query("q(X) :- p(X)"), CHAIN)
        assert estimate.bound == 3**3

    def test_multi_atom_query_sums_derivers(self):
        estimate = estimate_disjunct_bound(
            parse_query("q(X) :- p(X), a1(X)"), CHAIN
        )
        # 1 + (2 derivers of p) + (1 deriver of a1).
        assert estimate.per_round == 4

    def test_relation_without_derivers(self):
        estimate = estimate_disjunct_bound(
            parse_query("q(X) :- unknown(X)"), CHAIN
        )
        assert estimate == BlowupEstimate(
            bound=1, per_round=1, depth=0, cyclic=False, chain=()
        )

    def test_ucq_bounds_add_up(self):
        from repro.lang.queries import UnionOfConjunctiveQueries

        narrow = parse_query("q(X) :- p(X)")
        wide = parse_query("q(X) :- p(X), p(Y)")
        union = UnionOfConjunctiveQueries([narrow, wide])
        total = estimate_disjunct_bound(union, CHAIN)
        parts = [
            estimate_disjunct_bound(cq, CHAIN).bound for cq in (narrow, wide)
        ]
        assert total.bound == sum(parts)
        # The reported shape is the worst disjunct's.
        assert total.per_round == 5


class TestCyclic:
    RULES = parse_program(
        "r1: p(X) -> s(X).\n"
        "r2: s(X) -> p(X).\n"
    )

    def test_cycle_uses_budget_depth(self):
        estimate = estimate_disjunct_bound(
            parse_query("q(X) :- p(X)"),
            self.RULES,
            budget=RewritingBudget(max_depth=7, max_cqs=10, strict=False),
        )
        assert estimate.cyclic
        assert estimate.depth == 7
        assert estimate.bound == 2**7

    def test_cycle_uses_default_depth_without_max(self):
        estimate = estimate_disjunct_bound(
            parse_query("q(X) :- p(X)"),
            self.RULES,
            budget=RewritingBudget(max_depth=None, max_cqs=10, strict=False),
            default_depth=4,
        )
        assert estimate.depth == 4

    def test_cycle_chain_names_the_cycle_rules(self):
        estimate = estimate_disjunct_bound(
            parse_query("q(X) :- p(X)"), self.RULES
        )
        assert set(estimate.chain) == {"r1", "r2"}


class TestCapAndRendering:
    def test_bound_saturates_at_cap(self):
        wide = parse_program(
            "\n".join(f"c{i}: a{i}(X) -> p(X)." for i in range(1, 100))
        )
        estimate = estimate_disjunct_bound(
            parse_query("q(X) :- p(X), p(Y), p(Z)"),
            list(wide) + list(parse_program("loop: p(X) -> a1(X).")),
            budget=RewritingBudget(max_depth=50, max_cqs=10, strict=False),
        )
        assert estimate.capped
        assert estimate.bound == ESTIMATE_CAP
        assert estimate.render_bound() == ">=10^18"

    def test_small_bound_renders_tilde(self):
        estimate = estimate_disjunct_bound(parse_query("q(X) :- p(X)"), CHAIN)
        assert estimate.render_bound() == f"~{3**3}"

    def test_unlabeled_rules_get_defaulted_labels(self):
        # The parser assigns R1, R2, ... to unlabeled rules; rules built
        # without any label fall back to #index inside the estimator.
        rules = parse_program("a(X) -> p(X).\nb(X) -> a(X).\n")
        estimate = estimate_disjunct_bound(parse_query("q(X) :- p(X)"), rules)
        assert estimate.chain == ("R1", "R2")


class TestCombinationBound:
    """Per-atom combination estimate: the ``auto`` target's signal."""

    def test_wide_conjunction_is_exponential(self):
        # n joined atoms with k derivers each: (k+1)^n combinations,
        # invisible to the depth-based bound (every chain has length 1).
        k = 3
        for n in (1, 3, 5):
            rules = parse_program(
                "\n".join(
                    f"a{i}_{j}(X) -> c{i}(X)."
                    for i in range(1, n + 1)
                    for j in range(1, k + 1)
                )
            )
            body = ", ".join(f"c{i}(X)" for i in range(1, n + 1))
            query = parse_query(f"q(X) :- {body}")
            assert estimate_combination_bound(query, rules) == (k + 1) ** n

    def test_underivable_atom_counts_one(self):
        assert (
            estimate_combination_bound(parse_query("q(X) :- z(X)"), CHAIN)
            == 1
        )

    def test_chain_multiplies_through(self):
        # p <- a1 <- b1 <- b2: A(p) = 1 + A(a1) + A(a2) = 1 + 3 + 1 = 5.
        query = parse_query("q(X) :- p(X)")
        assert estimate_combination_bound(query, CHAIN) == 5

    def test_cycle_saturates_at_cap(self):
        rules = parse_program("loop1: p(X) -> r(X). loop2: r(X) -> p(X).")
        query = parse_query("q(X) :- p(X)")
        assert estimate_combination_bound(query, rules) == ESTIMATE_CAP

    def test_ucq_sums_over_disjuncts(self):
        from repro.lang.queries import UnionOfConjunctiveQueries

        union = UnionOfConjunctiveQueries(
            [parse_query("q(X) :- p(X)"), parse_query("q(X) :- z(X)")]
        )
        assert estimate_combination_bound(union, CHAIN) == 5 + 1

    def test_deterministic_in_inputs(self):
        query = parse_query("q(X) :- p(X), p(Y)")
        assert estimate_combination_bound(
            query, CHAIN
        ) == estimate_combination_bound(query, list(reversed(CHAIN)))
