"""Tests for repro.chase.termination (weak acyclicity)."""

from repro.analysis.depgraph import SPECIAL, dependency_graph
from repro.chase.termination import is_weakly_acyclic
from repro.lang.atoms import Position
from repro.lang.parser import parse_program
from repro.workloads.paper import example1, example2, example3


class TestDependencyGraph:
    def test_regular_edge_for_copied_variable(self):
        rules = parse_program("a(X) -> b(X).")
        graph = dependency_graph(rules).graph
        assert graph.has_edge(Position("a", 1), Position("b", 1))
        labels = [edge.labels for edge in graph.edges]
        assert labels == [frozenset()]

    def test_special_edge_for_invented_value(self):
        rules = parse_program("a(X) -> b(X, Y).")
        graph = dependency_graph(rules).graph
        edges = {
            (edge.source, edge.target, SPECIAL in edge.labels)
            for edge in graph.edges
        }
        assert (Position("a", 1), Position("b", 1), False) in edges
        assert (Position("a", 1), Position("b", 2), True) in edges

    def test_non_frontier_body_variable_creates_no_edges(self):
        rules = parse_program("a(X, Z) -> b(X).")
        graph = dependency_graph(rules).graph
        assert not graph.has_edge(Position("a", 2), Position("b", 1))


class TestWeakAcyclicity:
    def test_hierarchy_is_weakly_acyclic(self, hierarchy_rules):
        assert is_weakly_acyclic(hierarchy_rules)

    def test_datalog_cycle_without_invention_is_fine(self):
        rules = parse_program("p(X, Y) -> q(Y, X). q(X, Y) -> p(X, Y).")
        assert is_weakly_acyclic(rules)

    def test_value_inventing_cycle_detected(self):
        rules = parse_program("p(X) -> r(X, Y). r(X, Y) -> p(Y).")
        assert not is_weakly_acyclic(rules)

    def test_self_feeding_existential_detected(self):
        rules = parse_program("r(X, Y) -> r(Y, Z).")
        assert not is_weakly_acyclic(rules)

    def test_paper_example1_weakly_acyclic(self):
        assert is_weakly_acyclic(example1())

    def test_paper_example2_weakly_acyclic(self):
        # Example 2 is NOT FO-rewritable, yet its chase terminates:
        # weak acyclicity and FO-rewritability are orthogonal.
        assert is_weakly_acyclic(example2())

    def test_paper_example3_not_weakly_acyclic(self):
        # The syntactic WA test rejects Example 3 although its chase
        # terminates on actual data: the recursion is "only apparent"
        # (exactly the phenomenon the paper's WR class sees through).
        assert not is_weakly_acyclic(example3())

    def test_empty_set_weakly_acyclic(self):
        assert is_weakly_acyclic(())
