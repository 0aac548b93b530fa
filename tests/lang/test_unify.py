"""Tests for repro.lang.unify."""

from repro.lang.atoms import Atom
from repro.lang.terms import Constant, Null, Variable
from repro.lang.unify import mgu, mgu_atoms, unifiable

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
A, B = Constant("a"), Constant("b")


class TestMGU:
    def test_variable_to_constant(self):
        sub = mgu([(X, A)])
        assert sub is not None and sub[X] == A

    def test_variable_to_variable(self):
        sub = mgu([(X, Y)])
        assert sub is not None
        assert sub.apply_term(X) == sub.apply_term(Y)

    def test_distinct_constants_fail(self):
        assert mgu([(A, B)]) is None

    def test_same_constant_trivially_unifies(self):
        sub = mgu([(A, A)])
        assert sub is not None and len(sub) == 0

    def test_transitive_chain_resolves(self):
        sub = mgu([(X, Y), (Y, Z), (Z, A)])
        assert sub is not None
        assert sub.apply_term(X) == A
        assert sub.apply_term(Y) == A
        assert sub.apply_term(Z) == A

    def test_conflict_through_chain_fails(self):
        assert mgu([(X, A), (X, B)]) is None
        assert mgu([(X, Y), (X, A), (Y, B)]) is None

    def test_nulls_behave_like_constants(self):
        n1, n2 = Null("n1"), Null("n2")
        assert mgu([(n1, n2)]) is None
        sub = mgu([(X, n1)])
        assert sub is not None and sub[X] == n1

    def test_result_is_idempotent(self):
        sub = mgu([(X, Y), (Y, Z)])
        assert sub is not None
        for var in (X, Y, Z):
            once = sub.apply_term(var)
            assert sub.apply_term(once) == once


class TestMGUAtoms:
    def test_same_relation_unifies(self):
        sub = mgu_atoms(Atom("r", [X, A]), Atom("r", [B, Y]))
        assert sub is not None
        assert sub[X] == B and sub[Y] == A

    def test_relation_mismatch(self):
        assert mgu_atoms(Atom("r", [X]), Atom("s", [X])) is None

    def test_arity_mismatch(self):
        assert mgu_atoms(Atom("r", [X]), Atom("r", [X, Y])) is None

    def test_repeated_variable_propagates(self):
        sub = mgu_atoms(Atom("r", [X, X]), Atom("r", [A, Y]))
        assert sub is not None
        assert sub.apply_term(Y) == A

    def test_repeated_variable_conflict(self):
        assert mgu_atoms(Atom("r", [X, X]), Atom("r", [A, B])) is None

    def test_unifiable_predicate(self):
        assert unifiable(Atom("r", [X]), Atom("r", [A]))
        assert not unifiable(Atom("r", [A]), Atom("r", [B]))

