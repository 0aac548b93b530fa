"""Tests for repro.data.database."""

import pytest

from repro.data.database import Database
from repro.lang.atoms import Atom
from repro.lang.errors import SafetyError, SignatureError
from repro.lang.parser import parse_database
from repro.lang.terms import Constant, Null, Variable

A, B, C = Constant("a"), Constant("b"), Constant("c")


def fact(relation, *values):
    return Atom(relation, [v if isinstance(v, (Constant, Null)) else Constant(v) for v in values])


class TestMutation:
    def test_add_returns_newness(self):
        db = Database()
        assert db.add(fact("r", "a", "b"))
        assert not db.add(fact("r", "a", "b"))

    def test_add_all_counts_new_only(self):
        db = Database()
        added = db.add_all([fact("r", "a"), fact("r", "a"), fact("r", "b")])
        assert added == 2

    def test_non_ground_rejected(self):
        with pytest.raises(SafetyError):
            Database().add(Atom("r", [Variable("X")]))

    def test_arity_consistency_enforced(self):
        db = Database([fact("r", "a")])
        with pytest.raises(SignatureError):
            db.add(fact("r", "a", "b"))

    def test_discard(self):
        db = Database([fact("r", "a")])
        assert db.discard(fact("r", "a"))
        assert not db.discard(fact("r", "a"))
        assert len(db) == 0

    def test_discard_keeps_index_consistent(self):
        db = Database([fact("r", "a", "b"), fact("r", "a", "c")])
        assert len(db.lookup("r", 1, A)) == 2
        db.discard(fact("r", "a", "b"))
        assert len(db.lookup("r", 1, A)) == 1


    def test_insert_delete_pairs_leave_index_size_unchanged(self):
        # The /v1/mutate pattern: insert and delete facts on fresh
        # constants.  A bucket emptied by a delete must not linger.
        db = Database([fact("r", "a", "b")])
        for position in (1, 2):
            db.lookup("r", position, A)
        sizes = {key: len(index) for key, index in db._indexes.items()}
        for i in range(1000):
            fresh = fact("r", f"x{i}", f"y{i}")
            db.add(fresh)
            db.discard(fresh)
        assert {key: len(index) for key, index in db._indexes.items()} == sizes
        assert db.lookup("r", 1, A) == ((A, Constant("b")),)

    def test_has_row(self):
        db = Database([fact("r", "a", "b")])
        assert db.has_row("r", (A, Constant("b")))
        assert not db.has_row("r", (Constant("b"), A))
        assert not db.has_row("s", (A,))


class TestAccess:
    def test_rows_and_count(self):
        db = Database([fact("r", "a"), fact("r", "b"), fact("s", "c")])
        assert db.count("r") == 2
        assert db.count("missing") == 0
        assert (B,) in db.rows("r")

    def test_lookup_by_position(self):
        db = Database([fact("r", "a", "b"), fact("r", "b", "b"), fact("r", "a", "c")])
        assert len(db.lookup("r", 1, A)) == 2
        assert len(db.lookup("r", 2, B)) == 2
        assert db.lookup("r", 1, C) == ()

    def test_lookup_sees_facts_added_after_index_built(self):
        db = Database([fact("r", "a", "b")])
        assert len(db.lookup("r", 1, A)) == 1  # builds the index
        db.add(fact("r", "a", "c"))
        assert len(db.lookup("r", 1, A)) == 2

    def test_contains_and_iter(self):
        db = Database([fact("r", "a")])
        assert fact("r", "a") in db
        assert fact("r", "b") not in db
        assert list(db) == [fact("r", "a")]

    def test_constants_and_nulls(self):
        n = Null("n1")
        db = Database([Atom("r", [A, n])])
        assert db.constants() == frozenset({A})
        assert db.nulls() == frozenset({n})

    def test_relations_listed_sorted(self):
        db = Database([fact("z", "a"), fact("a", "a")])
        assert db.relations() == ("a", "z")

    def test_signature_tracks_arities(self):
        db = Database([fact("r", "a", "b")])
        assert db.signature["r"] == 2


class TestCopyAndEquality:
    def test_copy_is_independent(self):
        db = Database([fact("r", "a")])
        clone = db.copy()
        clone.add(fact("r", "b"))
        assert len(db) == 1 and len(clone) == 2

    def test_equality_ignores_insert_order(self):
        first = Database([fact("r", "a"), fact("r", "b")])
        second = Database([fact("r", "b"), fact("r", "a")])
        assert first == second

    def test_equality_ignores_empty_relations(self):
        first = Database([fact("r", "a")])
        second = Database([fact("r", "a"), fact("s", "x")])
        second.discard(fact("s", "x"))
        assert first == second

    def test_parse_database_roundtrip(self):
        db = Database(parse_database("r(a, b). s(1)."))
        assert len(db) == 2
        assert fact("s", Constant(1)) in db
