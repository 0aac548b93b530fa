"""The OBDA pipeline (ontology + mappings + source) through Session."""

from repro.api import Session
from repro.data.database import Database
from repro.data.csvio import facts_from_rows
from repro.lang.parser import parse_atom, parse_program, parse_query
from repro.lang.terms import Constant
from repro.obda.mappings import MappingAssertion
from repro.workloads.ontologies import university_data, university_ontology


class TestDirectMode:
    """Source stated directly in the ontology vocabulary."""

    def test_rewriting_answers(self, hierarchy_rules, small_database):
        with Session(hierarchy_rules, small_database) as session:
            answers = session.answer(parse_query("q(X) :- c(X)"))
            assert answers == {
                (Constant("one"),),
                (Constant("two"),),
                (Constant("three"),),
            }

    def test_three_answering_paths_agree(self, hierarchy_rules, small_database):
        with Session(hierarchy_rules, small_database) as session:
            query = parse_query("q(X) :- d(X)")
            memory = session.answer(query)
            chase = session.answer_chase(query)
            sql = session.answer(query, backend="sql")
            assert memory == chase == sql

    def test_abox_is_source_without_mappings(
        self, hierarchy_rules, small_database
    ):
        session = Session(hierarchy_rules, small_database)
        assert session.abox() is small_database

    def test_classification_cached(self, hierarchy_rules):
        session = Session(hierarchy_rules, Database())
        assert session.classification() is session.classification()

    def test_sql_for_returns_text(self, hierarchy_rules):
        session = Session(hierarchy_rules, Database())
        assert "SELECT" in session.sql_for(parse_query("q(X) :- d(X)"))


class TestMappedMode:
    def test_mappings_materialize_virtual_abox(self):
        source = Database(facts_from_rows("t_emp", [("ada", "cs")]))
        mappings = (
            MappingAssertion(
                (parse_atom("t_emp(P, D)"),), parse_atom("person(P)")
            ),
        )
        ontology = parse_program("person(X) -> mortal(X).")
        with Session(ontology, source, mappings=mappings) as session:
            assert len(session.abox()) == 1
            answers = session.answer(parse_query("q(X) :- mortal(X)"))
            assert answers == {(Constant("ada"),)}


class TestUniversityEndToEnd:
    def test_all_queries_consistent(self):
        from repro.workloads.ontologies import university_queries

        ontology = university_ontology()
        database = university_data(12, seed=5)
        with Session(ontology, database) as session:
            for name, query in university_queries():
                rewriting = session.answer(query)
                chase = session.answer_chase(query)
                assert rewriting == chase, name
