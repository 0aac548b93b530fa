"""Tests for repro.workloads.clinic (the extended-DL workload)."""

from repro.api import Session
from repro.core.swr import is_swr
from repro.core.wr import is_wr
from repro.dlite.extended import is_satisfiable
from repro.workloads.clinic import (
    clinic_data,
    clinic_ontology,
    clinic_queries,
    clinic_tbox,
)


class TestClinicOntology:
    def test_outside_swr_but_wr(self):
        rules = clinic_ontology()
        assert not is_swr(rules).is_swr  # multi-head rules
        assert is_wr(rules).is_wr

    def test_has_multi_head_rule(self):
        assert any(len(r.head) > 1 for r in clinic_ontology())

    def test_generated_abox_is_consistent(self):
        tbox = clinic_tbox()
        rules = clinic_ontology()
        for seed in range(3):
            abox = clinic_data(10, seed=seed)
            satisfiable, violated = is_satisfiable(tbox, abox, rules=rules)
            assert satisfiable, violated

    def test_data_deterministic(self):
        assert clinic_data(8, seed=1) == clinic_data(8, seed=1)


class TestClinicQueries:
    def test_rewriting_equals_chase_on_all_queries(self):
        rules = clinic_ontology()
        abox = clinic_data(8, seed=2)
        with Session(rules, abox) as session:
            for name, query in clinic_queries():
                rewriting = session.answer(query)
                chase = session.answer_chase(query)
                assert rewriting == chase, name

    def test_sql_path_agrees(self):
        rules = clinic_ontology()
        abox = clinic_data(6, seed=3)
        with Session(rules, abox) as session:
            for name, query in clinic_queries():
                assert session.answer(
                    query, backend="sql"
                ) == session.answer(query), name

    def test_boolean_ward_query_true_via_invention(self):
        # Even with no worksIn facts at all, every clinician works in
        # SOME ward -- value invention makes the boolean query certain.
        from repro.data.csvio import facts_from_rows
        from repro.data.database import Database

        rules = clinic_ontology()
        abox = Database(facts_from_rows("Doctor", [("d1",)]))
        with Session(rules, abox) as session:
            name, query = clinic_queries()[-1]
            assert session.answer(query) == {()}
