"""Property-based end-to-end tests of the OBDA pipeline.

Random GAV-mapped sources over a fixed SWR ontology: the in-memory
rewriting path, the SQLite path and the chase oracle must agree on
every generated instance.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.api import Session
from repro.data.csvio import facts_from_rows
from repro.data.database import Database
from repro.lang.parser import parse_atom, parse_program, parse_query
from repro.obda.mappings import MappingAssertion

ONTOLOGY = parse_program(
    """
    o1: staff(X) -> person(X).
    o2: person(X) -> memberOf(X, G).
    o3: memberOf(X, G) -> group(G).
    o4: leads(X, G) -> memberOf(X, G).
    o5: leads(X, G) -> staff(X).
    """
)

MAPPINGS = (
    MappingAssertion((parse_atom("hr(P, R)"),), parse_atom("staff(P)")),
    MappingAssertion(
        (parse_atom('hr(P, "lead")'), parse_atom("team(P, G)")),
        parse_atom("leads(P, G)"),
    ),
    MappingAssertion((parse_atom("team(P, G)"),), parse_atom("memberOf(P, G)")),
)

QUERIES = (
    parse_query("q(X) :- person(X)"),
    parse_query("q(G) :- group(G)"),
    parse_query("q(X, G) :- memberOf(X, G)"),
    parse_query("q() :- leads(X, G), group(G)"),
)

people = st.sampled_from([f"p{i}" for i in range(5)])
groups = st.sampled_from([f"g{i}" for i in range(3)])
roles = st.sampled_from(["lead", "member", "guest"])


@st.composite
def sources(draw):
    source = Database()
    hr_rows = draw(
        st.lists(st.tuples(people, roles), max_size=6, unique=True)
    )
    team_rows = draw(
        st.lists(st.tuples(people, groups), max_size=6, unique=True)
    )
    source.add_all(facts_from_rows("hr", hr_rows))
    source.add_all(facts_from_rows("team", team_rows))
    return source


class TestOBDAPipelines:
    @given(sources())
    @settings(max_examples=40, deadline=None)
    def test_rewriting_equals_chase(self, source):
        with Session(ONTOLOGY, source, mappings=MAPPINGS) as session:
            for query in QUERIES:
                assert session.answer(query) == session.answer_chase(query)

    @given(sources())
    @settings(max_examples=25, deadline=None)
    def test_sql_equals_memory(self, source):
        with Session(ONTOLOGY, source, mappings=MAPPINGS) as session:
            for query in QUERIES:
                assert session.answer(
                    query, backend="sql"
                ) == session.answer(query)

    @given(sources(), sources())
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_the_source(self, smaller, larger):
        combined = Database(list(smaller) + list(larger))
        with Session(ONTOLOGY, smaller, mappings=MAPPINGS) as small_session:
            with Session(
                ONTOLOGY, combined, mappings=MAPPINGS
            ) as big_session:
                for query in QUERIES:
                    assert small_session.answer(
                        query
                    ) <= big_session.answer(query)
