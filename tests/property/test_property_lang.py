"""Property-based tests (hypothesis) for the language layer."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.lang.atoms import Atom
from repro.lang.substitution import Substitution, rename_apart
from repro.lang.terms import Constant, Null, Variable
from repro.lang.unify import class_substitution, mgu_atoms, null_clash, term_classes

variables = st.integers(min_value=0, max_value=5).map(
    lambda i: Variable(f"V{i}")
)
constants = st.sampled_from([Constant("a"), Constant("b"), Constant(1)])
terms = st.one_of(variables, constants)


def atoms(relation="r", min_arity=1, max_arity=4):
    return st.lists(terms, min_size=min_arity, max_size=max_arity).map(
        lambda ts: Atom(relation, ts)
    )


substitutions = st.dictionaries(variables, terms, max_size=5).map(Substitution)

nulls = st.sampled_from([Null("n1"), Null("n2")])
unifier_terms = st.one_of(variables, constants, nulls)
term_pairs = st.lists(st.tuples(unifier_terms, unifier_terms), max_size=8)
variable_sets = st.sets(variables, max_size=4)


def naive_closure(pairs):
    """The classes the pairs force equal, by merging overlapping sets."""
    classes: list[set] = []
    for left, right in pairs:
        merged = {left, right}
        rest = []
        for group in classes:
            if group & merged:
                merged |= group
            else:
                rest.append(group)
        classes = rest + [merged]
    return classes


def is_ground(term) -> bool:
    return not isinstance(term, Variable)


class TestUnification:
    @given(atoms(), atoms())
    def test_mgu_actually_unifies(self, first, second):
        unifier = mgu_atoms(first, second)
        if unifier is not None:
            assert unifier.apply_atom(first) == unifier.apply_atom(second)

    @given(atoms(), atoms())
    def test_mgu_symmetric_in_success(self, first, second):
        forward = mgu_atoms(first, second)
        backward = mgu_atoms(second, first)
        assert (forward is None) == (backward is None)

    @given(atoms())
    def test_self_unification_is_identity_modulo_renaming(self, atom):
        unifier = mgu_atoms(atom, atom)
        assert unifier is not None
        assert unifier.apply_atom(atom) == atom

    @given(atoms(), atoms())
    @settings(max_examples=200)
    def test_mgu_is_idempotent(self, first, second):
        unifier = mgu_atoms(first, second)
        if unifier is not None:
            once = unifier.apply_atom(first)
            assert unifier.apply_atom(once) == once


class TestUnifierPrimitives:
    @given(term_pairs)
    def test_none_iff_closure_equates_two_ground_terms(self, pairs):
        clash = any(
            sum(is_ground(t) for t in group) > 1 for group in naive_closure(pairs)
        )
        assert (term_classes(pairs) is None) == clash

    @given(term_pairs)
    def test_classes_are_the_closure_in_first_occurrence_order(self, pairs):
        classes = term_classes(pairs)
        assume(classes is not None)
        assert sorted(map(frozenset, classes), key=sorted) == sorted(
            map(frozenset, naive_closure(pairs)), key=sorted
        )
        first = list(dict.fromkeys(t for pair in pairs for t in pair))
        for group in classes:
            assert group == sorted(group, key=first.index)
        assert classes == sorted(classes, key=lambda g: first.index(g[0]))

    @given(term_pairs, variable_sets, variable_sets)
    def test_class_substitution_is_an_idempotent_unifier(self, pairs, prefer, avoid):
        classes = term_classes(pairs)
        assume(classes is not None)
        sub = class_substitution(classes, prefer, avoid)
        for left, right in pairs:
            image = sub.apply_term(left)
            assert sub.apply_term(right) == image
            assert sub.apply_term(image) == image

    @given(term_pairs, variable_sets, variable_sets)
    def test_representative_order(self, pairs, prefer, avoid):
        classes = term_classes(pairs)
        assume(classes is not None)
        sub = class_substitution(classes, prefer, avoid)
        for group in classes:
            ground = [t for t in group if is_ground(t)]
            tiers = (
                [t for t in group if t in prefer],
                [t for t in group if t not in prefer and t not in avoid],
                [t for t in group if t in avoid and t not in prefer],
            )
            if ground:
                expected = ground[0]
            else:
                tier = next(tier for tier in tiers if tier)
                expected = min(tier, key=lambda v: v.name)
            assert all(sub.apply_term(t) == expected for t in group)

    @given(
        st.lists(unifier_terms, max_size=5, unique=True),
        variable_sets,
        variable_sets,
    )
    def test_null_clash_definition(self, group, existential, frontier):
        frontier = frontier - existential
        # Some invented null meets a second null, a frontier value or a
        # ground term.
        expected = any(
            null in existential
            and any(
                other != null
                and (other in existential or other in frontier or is_ground(other))
                for other in group
            )
            for null in group
        )
        assert null_clash(group, existential, frontier) == expected


class TestSubstitutionAlgebra:
    @given(substitutions, substitutions, terms)
    def test_compose_equation(self, first, second, term):
        composed = first.compose(second)
        assert composed.apply_term(term) == second.apply_term(
            first.apply_term(term)
        )

    @given(substitutions, terms)
    def test_identity_neutral(self, sub, term):
        identity = Substitution.identity()
        assert identity.compose(sub).apply_term(term) == sub.apply_term(term)
        assert sub.compose(identity).apply_term(term) == sub.apply_term(term)

    @given(substitutions, substitutions, substitutions, terms)
    @settings(max_examples=100)
    def test_compose_associative_on_application(self, f, g, h, term):
        left = f.compose(g).compose(h)
        right = f.compose(g.compose(h))
        assert left.apply_term(term) == right.apply_term(term)


class TestRenameApart:
    @given(
        st.lists(variables, max_size=6, unique=True),
        st.lists(variables, max_size=6, unique=True),
    )
    def test_images_avoid_taken(self, to_rename, taken):
        renaming = rename_apart(to_rename, taken)
        taken_names = {v.name for v in taken}
        for image in renaming.values():
            assert image.name not in taken_names

    @given(
        st.lists(variables, max_size=6, unique=True),
        st.lists(variables, max_size=6, unique=True),
    )
    def test_renaming_is_injective(self, to_rename, taken):
        renaming = rename_apart(to_rename, taken)
        images = list(renaming.values())
        assert len(images) == len(set(images))
