"""Tests for concept constraints."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts.constraints import (
    ConstraintSet,
    DepthConstraint,
    ParentConstraint,
    SiblingConstraint,
)


class TestParentConstraint:
    def test_satisfied_when_parent_above(self):
        c = ParentConstraint("EDUCATION", "DATE")
        assert c.satisfied_by_path(("EDUCATION", "DATE"))
        assert c.satisfied_by_path(("EDUCATION", "DEGREE", "DATE"))

    def test_violated_when_order_reversed(self):
        c = ParentConstraint("EDUCATION", "DATE")
        assert not c.satisfied_by_path(("DATE", "EDUCATION"))

    def test_vacuous_when_either_absent(self):
        c = ParentConstraint("EDUCATION", "DATE")
        assert c.satisfied_by_path(("SKILLS",))
        assert c.satisfied_by_path(("EDUCATION",))

    def test_negated(self):
        c = ParentConstraint("DATE", "EDUCATION", negated=True)
        assert not c.satisfied_by_path(("DATE", "EDUCATION"))
        assert c.satisfied_by_path(("EDUCATION", "DATE"))


class TestSiblingConstraint:
    def test_positive_allows(self):
        c = SiblingConstraint("DEGREE", "INSTITUTION")
        assert c.allows_pair("DEGREE", "INSTITUTION")
        assert c.allows_pair("INSTITUTION", "DEGREE")

    def test_negated_forbids(self):
        c = SiblingConstraint("RESUME", "RESUME", negated=True)
        assert not c.allows_pair("RESUME", "RESUME")

    def test_unmentioned_pairs_allowed(self):
        c = SiblingConstraint("A", "B", negated=True)
        assert c.allows_pair("A", "C")
        assert c.allows_pair("C", "D")


class TestDepthConstraint:
    def test_equality(self):
        c = DepthConstraint("EDUCATION", "=", 1)
        assert c.allows_depth(1)
        assert not c.allows_depth(2)

    def test_greater(self):
        c = DepthConstraint("DATE", ">", 1)
        assert not c.allows_depth(1)
        assert c.allows_depth(2)

    def test_less(self):
        c = DepthConstraint("X", "<", 3)
        assert c.allows_depth(2)
        assert not c.allows_depth(3)

    def test_negated(self):
        c = DepthConstraint("X", "=", 2, negated=True)
        assert not c.allows_depth(2)
        assert c.allows_depth(1)

    def test_invalid_operator(self):
        with pytest.raises(ValueError):
            DepthConstraint("X", ">=", 1)


class TestConstraintSet:
    def test_empty_set_allows_everything(self):
        cs = ConstraintSet()
        assert cs.is_empty()
        assert cs.allows_path(("A", "B", "A", "C"))

    def test_no_repeat_on_path(self):
        cs = ConstraintSet(no_repeat_on_path=True)
        assert cs.allows_path(("A", "B"))
        assert not cs.allows_path(("A", "B", "A"))

    def test_max_depth(self):
        cs = ConstraintSet(max_depth=2)
        assert cs.allows_path(("A", "B"))
        assert not cs.allows_path(("A", "B", "C"))

    def test_depth_constraints_consulted(self):
        cs = ConstraintSet()
        cs.add_depth("TITLE", "=", 1)
        assert cs.allows_path(("TITLE", "X"))
        assert not cs.allows_path(("X", "TITLE"))

    def test_parent_constraints_consulted(self):
        cs = ConstraintSet()
        cs.add_parent("EDUCATION", "GPA")
        assert cs.allows_path(("EDUCATION", "GPA"))
        assert not cs.allows_path(("GPA", "EDUCATION"))

    def test_sibling_pair_check(self):
        cs = ConstraintSet()
        cs.add_sibling("A", "B", negated=True)
        assert not cs.allows_sibling_pair("A", "B")
        assert cs.allows_sibling_pair("A", "C")

    def test_allows_depth_merges_max_depth(self):
        cs = ConstraintSet(max_depth=3)
        cs.add_depth("X", ">", 1)
        assert not cs.allows_depth("X", 1)
        assert cs.allows_depth("X", 2)
        assert not cs.allows_depth("X", 4)

    def test_is_empty_false_with_any_constraint(self):
        assert not ConstraintSet(max_depth=1).is_empty()
        cs = ConstraintSet()
        cs.add_sibling("A", "B")
        assert not cs.is_empty()


CONCEPTS = ("A", "B", "C", "D")
concepts = st.sampled_from(CONCEPTS)
parent_specs = st.tuples(concepts, concepts, st.booleans())
depth_specs = st.tuples(
    concepts, st.sampled_from(["=", "<", ">"]), st.integers(0, 4), st.booleans()
)


@st.composite
def constraint_sets(draw):
    """Random constraint sets; some constraints are passed to the
    constructor and the rest added afterwards, so both ways of filling
    the per-concept depth index are exercised."""
    parents = draw(st.lists(parent_specs, max_size=4))
    depths = draw(st.lists(depth_specs, max_size=4))
    parents_at = draw(st.integers(0, len(parents)))
    depths_at = draw(st.integers(0, len(depths)))
    cs = ConstraintSet(
        parents=[ParentConstraint(*spec) for spec in parents[:parents_at]],
        depths=[DepthConstraint(*spec) for spec in depths[:depths_at]],
        no_repeat_on_path=draw(st.booleans()),
        max_depth=draw(st.none() | st.integers(0, 4)),
    )
    for parent, child, negated in parents[parents_at:]:
        cs.add_parent(parent, child, negated=negated)
    for concept, op, bound, negated in depths[depths_at:]:
        cs.add_depth(concept, op, bound, negated=negated)
    return cs


def all_paths(max_length: int = 3):
    for length in range(max_length + 1):
        yield from product(CONCEPTS, repeat=length)


class TestExtensions:
    @given(
        constraint_sets(),
        st.lists(st.sampled_from(CONCEPTS + ("E",)), max_size=6),
        depth_specs,
    )
    @settings(max_examples=150)
    def test_matches_allows_path_on_every_allowed_path(self, cs, labels, late):
        # Queried before and after one more depth constraint: the verdicts
        # extensions keeps per depth must not outlive add_depth.
        for _ in range(2):
            for path in all_paths():
                if not cs.allows_path(path):
                    continue
                assert cs.extensions(path, labels) == [
                    label for label in labels if cs.allows_path((*path, label))
                ]
            concept, op, bound, negated = late
            cs.add_depth(concept, op, bound, negated=negated)

    def test_keeps_label_order_and_duplicates(self):
        cs = ConstraintSet(no_repeat_on_path=True)
        assert cs.extensions(("B",), ["C", "B", "A", "C"]) == ["C", "A", "C"]

    def test_self_parent(self):
        cs = ConstraintSet()
        cs.add_parent("A", "A")
        assert cs.extensions((), ["A", "B"]) == ["B"]
        cs = ConstraintSet([ParentConstraint("A", "A", negated=True)])
        assert cs.extensions(("A",), ["A", "B"]) == ["A", "B"]

    def test_parent_constraint_from_either_side(self):
        cs = ConstraintSet()
        cs.add_parent("EDUCATION", "GPA")
        assert cs.extensions(("GPA",), ["EDUCATION", "DATE"]) == ["DATE"]
        assert cs.extensions(("EDUCATION",), ["GPA"]) == ["GPA"]
        cs = ConstraintSet([ParentConstraint("EDUCATION", "GPA", negated=True)])
        assert cs.extensions(("EDUCATION",), ["GPA", "DATE"]) == ["DATE"]
        assert cs.extensions(("GPA",), ["EDUCATION"]) == ["EDUCATION"]

    def test_repeated_label_keeps_first_occurrence_verdicts(self):
        # parent(B, A) holds on (B, A) and still holds after a second B.
        cs = ConstraintSet([ParentConstraint("B", "A")])
        cs.add_depth("B", "<", 4)
        assert cs.extensions(("B", "A"), ["B"]) == ["B"]
        assert cs.extensions(("B", "A", "C"), ["B"]) == []

    def test_constraints_added_after_a_query(self):
        cs = ConstraintSet()
        assert cs.extensions(("A",), ["B", "C"]) == ["B", "C"]
        cs.add_depth("B", "=", 1)
        cs.add_parent("C", "A")
        assert cs.extensions(("A",), ["B", "C"]) == []

    def test_depth_cap(self):
        cs = ConstraintSet(max_depth=2)
        assert cs.extensions(("A",), ["B"]) == ["B"]
        assert cs.extensions(("A", "B"), ["C"]) == []
