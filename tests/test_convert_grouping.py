"""Tests for the grouping rule (Section 2.3.2)."""

from repro.convert.grouping_rule import GROUP_TAG, apply_grouping_rule
from repro.dom.node import Element, Text


def element_tags(parent):
    return [c.tag for c in parent.element_children()]


def build(*tags):
    root = Element("body")
    for tag in tags:
        root.append_child(Element(tag))
    return root


class TestBasicGrouping:
    def test_siblings_between_leaders_sink_under_left_leader(self):
        root = build("h2", "ul", "p", "h2", "ul")
        created = apply_grouping_rule(root)
        assert created == 2
        assert element_tags(root) == ["h2", "h2"]
        first_group = root.element_children()[0].element_children()[-1]
        assert first_group.tag == GROUP_TAG
        assert element_tags(first_group) == ["ul", "p"]

    def test_siblings_right_of_last_leader_grouped(self):
        root = build("h2", "ul")
        # one leader is below MIN_GROUP_LEADERS
        assert apply_grouping_rule(root) == 0
        root = build("h2", "ul", "h2", "ul", "p")
        apply_grouping_rule(root)
        last_group = root.element_children()[1].element_children()[-1]
        assert element_tags(last_group) == ["ul", "p"]

    def test_siblings_before_first_leader_untouched(self):
        root = build("p", "h2", "ul", "h2", "ul")
        apply_grouping_rule(root)
        assert element_tags(root)[0] == "p"

    def test_empty_gap_creates_no_group(self):
        root = build("h2", "h2", "ul")
        apply_grouping_rule(root)
        first_leader = root.element_children()[0]
        assert first_leader.children == []

    def test_text_nodes_are_grouped_too(self):
        root = Element("body")
        root.append_child(Element("b"))
        root.append_child(Text("content"))
        root.append_child(Element("b"))
        apply_grouping_rule(root)
        group = root.element_children()[0].element_children()[0]
        assert group.tag == GROUP_TAG
        assert isinstance(group.children[0], Text)


class TestWeights:
    def test_higher_weight_tag_wins_at_same_level(self):
        # h2 (95) outranks p (55): the p's must be grouped under h2s.
        root = build("h2", "p", "p", "h2", "p", "p")
        apply_grouping_rule(root)
        assert element_tags(root) == ["h2", "h2"]

    def test_lower_weight_handled_next_level_down(self):
        # After h2-grouping, the GROUP contains repeated p's (weight 55)
        # and em's (weight 25); the rule visits the group and applies
        # p-grouping inside it, sinking each em under its p.
        root = build("h2", "p", "em", "p", "em", "h2")
        apply_grouping_rule(root)
        group = root.element_children()[0].element_children()[0]
        assert element_tags(group) == ["p", "p"]
        inner = group.element_children()[0].element_children()[0]
        assert inner.tag == GROUP_TAG
        assert element_tags(inner) == ["em"]

    def test_non_group_tags_never_lead(self):
        root = build("table", "ul", "table", "ul")
        assert apply_grouping_rule(root) == 0
