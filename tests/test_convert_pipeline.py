"""End-to-end tests for the document conversion pipeline."""

import pytest

from repro.convert.config import ConversionConfig
from repro.convert.pipeline import DocumentConverter
from repro.dom.path import find_all, find_first
from repro.dom.treeops import iter_elements

RESUME_HTML = """
<html><head><title>Jane Doe's Resume</title></head><body>
<h1>Resume of Jane Doe</h1>
<h2>Objective</h2>
<p>Seeking an internship in data management research.</p>
<h2>Education</h2>
<ul>
<li>June 1996, University of California at Davis, B.S. (Computer Science), GPA 3.8/4.0</li>
<li>June 1998, Stanford University, M.S. (Computer Science)</li>
</ul>
<h2>Experience</h2>
<p>Software Engineer, Verity Inc., Sunnyvale, 1998 - present</p>
<p>Intern, IBM Corporation, San Jose, Summer 1997</p>
<h2>Skills</h2>
<ul><li>C++</li><li>Java</li><li>Unix</li></ul>
</body></html>
"""


@pytest.fixture(scope="module")
def result(converter):
    return converter.convert(RESUME_HTML)


class TestOutputShape:
    def test_root_is_resume(self, result):
        assert result.root.tag == "RESUME"

    def test_title_text_merged_into_root_val(self, result):
        assert "Jane Doe" in result.root.get_val()

    def test_sections_are_root_children(self, result):
        tags = [c.tag for c in result.root.element_children()]
        assert tags == ["OBJECTIVE", "EDUCATION", "EXPERIENCE", "SKILLS"]

    def test_education_entries_nested_under_date(self, result):
        education = find_first(result.root, "RESUME/EDUCATION")
        dates = education.element_children()
        assert [d.tag for d in dates] == ["DATE", "DATE"]
        first = dates[0]
        assert {c.tag for c in first.element_children()} == {
            "INSTITUTION",
            "DEGREE",
            "GPA",
        }

    def test_institution_value_kept_whole(self, result):
        inst = find_first(result.root, "//INSTITUTION")
        assert inst.get_val() == "University of California at Davis"

    def test_experience_entries(self, result):
        titles = find_all(result.root, "RESUME/EXPERIENCE/JOB-TITLE")
        assert len(titles) == 2
        first = titles[0]
        companies = [c for c in first.element_children() if c.tag == "COMPANY"]
        assert companies[0].get_val() == "Verity Inc."

    def test_only_concept_elements_remain(self, result, kb):
        tags = {el.tag for el in iter_elements(result.root)}
        assert tags <= kb.concept_tags()

    def test_all_elements_uppercase(self, result):
        for el in iter_elements(result.root):
            assert el.tag == el.tag.upper()


class TestStatistics:
    def test_counts_populated(self, result):
        assert result.tokens_created > 10
        assert result.groups_created >= 3
        assert result.nodes_eliminated > 5
        assert result.concept_node_count > 10

    def test_unidentified_ratio_low_on_clean_input(self, result):
        assert result.instance_stats.unidentified_ratio < 0.3

    def test_xml_serialization(self, result):
        xml = result.to_xml()
        assert xml.startswith("<?xml")
        assert "<RESUME" in xml


class TestConverterBehavior:
    def test_accepts_preparsed_tree(self, converter):
        from repro.htmlparse.parser import parse_html

        tree = parse_html("<h2>Education</h2><h2>Skills</h2>")
        result = converter.convert(tree)
        assert result.root.tag == "RESUME"

    def test_preparsed_tree_survives_conversion(self, converter):
        """The double-convert footgun: converting a pre-parsed tree must
        not consume it, so a second conversion sees the same input."""
        from repro.dom.treeops import clone, deep_equal
        from repro.htmlparse.parser import parse_html

        tree = parse_html(RESUME_HTML)
        snapshot = clone(tree)
        first = converter.convert(tree)
        assert deep_equal(tree, snapshot)
        second = converter.convert(tree)
        assert first.to_xml() == second.to_xml()
        assert first.to_xml() == converter.convert(RESUME_HTML).to_xml()

    def test_per_rule_timings_recorded(self, converter):
        result = converter.convert(RESUME_HTML)
        assert {"parse", "tokenize", "instance", "group", "consolidate"} <= set(
            result.rule_seconds
        )
        assert all(seconds >= 0.0 for seconds in result.rule_seconds.values())

    def test_convert_many(self, converter):
        results = converter.convert_many([RESUME_HTML, RESUME_HTML])
        assert len(results) == 2

    def test_no_text_lost(self, converter):
        """Every informative word of the source survives in some val."""
        result = converter.convert(
            "<html><body><p>Zanzibar unknownword, University</p></body></html>"
        )
        all_vals = " ".join(
            el.get_val() for el in iter_elements(result.root)
        )
        assert "Zanzibar" in all_vals
        assert "unknownword" in all_vals
        assert "University" in all_vals

    def test_tidy_toggle(self, kb):
        messy = "<html><body><h2>Education<p>June 1996</p></h2></body></html>"
        with_tidy = DocumentConverter(kb, ConversionConfig(apply_tidy=True))
        without = DocumentConverter(kb, ConversionConfig(apply_tidy=False))
        assert with_tidy.convert(messy).root.tag == "RESUME"
        assert without.convert(messy).root.tag == "RESUME"

    def test_topic_without_root_concept(self):
        from repro.concepts.concept import Concept
        from repro.concepts.knowledge import KnowledgeBase

        kb = KnowledgeBase("gizmo")
        kb.add(Concept("widget"))
        converter = DocumentConverter(kb)
        result = converter.convert("<html><body><p>widget here</p></body></html>")
        assert result.root.tag == "GIZMO"
        assert result.root.element_children()[0].tag == "WIDGET"

    def test_empty_document(self, converter):
        result = converter.convert("<html><body></body></html>")
        assert result.root.tag == "RESUME"
        assert result.root.children == []

    def test_duplicate_resume_headings_merged_into_root(self, converter):
        result = converter.convert(
            "<html><head><title>Resume</title></head>"
            "<body><h1>Resume</h1><h2>Skills</h2><h2>Education</h2></body></html>"
        )
        tags = [c.tag for c in result.root.element_children()]
        assert "RESUME" not in tags
