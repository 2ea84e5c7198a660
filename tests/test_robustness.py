"""Failure-injection and adversarial-input tests across the stack."""

import pytest

from repro.concepts.concept import Concept
from repro.concepts.knowledge import KnowledgeBase
from repro.convert.pipeline import DocumentConverter
from repro.dom.node import Element
from repro.dom.path import find_all
from repro.dom.serialize import to_xml
from repro.dom.treeops import clone, deep_equal, tree_size
from repro.htmlparse.parser import parse_html
from repro.mapping.persistence import load_xml_document
from repro.htmlparse.tidy import tidy


class TestAdversarialHtml:
    def test_deeply_nested_divs(self):
        html = "<div>" * 3000 + "deep" + "</div>" * 3000
        doc = parse_html(html)
        assert "deep" in doc.inner_text()
        tidy(doc)

    def test_deeply_nested_list_converts_and_serializes(self, converter):
        """3,000 nested list items convert, and the result renders to XML
        and reads back; the writer walks without recursion."""
        html = "<ul><li>Education, University of Davis, B.S. 1996" * 3000
        result = converter.convert(html)
        xml = result.to_xml()
        assert xml.count("<INSTITUTION") == 3000
        assert to_xml(load_xml_document(xml)) == to_xml(result.root)

    def test_deeply_nested_element_input_is_cloned(self, converter):
        """A pre-parsed 3,000-deep tree is copied without recursion."""
        html = "<div>Education, " * 3000 + "University of Davis" + "</div>" * 3000
        document = parse_html(html)
        result = converter.convert(document)
        assert result.input_nodes == tree_size(document)
        assert "INSTITUTION" in result.to_xml()
        assert to_xml(clone(document)) == to_xml(document)

    def test_deeply_nested_trees_compare(self):
        """Structural equality walks a 3,000-deep tree without recursion."""
        document = parse_html("<div>" * 3000 + "x" + "</div>" * 3000)
        assert deep_equal(document, clone(document))
        other = parse_html("<div>" * 3000 + "y" + "</div>" * 3000)
        assert not deep_equal(document, other)

    def test_deeply_nested_descendant_query(self):
        """A '//' query reaches every level of a 3,000-deep tree, in
        document order, without recursion."""
        document = parse_html("<div>" * 3000 + "x" + "</div>" * 3000)
        divs = find_all(document, "//div")
        assert len(divs) == 3000
        assert all(inner.parent is outer for outer, inner in zip(divs, divs[1:]))

    def test_thousands_of_siblings(self):
        html = "<ul>" + "<li>x</li>" * 5000 + "</ul>"
        doc = parse_html(html)
        body = doc.element_children()[-1]
        ul = body.element_children()[0]
        assert len(ul.element_children()) == 5000

    def test_huge_attribute_value(self):
        html = f'<p title="{"v" * 100_000}">x</p>'
        doc = parse_html(html)
        p = doc.element_children()[-1].element_children()[0]
        assert len(p.attrs["title"]) == 100_000

    def test_null_bytes_and_controls(self):
        doc = parse_html("<p>a\x00b\x01c</p>")
        assert doc.tag == "html"

    def test_angle_bracket_storm(self):
        doc = parse_html("<<<>>><<p>>x<</p>>")
        assert "x" in doc.inner_text()

    def test_tag_name_case_storm(self):
        doc = parse_html("<DiV><uL><Li>x</LI></Ul></dIv>")
        body = doc.element_children()[-1]
        assert body.element_children()[0].tag == "div"

    def test_attribute_quote_confusion(self):
        doc = parse_html("""<a href="x' title='y">t</a>""")
        assert doc.tag == "html"

    def test_bare_script_injection_is_inert_text(self):
        doc = parse_html("<script>alert('<h1>not a heading</h1>')</script><p>x</p>")
        body = doc.element_children()[-1]
        tags = [c.tag for c in body.element_children()]
        assert "h1" not in tags


class TestConverterRobustness:
    def test_empty_string(self, converter):
        result = converter.convert("")
        assert result.root.tag == "RESUME"

    def test_text_only_document(self, converter):
        result = converter.convert("just some plain words, no markup at all")
        assert result.root.tag == "RESUME"
        # Text is preserved somewhere.
        from repro.dom.treeops import iter_elements

        vals = " ".join(el.get_val() for el in iter_elements(result.root))
        assert "plain words" in vals

    def test_markup_only_document(self, converter):
        result = converter.convert("<div><span></span></div><hr><br>")
        assert result.root.children == []

    def test_non_topic_document(self, converter):
        result = converter.convert(
            "<html><body><h1>Pasta Recipes</h1><p>Boil water. Add salt."
            "</p></body></html>"
        )
        assert result.root.tag == "RESUME"

    def test_giant_flat_document(self, converter):
        html = "<body>" + "<p>University of Testing, B.S., 1999</p>" * 500 + "</body>"
        result = converter.convert(html)
        assert result.concept_node_count >= 500

    def test_single_concept_kb(self):
        kb = KnowledgeBase("thing", [Concept("thing")])
        converter = DocumentConverter(kb)
        result = converter.convert("<p>a thing here</p>")
        assert result.root.tag == "THING"

    def test_converter_is_reusable_and_stateless(self, converter):
        html = "<h2>Education</h2><p>B.S., 1999</p>"
        first = converter.convert(html)
        second = converter.convert(html)
        from repro.dom.treeops import deep_equal

        assert deep_equal(first.root, second.root)


class TestMapperRobustness:
    def test_conform_against_recursive_hand_dtd_terminates(self):
        """A hand-written DTD with a required cycle must not hang."""
        from repro.mapping.conform import conform_document
        from repro.schema.dtd import DTD

        dtd = DTD.parse(
            "<!ELEMENT a ((#PCDATA), b)>\n<!ELEMENT b ((#PCDATA), a)>"
        )
        root = Element("A")
        result = conform_document(root, dtd)
        assert result.inserted >= 1  # b synthesized once, then guarded

    def test_repository_with_unsatisfiable_dtd_raises_cleanly(self):
        from repro.mapping.repository import XMLRepository
        from repro.schema.dtd import DTD

        dtd = DTD.parse(
            "<!ELEMENT a ((#PCDATA), b)>\n<!ELEMENT b ((#PCDATA), a)>"
        )
        repo = XMLRepository(dtd)
        with pytest.raises(AssertionError):
            repo.insert(Element("A"))

    def test_tree_edit_on_degenerate_chains(self):
        from repro.mapping.tree_edit import tree_edit_distance

        def chain(n, tag):
            root = Element(tag)
            node = root
            for _ in range(n):
                node = node.append_child(Element(tag))
            return root

        assert tree_edit_distance(chain(50, "a"), chain(50, "a")) == 0
        assert tree_edit_distance(chain(50, "a"), chain(49, "a")) == 1


class TestMinerRobustness:
    def test_empty_corpus(self):
        from repro.schema.frequent import mine_frequent_paths

        result = mine_frequent_paths([], sup_threshold=0.5)
        assert result.paths == set()

    def test_single_node_documents(self):
        from repro.schema.frequent import mine_frequent_paths
        from repro.schema.paths import extract_paths

        docs = [extract_paths(Element("r")) for _ in range(3)]
        result = mine_frequent_paths(docs, sup_threshold=0.5)
        assert result.paths == {("r",)}

    def test_threshold_edges(self):
        from repro.schema.frequent import mine_frequent_paths
        from repro.schema.paths import extract_paths

        root = Element("r")
        root.append_child(Element("x"))
        docs = [extract_paths(root)]
        everything = mine_frequent_paths(docs, sup_threshold=0.0)
        assert ("r", "x") in everything.paths
        nothing_above_one = mine_frequent_paths(docs, sup_threshold=1.0)
        assert ("r", "x") in nothing_above_one.paths  # single doc: support 1
