"""Tests for XML/HTML serialization."""

import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dom.node import Element, Text
from repro.dom.serialize import (
    escape_attr,
    escape_text,
    to_html,
    to_xml,
    to_xml_document,
)
from repro.mapping.persistence import load_xml_document
from tests.oracles.serialize import to_xml_legacy


class TestEscaping:
    def test_escape_text_basics(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_escape_text_leaves_quotes(self):
        assert escape_text('say "hi"') == 'say "hi"'

    def test_escape_attr_quotes(self):
        assert escape_attr('say "hi"') == "say &quot;hi&quot;"

    def test_carriage_return_in_text_is_a_reference(self):
        assert escape_text("a\rb\nc\td") == "a&#13;b\nc\td"

    def test_whitespace_in_attr_is_a_reference(self):
        assert escape_attr("a\rb\nc\td") == "a&#13;b&#10;c&#9;d"

    def test_ampersand_escaped_before_references(self):
        assert escape_attr("&\r") == "&amp;&#13;"


class TestXml:
    def test_leaf_element_self_closes(self):
        e = Element("DATE", {"val": "June 1996"})
        assert to_xml(e) == '<DATE val="June 1996"/>'

    def test_nested_pretty_print(self):
        root = Element("a")
        root.append_child(Element("b"))
        assert to_xml(root) == "<a>\n  <b/>\n</a>"

    def test_text_node_rendered_escaped(self):
        root = Element("a")
        root.append_child(Text("x < y"))
        assert "x &lt; y" in to_xml(root)

    def test_attr_value_escaped(self):
        e = Element("a", {"val": 'He said "<ok>"'})
        assert 'val="He said &quot;&lt;ok&gt;&quot;"' in to_xml(e)

    def test_document_has_declaration(self):
        out = to_xml_document(Element("root"))
        assert out.startswith('<?xml version="1.0"')


class TestHtml:
    def test_void_tag_not_closed(self):
        assert to_html(Element("br")) == "<br>"

    def test_normal_tag_closed(self):
        e = Element("p", children=[Text("hi")])
        assert to_html(e) == "<p>hi</p>"

    def test_tag_lowercased(self):
        assert to_html(Element("DIV")) == "<div></div>"

    def test_attrs_rendered(self):
        e = Element("a", {"href": "x.html"})
        assert to_html(e) == '<a href="x.html"></a>'

    def test_nested_compact(self):
        root = Element("ul", children=[Element("li", children=[Text("one")])])
        assert to_html(root) == "<ul><li>one</li></ul>"


class TestRoundTrip:
    def test_parse_own_xml_output(self):
        """The HTML parser accepts the XML the serializer emits."""
        from repro.htmlparse.parser import parse_fragment

        root = Element("RESUME", {"val": "r"})
        edu = root.append_child(Element("EDUCATION"))
        edu.append_child(Element("DATE", {"val": "June 1996"}))
        xml = to_xml(root)
        reparsed = parse_fragment(xml).element_children()[0]
        assert reparsed.tag == "resume"  # parser lower-cases tags
        assert reparsed.attrs["val"] == "r"
        assert reparsed.element_children()[0].element_children()[0].attrs["val"] == "June 1996"


# Values and PCDATA a conforming XML reader would normalize if the
# serializer wrote them raw: ``\r`` and ``\r\n`` become ``\n`` in text,
# and ``\r``, ``\n``, ``\t`` become a space in an attribute value.
AWKWARD = ["x\ry", "x\r\ny", "a\nb\tc", " \t\r\n ", 'q "&<>" \r\n\t']


class TestWhitespaceRoundTrip:
    @staticmethod
    def document(value):
        root = Element("RESUME", {"val": value})
        degree = root.append_child(Element("DEGREE", {"val": value}))
        degree.append_child(Text(value))
        return root

    def test_element_tree_reads_values_back(self):
        for value in AWKWARD:
            parsed = ET.fromstring(to_xml_document(self.document(value)).encode())
            assert parsed.attrib["val"] == value
            degree = parsed.find("DEGREE")
            assert degree.attrib["val"] == value
            # The pretty-printer puts the text on its own indented line.
            assert degree.text == f"\n    {value}\n  "

    def test_repository_reader_reads_values_back(self):
        for value in AWKWARD:
            root = load_xml_document(to_xml_document(self.document(value)))
            assert root.get_val() == value
            (degree,) = root.element_children()
            assert degree.get_val() == value
            if value.strip():
                assert value in degree.children[0].text
            else:
                # A known loss, pinned until storage keeps such text: to
                # the reader, whitespace-only text is pretty-print padding
                # (see load_xml_document).
                assert degree.children == []


# Random trees for the writer-vs-oracle property, free of the characters
# whose escaping changed (the oracle writes them raw).
PLAIN = "abc &<>\"' é中"
node_texts = st.text(alphabet=PLAIN, max_size=8)
attr_maps = st.dictionaries(
    st.sampled_from(["val", "href", "id"]), node_texts, max_size=3
)
trees = st.recursive(
    st.one_of(
        node_texts.map(Text),
        st.builds(Element, st.sampled_from(["A", "b", "DATE"]), attr_maps),
    ),
    lambda children: st.builds(
        Element, st.sampled_from(["RESUME", "ul", "li"]), attr_maps,
        st.lists(children, max_size=4),
    ),
    max_leaves=25,
)


class TestWriterEqualsRecursiveOracle:
    @settings(max_examples=200)
    @given(trees)
    def test_same_string(self, tree):
        assert to_xml(tree) == to_xml_legacy(tree)

    def test_converted_documents(self, converter, small_corpus):
        for resume in small_corpus:
            root = converter.convert(resume.html).root
            assert to_xml(root) == to_xml_legacy(root)
