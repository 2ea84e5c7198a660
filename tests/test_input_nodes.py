"""``ConversionResult.input_nodes`` is counted while the input tree is
built -- by the HTML tree builder for source text, by the copy for a
pre-parsed tree -- and must equal a walk of that tree.

The corpus is the rules differential's: the golden documents, two
generated resumes per authoring style, a generated corpus, portal
pages and noisy markup.
"""

from __future__ import annotations

import pytest

from repro.dom.treeops import clone, clone_counted, tree_size
from repro.htmlparse.parser import parse_html, parse_html_counted
from tests.test_fast_rules_differential import corpus  # noqa: F401  (fixture)


def test_builder_count_is_tree_size(corpus):  # noqa: F811
    for html in corpus:
        document, nodes = parse_html_counted(html)
        assert nodes == tree_size(document) == tree_size(parse_html(html))


def test_source_input(converter, corpus):  # noqa: F811
    for html in corpus:
        assert converter.convert(html).input_nodes == tree_size(parse_html(html))


def test_element_input(converter, corpus):  # noqa: F811
    for html in corpus:
        document = parse_html(html)
        expected = tree_size(document)
        assert converter.convert(document).input_nodes == expected


@pytest.mark.parametrize(
    "html",
    ["", "plain text", "<html><head><title>t</title></head></html>",
     "<head></head><head></head><p>a<b>b</b>c</p><br/><br>"],
    ids=["empty", "text", "head", "repeated-head"],
)
def test_degenerate_documents(html):
    document, nodes = parse_html_counted(html)
    assert nodes == tree_size(document)


def test_clone_counts_its_copy(corpus):  # noqa: F811
    for html in corpus[:8]:
        document = parse_html(html)
        copy, nodes = clone_counted(document)
        assert nodes == tree_size(copy) == tree_size(document)
        assert tree_size(clone(document.children[-1])) == tree_size(
            document.children[-1]
        )
