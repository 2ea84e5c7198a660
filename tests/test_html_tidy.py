"""Tests for the Tidy-style cleanser and its oracle.

Every behavioral test runs twice -- once through the single-snapshot
cleanser and once through the six-traversal legacy oracle in
``tests/oracles/`` -- so a fix that lands in only one implementation
fails loudly here before the differential suites ever see it.
"""

import pytest

from repro.htmlparse.parser import body_of, parse_html
from repro.htmlparse.tidy import tidy
from tests.oracles.tidy import tidy_legacy


@pytest.fixture(params=[tidy, tidy_legacy], ids=["fast", "legacy"])
def cleanse(request):
    return request.param


def tidied(source, cleanse):
    doc = parse_html(source)
    cleanse(doc)
    return body_of(doc)


def tags(element):
    return [c.tag for c in element.element_children()]


class TestHeadingRepair:
    def test_block_moved_out_of_heading(self, cleanse):
        b = tidied("<h2>Title<p>para</p></h2>", cleanse)
        assert tags(b) == ["h2", "p"]

    def test_nested_heading_moved_out(self, cleanse):
        b = tidied("<h1>Big<h2>Small</h2></h1>", cleanse)
        assert tags(b) == ["h1", "h2"]

    def test_inline_stays_inside_heading(self, cleanse):
        b = tidied("<h2><b>Bold title</b></h2>", cleanse)
        h2 = b.element_children()[0]
        assert tags(h2) == ["b"]


class TestOrphanWrapping:
    def test_orphan_li_wrapped_in_ul(self, cleanse):
        b = tidied("<div><li>a</li><li>b</li></div>", cleanse)
        div = b.element_children()[0]
        assert tags(div) == ["ul"]
        assert len(div.element_children()[0].element_children()) == 2

    def test_orphan_dt_dd_wrapped_in_dl(self, cleanse):
        b = tidied("<div><dt>t</dt><dd>d</dd></div>", cleanse)
        div = b.element_children()[0]
        assert tags(div) == ["dl"]

    def test_orphan_tr_wrapped_in_table(self, cleanse):
        b = tidied("<div><tr><td>x</td></tr></div>", cleanse)
        div = b.element_children()[0]
        assert tags(div) == ["table"]

    def test_li_inside_ul_untouched(self, cleanse):
        b = tidied("<ul><li>a</li></ul>", cleanse)
        ul = b.element_children()[0]
        assert tags(ul) == ["li"]

    def test_separate_runs_get_separate_wrappers(self, cleanse):
        b = tidied("<div><li>a</li><p>x</p><li>b</li></div>", cleanse)
        div = b.element_children()[0]
        assert tags(div) == ["ul", "p", "ul"]


class TestInlineCleanup:
    def test_empty_inline_removed(self, cleanse):
        b = tidied("<p><b></b>text</p>", cleanse)
        p = b.element_children()[0]
        assert tags(p) == []

    def test_doubled_bold_collapsed(self, cleanse):
        b = tidied("<p><b><b>x</b></b></p>", cleanse)
        p = b.element_children()[0]
        assert tags(p) == ["b"]
        assert tags(p.element_children()[0]) == []

    def test_nonempty_inline_kept(self, cleanse):
        b = tidied("<p><b>x</b></p>", cleanse)
        assert tags(b.element_children()[0]) == ["b"]


class TestWhitespace:
    def test_runs_collapsed(self, cleanse):
        b = tidied("<p>a   b\n\t c</p>", cleanse)
        p = b.element_children()[0]
        assert p.text_children()[0].text == "a b c"

    def test_pre_preserved(self, cleanse):
        b = tidied("<pre>a   b</pre>", cleanse)
        pre = b.element_children()[0]
        assert pre.text_children()[0].text == "a   b"

    def test_tidy_returns_root(self, cleanse):
        doc = parse_html("<p>x</p>")
        assert cleanse(doc) is doc


class TestIdempotence:
    def test_double_tidy_stable(self, cleanse):
        from repro.dom.treeops import deep_equal, clone

        doc = parse_html("<h2>T<p>p</p></h2><div><li>a<li>b</div><p><b><b>x</b></b></p>")
        cleanse(doc)
        snapshot = clone(doc)
        cleanse(doc)
        assert deep_equal(doc, snapshot)
