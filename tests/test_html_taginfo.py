"""Tests for the HTML tag catalog."""

from repro.htmlparse.taginfo import (
    is_block,
    is_heading,
    is_inline,
    is_void,
    tags_closed_by,
)


class TestClassification:
    def test_void_tags(self):
        assert is_void("br") and is_void("hr") and is_void("img")
        assert not is_void("p")

    def test_block_vs_inline_disjoint(self):
        for tag in ("p", "div", "ul", "table", "h1"):
            assert is_block(tag) and not is_inline(tag)
        for tag in ("b", "i", "font", "span", "a"):
            assert is_inline(tag) and not is_block(tag)

    def test_heading_levels(self):
        assert is_heading("h1") and is_heading("h6")
        assert not is_heading("h7") and not is_heading("p")


class TestImpliedEndTags:
    def test_li_closes_li(self):
        assert "li" in tags_closed_by("li")

    def test_dt_dd_mutual(self):
        assert {"dt", "dd"} <= tags_closed_by("dt")
        assert {"dt", "dd"} <= tags_closed_by("dd")

    def test_block_closes_paragraph(self):
        for tag in ("div", "ul", "table", "h2", "p"):
            assert "p" in tags_closed_by(tag)

    def test_inline_does_not_close_paragraph(self):
        assert "p" not in tags_closed_by("b")
        assert tags_closed_by("span") == frozenset()

    def test_table_parts(self):
        assert {"td", "th"} <= tags_closed_by("tr")
        assert "tr" in tags_closed_by("tr")
        assert {"td", "th"} <= tags_closed_by("td")
