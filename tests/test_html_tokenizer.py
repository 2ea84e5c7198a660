"""Tests for the HTML lexer."""

from repro.htmlparse.tokenizer import Token, TokenType, tokenize
from tests.oracles.tokenizer import tokenize_legacy


def toks(source):
    """Tokenize through the lexer, asserting the legacy oracle agrees.

    Every example in this file is thereby a differential test: the
    returned stream is the production tokenizer's, checked
    token-for-token (source spans included) against the per-character
    oracle in ``tests/oracles/``.
    """
    fast = list(tokenize(source))
    legacy = list(tokenize_legacy(source))
    assert fast == legacy
    assert [(t.start, t.end) for t in fast] == [
        (t.start, t.end) for t in legacy
    ]
    return fast


class TestBasicTokens:
    def test_plain_text(self):
        assert toks("hello") == [Token(TokenType.TEXT, "hello")]

    def test_start_and_end_tag(self):
        result = toks("<p>x</p>")
        assert [t.type for t in result] == [
            TokenType.START_TAG,
            TokenType.TEXT,
            TokenType.END_TAG,
        ]
        assert result[0].data == "p"
        assert result[2].data == "p"

    def test_tag_names_lowercased(self):
        assert toks("<DIV>")[0].data == "div"
        assert toks("</DIV>")[0].data == "div"

    def test_self_closing_flag(self):
        assert toks("<br/>")[0].self_closing is True
        assert toks("<br>")[0].self_closing is False

    def test_comment(self):
        result = toks("<!-- note -->")
        assert result == [Token(TokenType.COMMENT, " note ")]

    def test_unterminated_comment_consumes_rest(self):
        result = toks("<!-- oops <p>never</p>")
        assert result[0].type is TokenType.COMMENT
        assert len(result) == 1

    def test_doctype(self):
        result = toks("<!DOCTYPE html>")
        assert result[0].type is TokenType.DOCTYPE
        assert "DOCTYPE" in result[0].data

    def test_processing_instruction_skipped(self):
        assert toks("<?xml version='1.0'?>after")[0].data == "after"

    def test_cdata_section_is_literal_text(self):
        result = toks("<p><![CDATA[a < b & c]]></p>")
        assert result[1] == Token(TokenType.TEXT, "a < b & c")

    def test_unterminated_cdata_runs_to_eof(self):
        result = toks("<![CDATA[abc")
        assert result == [Token(TokenType.TEXT, "abc")]


class TestAttributes:
    def test_double_quoted(self):
        tok = toks('<a href="x.html">')[0]
        assert tok.attrs == {"href": "x.html"}

    def test_single_quoted(self):
        tok = toks("<a href='x.html'>")[0]
        assert tok.attrs == {"href": "x.html"}

    def test_unquoted(self):
        tok = toks("<table border=1>")[0]
        assert tok.attrs == {"border": "1"}

    def test_valueless_attribute(self):
        tok = toks("<input disabled>")[0]
        assert tok.attrs == {"disabled": ""}

    def test_attr_names_lowercased(self):
        tok = toks('<a HREF="x">')[0]
        assert "href" in tok.attrs

    def test_first_duplicate_wins(self):
        tok = toks('<a x="1" x="2">')[0]
        assert tok.attrs["x"] == "1"

    def test_entities_in_attr_values(self):
        tok = toks('<a title="a&amp;b">')[0]
        assert tok.attrs["title"] == "a&b"


class TestMalformedInput:
    def test_stray_less_than_in_text(self):
        result = toks("a < b")
        assert "".join(t.data for t in result if t.type is TokenType.TEXT) == "a < b"

    def test_stray_close_marker(self):
        result = toks("a </ b")
        assert all(t.type is TokenType.TEXT for t in result)

    def test_unterminated_tag_at_eof(self):
        result = toks("<p foo")
        assert result[0].type is TokenType.START_TAG

    def test_entities_decoded_in_text(self):
        result = toks("fish &amp; chips")
        assert result[0].data == "fish & chips"


class TestRawText:
    def test_script_content_not_parsed(self):
        result = toks("<script>if (a<b) x();</script>after")
        assert result[0].data == "script"
        assert result[1] == Token(TokenType.TEXT, "if (a<b) x();")
        assert result[2].data == "script"
        assert result[3].data == "after"

    def test_style_content_not_parsed(self):
        result = toks("<style>p > a { }</style>")
        assert result[1].data == "p > a { }"

    def test_unclosed_script_runs_to_eof(self):
        result = toks("<script>var x = 1;")
        assert result[1].data == "var x = 1;"

    def test_case_insensitive_close(self):
        result = toks("<script>x</SCRIPT>")
        assert result[2].type is TokenType.END_TAG
