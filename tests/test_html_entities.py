"""Tests for character-reference decoding."""

import pytest

from repro.htmlparse.entities import (
    _CACHE_LIMIT,
    _DECODE_CACHE,
    decode_entities,
)
from tests.oracles.entities import decode_entities_slow


class TestNamedEntities:
    def test_core_entities(self):
        assert decode_entities("&amp;&lt;&gt;&quot;") == '&<>"'

    def test_nbsp_becomes_space(self):
        assert decode_entities("a&nbsp;b") == "a b"

    def test_missing_semicolon_tolerated(self):
        assert decode_entities("AT&amp T") == "AT& T"

    def test_unknown_entity_left_verbatim(self):
        assert decode_entities("&frobnicate;") == "&frobnicate;"

    def test_case_fallback(self):
        assert decode_entities("&AMP;") == "&"

    def test_typographic_entities(self):
        assert decode_entities("&ldquo;hi&rdquo;") == "“hi”"
        assert decode_entities("&mdash;") == "—"


class TestNumericEntities:
    def test_decimal(self):
        assert decode_entities("&#65;") == "A"

    def test_hexadecimal(self):
        assert decode_entities("&#x41;&#X42;") == "AB"

    def test_out_of_range_left_verbatim(self):
        assert decode_entities("&#1114112;") == "&#1114112;"

    def test_zero_left_verbatim(self):
        assert decode_entities("&#0;") == "&#0;"


class TestEdgeCases:
    def test_no_ampersand_fast_path(self):
        text = "plain text"
        assert decode_entities(text) is text

    def test_bare_ampersand_kept(self):
        assert decode_entities("fish & chips") == "fish & chips"

    def test_adjacent_entities(self):
        assert decode_entities("&lt;&lt;") == "<<"


class TestTruncatedReferences:
    """References cut off at end of input (no terminating semicolon)."""

    def test_truncated_decimal_decodes(self):
        assert decode_entities("&#65") == "A"

    def test_truncated_hex_decodes(self):
        assert decode_entities("&#x41") == "A"
        assert decode_entities("&#X41") == "A"

    def test_bare_hash_kept_verbatim(self):
        # '&#' has no digits: not reference-shaped, stays untouched.
        assert decode_entities("&#") == "&#"

    def test_bare_hex_prefix_is_a_failed_decimal(self):
        # '&#x' matches the numeric shape ('x' is a hex-alphabet char)
        # but int('x', 10) fails, so it stays verbatim.
        assert decode_entities("&#x") == "&#x"

    def test_hex_digits_without_x_kept_verbatim(self):
        # '&#6f' parses as a decimal body with a hex letter: int('6f',
        # 10) fails and the lexeme survives verbatim.
        assert decode_entities("&#6f") == "&#6f"

    def test_truncated_named_decodes(self):
        assert decode_entities("&amp") == "&"
        assert decode_entities("x&nbsp") == "x "


class TestFastSlowAgreement:
    """The split-based decoder and the sub-callback oracle agree."""

    SAMPLES = [
        "",
        "plain",
        "&",
        "&&&",
        "&amp;&amp&AMP;&aMp;",
        "&#65;&#65&#x41;&#x41&#&#x&#6f&#0;&#1114112;",
        "a&bogus;b&bogus c&frobnicate123;",
        "/cgi?a=1&amp;b=2&amp;c=3",
        "&nbsp;&middot;&copy;&euro;&eacute;",
        "tail&",
        "&;",
        "&#xZZ;",
        "mixed &lt;tag&gt; &#38; more&hellip;",
    ]

    @pytest.mark.parametrize("text", SAMPLES)
    def test_agreement(self, text):
        assert decode_entities(text) == decode_entities_slow(text)


class TestDecodeCache:
    def test_seeded_with_named_entities(self):
        assert _DECODE_CACHE["&amp;"] == "&"
        assert _DECODE_CACHE["&amp"] == "&"

    def test_warms_on_new_lexemes(self):
        # A lexeme nobody else uses: decoding it populates the table.
        lexeme = "&zzcachewarm123;"
        _DECODE_CACHE.pop(lexeme, None)
        if len(_DECODE_CACHE) < _CACHE_LIMIT:
            assert decode_entities(lexeme) == lexeme
            assert _DECODE_CACHE.get(lexeme) == lexeme
            _DECODE_CACHE.pop(lexeme, None)

    def test_cache_result_is_correct_on_repeat(self):
        # Second decode of the same lexeme comes from the cache and must
        # equal the oracle's answer.
        text = "&eacute;&eacute;"
        assert decode_entities(text) == decode_entities_slow(text) == "éé"
