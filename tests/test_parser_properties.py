"""Property-based tests: the fast tokenizer is the legacy tokenizer.

Hypothesis builds adversarial HTML-ish documents -- well-formed markup,
truncated constructs, stray angle brackets, exotic whitespace, entity
fragments -- and asserts the bulk-scanning tokenizer and the legacy
per-character scanner in ``tests/oracles/`` are indistinguishable:

* identical token streams, source spans included,
* identical parse trees after tree construction, and
* the span invariant: every token covers ``source[start:end]``, tokens
  tile the document in order with no gaps and no overlaps.

This is the property-level wall behind the corpus differential in
test_fast_parser_differential.py; the fixed fuzz-regression corpus
lives in tests/golden/parser_edge/.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dom.node import Element
from repro.htmlparse.entities import decode_entities
from repro.htmlparse.parser import parse_html
from repro.htmlparse.tokenizer import tokenize
from tests.oracles import swapped
from tests.oracles.entities import decode_entities_slow
from tests.oracles.tokenizer import tokenize_legacy

# ---------------------------------------------------------------------------
# strategies

tag_names = st.sampled_from(
    ["p", "b", "div", "li", "td", "table", "br", "a", "script", "style", "x-y"]
)
attr_names = st.sampled_from(["href", "class", "id", "width", "align", "data-x"])
attr_values = st.text(
    alphabet="abcdef012 /=&;#?'\"<>\t é",
    min_size=0,
    max_size=12,
)
text_runs = st.text(
    alphabet="abc &;#<>/!-x\t\n é中",
    min_size=0,
    max_size=16,
)


@st.composite
def markup_pieces(draw):
    """One HTML-ish fragment: markup, malformed markup, or text."""
    kind = draw(st.integers(0, 9))
    if kind <= 2:
        return draw(text_runs)
    if kind <= 4:
        name = draw(tag_names)
        attrs = ""
        for _ in range(draw(st.integers(0, 2))):
            attr = draw(attr_names)
            value = draw(attr_values)
            quote = draw(st.sampled_from(['"', "'", ""]))
            attrs += f" {attr}={quote}{value}{quote}"
        slash = draw(st.sampled_from(["", "/", " /"]))
        return f"<{name}{attrs}{slash}>"
    if kind == 5:
        return f"</{draw(tag_names)}>"
    if kind == 6:
        return draw(
            st.sampled_from(
                ["<!-- c -->", "<!--", "<!-- -->", "<!DOCTYPE html>",
                 "<![CDATA[x]]>", "<![CDATA[", "<?php ?>", "<?x"]
            )
        )
    if kind == 7:
        return draw(
            st.sampled_from(
                ["<", "</", "<3", "< p>", "<a", "<a x", "<a x=", "<a x='v",
                 '<a x="v', "<a x=v", "=", ">", "]]>", "-->"]
            )
        )
    if kind == 8:
        return draw(
            st.sampled_from(
                ["&amp;", "&amp", "&", "&#65", "&#x41;", "&#", "&#x",
                 "&bogus;", "&#6f", "&nbsp;"]
            )
        )
    return draw(st.sampled_from(["<script>a<b</script>", "<style>x{",
                                 "<SCRIPT>y</SCRIPT>", "<title>t</title>"]))


documents = st.lists(markup_pieces(), min_size=0, max_size=12).map("".join)


def token_tuples(tokens):
    return [
        (t.type, t.data, t.attrs, t.self_closing, t.start, t.end)
        for t in tokens
    ]


def tree_shape(node):
    if isinstance(node, Element):
        return (
            node.tag,
            tuple(sorted(node.attrs.items())),
            tuple(tree_shape(child) for child in node.children),
        )
    return ("#text", node.text)


# ---------------------------------------------------------------------------
# properties


class TestTokenizerEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_token_streams_identical(self, source):
        assert token_tuples(tokenize(source)) == token_tuples(
            tokenize_legacy(source)
        )

    @settings(max_examples=150, deadline=None)
    @given(documents)
    def test_parse_trees_identical(self, source):
        fast_tree = tree_shape(parse_html(source))
        with swapped("parser") as calls:
            legacy_tree = tree_shape(parse_html(source))
        assert calls["parser"] == 1
        assert fast_tree == legacy_tree


class TestSpanInvariants:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_spans_tile_the_source(self, source):
        """Tokens carry exact source coverage: in-order, gap-free,
        overlap-free, ending at EOF whenever any token was emitted.
        Processing instructions are the one construct both tokenizers
        consume without emitting a token, so they are assumed away."""
        assume("<?" not in source)
        tokens = list(tokenize(source))
        cursor = 0
        for token in tokens:
            assert token.start == cursor
            assert token.end >= token.start
            cursor = token.end
        if tokens:
            assert cursor == len(source)
        else:
            assert source == ""

    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_legacy_spans_tile_too(self, source):
        assume("<?" not in source)
        tokens = list(tokenize_legacy(source))
        cursor = 0
        for token in tokens:
            assert token.start == cursor
            cursor = token.end
        if tokens:
            assert cursor == len(source)


class TestEntityDecoderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="abf012 &;#xX<>é", min_size=0, max_size=40))
    def test_flat_decoder_matches_oracle(self, text):
        assert decode_entities(text) == decode_entities_slow(text)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="ab ", min_size=0, max_size=20))
    def test_no_ampersand_is_identity(self, text):
        assert decode_entities(text) is text
