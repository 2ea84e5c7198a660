"""Property-based tests: the fast cleanser is the legacy cleanser.

Hypothesis builds tidy-stressing malformed documents -- orphan list
items and table cells, blocks swallowed by unclosed inlines and
headings, empty and doubled inline towers, ``pre`` blocks, whitespace
runs of every flavor -- and asserts that the single-snapshot cleanser
and the six-traversal legacy oracle in ``tests/oracles/`` produce
*identical trees* (tags, attributes, text, and order) -- on raw input
and again on each other's output.  (Tidy itself is not idempotent -- a wrapper created by orphan
wrapping can itself be wrapped on a second run, under *both*
implementations -- so the property is agreement, not fixpointedness.)

This is the property-level wall behind the corpus differential in
test_fast_tidy_differential.py; the fixed edge-case corpus lives in
tests/golden/tidy_edge/.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dom.treeops import clone, deep_equal
from repro.htmlparse.parser import parse_html
from repro.htmlparse.tidy import tidy
from tests.oracles.tidy import tidy_legacy

# ---------------------------------------------------------------------------
# strategies
#
# The alphabet leans into what tidy actually dispatches on: list items
# and table parts (orphan wrapping), headings and blocks (hoisting),
# inlines (empty removal + collapse), pre (whitespace preservation).

tag_names = st.sampled_from(
    [
        "li", "dt", "dd", "tr", "td", "th",
        "ul", "dl", "table", "tbody",
        "h1", "h2", "h3", "div", "p",
        "b", "i", "font", "span", "em",
        "pre", "body",
    ]
)
text_runs = st.sampled_from(
    ["x", "a b", "  ", " \t\n ", "  a  b  ", "zz  z", "\n", ""]
)


@st.composite
def markup_pieces(draw):
    """One tidy-stressing fragment: an open tag (attributes included a
    third of the time), a close tag, or a whitespace-heavy text run --
    deliberately unbalanced so trees arrive malformed."""
    kind = draw(st.integers(0, 9))
    if kind <= 3:
        return draw(text_runs)
    name = draw(tag_names)
    if kind <= 5:
        return f"</{name}>"
    if kind <= 7:
        return f"<{name}>"
    return f'<{name} val="{draw(st.sampled_from(["", "q", "a b"]))}">'


documents = st.lists(markup_pieces(), min_size=0, max_size=20).map("".join)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=300, deadline=None)
@given(documents)
def test_fast_tidy_equals_legacy_tidy(source):
    fast_tree = tidy(parse_html(source))
    legacy_tree = tidy_legacy(parse_html(source))
    assert deep_equal(fast_tree, legacy_tree)


@settings(max_examples=150, deadline=None)
@given(documents)
def test_fast_and_legacy_agree_on_retidy(source):
    """The implementations agree on *already-tidied* trees too: re-tidy
    a legacy-tidied tree under both paths and they still match (tidy is
    not a fixed point -- orphan wrapping can wrap its own wrappers on a
    second run -- but the two implementations must drift identically)."""
    once = tidy_legacy(parse_html(source))
    fast_twice = tidy(clone(once))
    legacy_twice = tidy_legacy(once)
    assert deep_equal(fast_twice, legacy_twice)
