"""Fuzz-regression corpus: pathological HTML with pinned parse output.

Every case in tests/golden/parser_edge/ is a construct that tripped (or
plausibly could trip) one tokenizer lane -- unterminated comments and
CDATA, stray angle brackets, exotic whitespace in attribute position,
unquoted CGI URLs, truncated entities at EOF, duplicate attributes,
raw-text close-tag casing, implied table end tags -- and the tree
builder's head mode (the ``head_*`` cases: explicit, implied and
unclosed heads, what ends one, a second ``<head>``).  The expected files
pin the *serialized parse tree* (no tidy, no conversion rules), so a
behavior change in either tokenizer -- the production lexer or the
legacy oracle in ``tests/oracles/`` -- fails here even if the two drift
together.

When a future fuzz run finds a diverging document, the fix lands with
the document added to this corpus.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.dom.serialize import to_xml_document
from repro.htmlparse.parser import parse_html
from tests.oracles import swapped

EDGE_DIR = Path(__file__).parent / "golden" / "parser_edge"

CASES = sorted(path.stem for path in EDGE_DIR.glob("*.html"))


def test_corpus_present():
    assert len(CASES) >= 15, "parser_edge corpus went missing"


def parse_legacy(html):
    """``parse_html`` with the legacy tokenizer swapped in."""
    with swapped("parser") as calls:
        tree = parse_html(html)
    assert calls["parser"] == 1
    return tree


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("parse", [parse_html, parse_legacy], ids=["fast", "legacy"])
def test_pinned_parse_output(name, parse):
    html = (EDGE_DIR / f"{name}.html").read_text()
    expected = (EDGE_DIR / f"{name}.expected.xml").read_text()
    assert to_xml_document(parse(html)) == expected
