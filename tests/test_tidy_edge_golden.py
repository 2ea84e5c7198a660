"""Cleanser edge-case corpus with pinned output, under tidy and its oracle.

Every case in tests/golden/tidy_edge/ stresses one fix-up pass or an
interaction between passes -- heading/inline block hoists (including the
``<h2><i><div>`` chain whose legacy pass ordering the fast path must
reproduce exactly), orphan list/table wrapping with whitespace gaps,
empty-inline cascades, redundant-inline towers, ``pre`` whitespace
preservation, ``val``-bearing empty inlines, and unclosed-tag soup.  The
expected files pin the *serialized tidied tree* (parse + tidy, no
conversion rules), so a behavior change in either implementation -- the
production cleanser or the legacy oracle in ``tests/oracles/`` -- fails
here even if the two drift together.

When a future fuzz run finds a diverging document, the fix lands with
the document added to this corpus.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.dom.serialize import to_xml_document
from repro.htmlparse.parser import parse_html
from repro.htmlparse.tidy import tidy
from tests.oracles.tidy import tidy_legacy

EDGE_DIR = Path(__file__).parent / "golden" / "tidy_edge"

CASES = sorted(path.stem for path in EDGE_DIR.glob("*.html"))


def test_corpus_present():
    assert len(CASES) >= 12, "tidy_edge corpus went missing"


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("cleanse", [tidy, tidy_legacy], ids=["fast", "legacy"])
def test_pinned_tidy_output(name, cleanse):
    html = (EDGE_DIR / f"{name}.html").read_text()
    expected = (EDGE_DIR / f"{name}.expected.xml").read_text()
    assert to_xml_document(cleanse(parse_html(html))) == expected
