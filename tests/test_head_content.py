"""Head content is parsed under ``head`` and never reaches the rules.

A browser renders the body; ``style`` and ``script`` in the head are
read, not shown.  The parser keeps head content under ``head`` and the
converter lifts only the document ``<title>`` out of it, so the CSS and
JS of a portal page no longer run through tokenize and instance or land
in ``RESUME/@val``.  The portal pages here are the benchmark's own
inputs (``perfbench/common.py:portal_sources``), imported as the
benchmark runs them.
"""

from __future__ import annotations

import importlib.util
import re
import statistics
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PORTAL = ROOT / "tests" / "golden" / "portal_table-chrome.html"

# Text a browser never renders, as it appears in a converted document.
HEAD_MARKERS = ("document.write", "font-size", "var v0")

RAW_HEAD_CHILD = re.compile(r"(<(style|script)>)(.*?)(</\2>)", re.DOTALL)


@pytest.fixture(scope="module")
def bench_common():
    """``perfbench/common.py``, loaded without writing bytecode there."""
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_common", ROOT / "perfbench" / "common.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


@pytest.fixture(scope="module")
def portal_pages(bench_common):
    return bench_common.portal_sources(5, 40)


def test_golden_portal_is_the_benchmark_page(bench_common):
    """The golden portal page is page 14 of ``portal_sources(41, ...)``,
    whose script once converted into a ``DATE``."""
    assert GOLDEN_PORTAL.read_text() == bench_common.portal_sources(41, 15)[14]


def test_script_text_builds_no_date(converter):
    xml = converter.convert(GOLDEN_PORTAL.read_text()).to_xml()
    dates = re.findall(r'<DATE val="([^"]*)"', xml)
    assert dates
    assert not [value for value in dates if "var " in value]
    assert "Portal 14" in xml  # the title still leads the document


def test_no_portal_conversion_holds_head_css_or_js(converter, portal_pages):
    for page in portal_pages:
        xml = converter.convert(page).to_xml()
        assert not [marker for marker in HEAD_MARKERS if marker in xml]


def test_portal_chrome_leaves_fewer_unidentified_tokens(converter, portal_pages):
    """Head CSS/JS used to leave a median 68.5 tokens per page
    unidentified on these 40 pages; the nav and footer cells, which are
    visible content, leave about 30."""
    unidentified = [
        converter.convert(page).instance_stats.unidentified for page in portal_pages
    ]
    assert statistics.median(unidentified) <= 32


raw_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200
).filter(lambda text: "</" not in text)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_head_raw_text_does_not_change_the_output(converter, portal_pages, data):
    """Any ``style``/``script`` text in the head converts to the same
    bytes.  (Text holding ``</`` could close the element early and is
    not drawn.)"""
    page = data.draw(st.sampled_from(portal_pages[:8] + [GOLDEN_PORTAL.read_text()]))
    head_end = page.index("</head>")
    head, rest = page[:head_end], page[head_end:]
    assert len(RAW_HEAD_CHILD.findall(head)) == 2

    def replace(match):
        return match.group(1) + data.draw(raw_text) + match.group(4)

    changed = RAW_HEAD_CHILD.sub(replace, head) + rest
    assert converter.convert(changed).to_xml() == converter.convert(page).to_xml()
