"""Catalog of HTML tag classes used by parsing and restructuring.

Section 2.1 divides HTML elements into *block level* elements (document
structure: headings, lists, tables, text containers) and *text level*
elements (inline font markup).  Section 4 lists the concrete tag sets the
authors used for grouping and list detection; those sets are reproduced in
:data:`DEFAULT_GROUP_TAGS` and :data:`DEFAULT_LIST_TAGS`.
"""

from __future__ import annotations

# Elements that never have content or an end tag.
VOID_TAGS = frozenset(
    "area base basefont br col embed frame hr img input isindex link meta param source track wbr".split()
)

# Elements whose raw content is not parsed as markup.
RAW_TEXT_TAGS = frozenset({"script", "style", "textarea", "title", "xmp"})

HEADING_TAGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})

LIST_CONTAINER_TAGS = frozenset({"ul", "ol", "dl", "dir", "menu"})

LIST_ITEM_TAGS = frozenset({"li", "dt", "dd"})

TABLE_TAGS = frozenset({"table", "thead", "tbody", "tfoot", "tr", "td", "th", "caption", "colgroup"})

BLOCK_TAGS = frozenset(
    {
        "address",
        "blockquote",
        "body",
        "center",
        "div",
        "fieldset",
        "form",
        "head",
        "hr",
        "html",
        "p",
        "pre",
    }
    | HEADING_TAGS
    | LIST_CONTAINER_TAGS
    | LIST_ITEM_TAGS
    | TABLE_TAGS
)

INLINE_TAGS = frozenset(
    "a abbr acronym b basefont big cite code em font i kbd s samp small span strike strong sub sup tt u var".split()
)

# Section 4: tags whose repetition signals sibling groups, with grouping
# priority weights (higher weight groups first; headings dominate).
DEFAULT_GROUP_TAG_WEIGHTS: dict[str, int] = {
    "h1": 100,
    "h2": 95,
    "h3": 90,
    "h4": 85,
    "h5": 80,
    "h6": 75,
    "title": 70,
    "div": 60,
    "p": 55,
    "tr": 50,
    "dt": 45,
    "dd": 40,
    "li": 40,
    "u": 30,
    "strong": 30,
    "b": 30,
    "em": 25,
    "i": 25,
}

DEFAULT_GROUP_TAGS = frozenset(DEFAULT_GROUP_TAG_WEIGHTS)

# Section 4: tags "known to exhibit a list structure" for the
# consolidation rule.
DEFAULT_LIST_TAGS = frozenset(
    {"body", "table", "dl", "ul", "ol", "dir", "menu"}
)

# Implied-end-tag policy: opening tag -> set of open tags it closes.
_SIBLING_CLOSERS: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "option": frozenset({"option"}),
    "p": frozenset({"p"}),
    "thead": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "tbody": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "tfoot": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
}

# A new block element implicitly terminates an open paragraph.
_P_CLOSERS = (
    BLOCK_TAGS - {"html", "body", "head"}
) | frozenset({"p"})


# Flat tag -> closed-set table, precomputed once at import so the
# parser's per-start-tag lookup is a single dict probe instead of a set
# construction.  Sorted iteration keeps the table's build order
# deterministic regardless of hash seed.
_EMPTY_TAGSET: frozenset[str] = frozenset()
_CLOSED_BY: dict[str, frozenset[str]] = {}
for _tag in sorted(set(_SIBLING_CLOSERS) | _P_CLOSERS):
    _closed = set(_SIBLING_CLOSERS.get(_tag, _EMPTY_TAGSET))
    if _tag in _P_CLOSERS:
        _closed.add("p")
    _CLOSED_BY[_tag] = frozenset(_closed)
del _tag, _closed


def tags_closed_by(tag: str) -> frozenset[str]:
    """Open tags implicitly closed when ``tag`` starts.

    Models the HTML4 optional-end-tag rules: a ``<li>`` closes a previous
    ``<li>``, any block element closes an open ``<p>``, table parts close
    each other, and so on.
    """
    return _CLOSED_BY.get(tag, _EMPTY_TAGSET)


def is_void(tag: str) -> bool:
    """True for content-less elements such as ``<br>``."""
    return tag in VOID_TAGS


def is_block(tag: str) -> bool:
    """True for block-level elements (Section 2.1)."""
    return tag in BLOCK_TAGS


def is_inline(tag: str) -> bool:
    """True for text-level (inline) elements (Section 2.1)."""
    return tag in INLINE_TAGS


def is_heading(tag: str) -> bool:
    """True for ``h1``..``h6``."""
    return tag in HEADING_TAGS
