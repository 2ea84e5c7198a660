"""Streaming HTML lexer.

Produces a flat token stream (start tags, end tags, text, comments,
doctype) that :mod:`repro.htmlparse.parser` assembles into a tree.  The
lexer is forgiving in the ways early-2000s HTML demands: unquoted
attribute values, missing value (``<input disabled>``), stray ``<``
characters in text, and unterminated comments at end of input.

The lexer scans in bulk with ``str.find`` and combined regexes: text
runs, comments, raw-text bodies, and attribute name/value pairs are each
consumed in a single slice or regex match instead of per-character
cursor stepping, and the source is lower-cased at most once per
document.  Its oracle is the original per-character scanner, kept
verbatim in ``tests/oracles/tokenizer.py``; the comments below that
speak of "the legacy scanner" mean that oracle.  The property and
differential suites assert both emit identical token streams (spans
included) on golden, generated, and randomly fuzzed input.

Every token records the half-open source span ``[start, end)`` it was
lexed from.  Spans are bookkeeping, not identity: they are excluded
from token equality so handwritten ``Token(...)`` literals in tests
keep comparing equal.  Concatenating the spans of a token stream
reconstructs the input exactly, except across skipped processing
instructions (``<?...>``), which emit no token.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, NamedTuple

from repro.htmlparse.entities import decode_entities
from repro.htmlparse.taginfo import RAW_TEXT_TAGS


class TokenType(enum.Enum):
    """Kinds of lexical tokens."""

    START_TAG = "start"
    END_TAG = "end"
    TEXT = "text"
    COMMENT = "comment"
    DOCTYPE = "doctype"


# Shared read-only default for tokens without attributes (text, end
# tags, comments, attribute-less start tags).  Never mutate a token's
# ``attrs`` in place -- tree construction copies it into the element.
_NO_ATTRS: dict[str, str] = {}


class Token(NamedTuple):
    """One lexical token.

    ``data`` holds the tag name (lower-cased) for tags, the text for text
    tokens, and the raw body for comments/doctypes.  ``self_closing`` marks
    XML-style ``<br/>`` syntax on start tags.  ``start``/``end`` delimit
    the source slice the token was lexed from (``-1`` when constructed by
    hand); they do not participate in equality.

    A NamedTuple rather than a dataclass: token construction is the
    per-token floor of the lexer's hot loop, and tuple construction is a
    single C call.
    """

    type: TokenType
    data: str
    attrs: dict[str, str] = _NO_ATTRS
    self_closing: bool = False
    start: int = -1
    end: int = -1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Token):
            return (
                self.type is other.type
                and self.data == other.data
                and self.attrs == other.attrs
                and self.self_closing == other.self_closing
            )
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # Like the dataclass it replaces (eq=True, frozen=False), Token is
    # not hashable.
    __hash__ = None  # type: ignore[assignment]


_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:_-]*")

# One attribute (or a lone "/") per match, replicating the legacy
# scanner's semantics exactly: names stop at whitespace/=//>, quoted
# values run to the matching quote or EOF (the closing quote optional),
# unquoted values stop only at space/tab/newline/CR/">" -- NOT at other
# regex-\s characters such as \f or \xa0, which the legacy per-char loop
# keeps inside the value.  Groups: 1=slash, 2=name, 3=double-quoted,
# 4=single-quoted, 5=unquoted.
_FAST_ATTR_RE = re.compile(
    r"\s*"
    r"(?:"
    r"(/)"
    r"|([^\s=/>]+)"
    r"(?:\s*=\s*"
    r"(?:\"([^\"]*)\"?"
    r"|'([^']*)'?"
    r"|([^ \t\n\r>]*)"
    r"))?"
    r")?"
)

# Re-parses the attribute text captured by the master regex's start-tag
# alternative (already known to be easy): name, then optionally =value
# with the same three shapes.  Unquoted values replicate the legacy
# scanner exactly: they terminate only at space/tab/newline/CR/'>', so
# '/', '=', '<', quotes, and exotic whitespace stay inside the value
# ('<a href=http://x/y>' keeps the full URL; '<br x=1/>' puts the slash
# in the value and is NOT self-closing, matching the per-char loop).
# The first character additionally excludes quotes (so an unterminated
# quoted value like '<a x="v>' cannot misparse as unquoted) and every
# regex-\s character: the legacy scanner skips *any* unicode whitespace
# after '=' before reading the value, so a value starting with \f or
# \xa0 ('<a x=\f>') must fall to the hard lane rather than keep the
# whitespace the per-char loop would have skipped.
_EASY_ATTR_RE = re.compile(
    r"([^\s=/>]+)"
    r"(?:=(?:\"([^\"]*)\"|'([^']*)'|([^\s>\"'][^ \t\n\r>]*)))?"
)

# The master lexing regex: one C-level match consumes a text run plus
# the following markup construct -- up to two tokens per match, halving
# the Python loop iterations.  Markup alternatives in legacy-dispatch
# order -- easy start tag, end tag, comment, CDATA, doctype, processing
# instruction, or bare end-of-input after trailing text.  ``\Z`` (not
# ``$``, which also matches before a trailing newline) marks the
# run-to-EOF forms of unterminated constructs.  Group layout:
#   1 = text run (always participates, possibly empty)
#   2/3/4 = start-tag name/attr text/slash      5 = end-tag name
#   6 = comment body   7 = CDATA body   8 = doctype body
#   (no group: processing instruction)
# Dispatch is on ``m.lastindex``: 4 start (groups 3 and 4 always
# participate), 5 end, 6 comment, 7 CDATA, 8 doctype, and 1 for
# text-only matches (trailing text, or a skipped PI).  A start tag with
# hard attributes (stray '=', '=' with spacing around it, unterminated
# quote, missing '>', exotic whitespace such as '\f' or '\xa0'
# *between* attributes -- the legacy scanner skips it there but keeps
# it *inside* unquoted values, hence the ASCII-only separators here)
# fails the whole match, as do stray '<' and '</'; those fall to the
# per-attribute hard lane below, after the pending text run is emitted.
_MASTER_RE = re.compile(
    r"([^<]*)"
    r"(?:"
    r"<([a-zA-Z][a-zA-Z0-9:_-]*)"
    r"((?:[ \t\n\r]+[^\s=/>]+"
    r"(?:=(?:\"[^\"]*\"|'[^']*'|[^\s>\"'][^ \t\n\r>]*))?)*)"
    r"[ \t\n\r]*(/?)>"
    r"|</([a-zA-Z][a-zA-Z0-9:_-]*)[^>]*(?:>|\Z)"
    r"|<!--(.*?)(?:-->|\Z)"
    r"|<!\[CDATA\[(.*?)(?:\]\]>|\Z)"
    r"|<!([^>]*)(?:>|\Z)"
    r"|<\?[^>]*(?:>|\Z)"
    r"|\Z"
    r")",
    re.DOTALL,
)


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens for an HTML source string.

    Content of raw-text elements (``script``, ``style``, ...) is emitted
    as a single TEXT token terminated only by the matching end tag.
    """
    return iter(_tokenize_fast(source))


def _tokenize_fast(source: str) -> list[Token]:
    src = source
    n = len(src)
    pos = 0
    tokens: list[Token] = []
    append = tokens.append
    master_match = _MASTER_RE.match
    attr_match = _FAST_ATTR_RE.match
    easy_attr_findall = _EASY_ATTR_RE.findall
    name_match = _TAG_NAME_RE.match
    decode = decode_entities
    # ``tuple.__new__`` bypasses the NamedTuple's generated Python-level
    # ``__new__`` -- token construction is the per-token floor of this
    # loop, and the direct C constructor is ~2x cheaper.
    new_token = tuple.__new__
    token_cls = Token
    lowered: str | None = None  # src.lower(), computed at most once
    TEXT = TokenType.TEXT
    START_TAG = TokenType.START_TAG
    END_TAG = TokenType.END_TAG
    COMMENT = TokenType.COMMENT
    DOCTYPE = TokenType.DOCTYPE
    raw_text_tags = RAW_TEXT_TAGS
    no_attrs = _NO_ATTRS
    while pos < n:
        m = master_match(src, pos)
        if m is not None:
            kind = m.lastindex
            end = m.end()
            text = m[1]
            if text:
                # The text run preceding the markup construct.
                tend = pos + len(text)
                append(
                    new_token(
                        token_cls,
                        (
                            TEXT,
                            decode(text) if "&" in text else text,
                            no_attrs,
                            False,
                            pos,
                            tend,
                        ),
                    )
                )
                pos = tend
            if kind == 1:
                # Text-only match: trailing text at end of input, or a
                # skipped processing instruction (no token).
                pos = end
                continue
            if kind == 4:
                # Easy start tag: name, attr text, self-closing slash.
                name = m[2].lower()
                attr_text = m[3]
                if attr_text:
                    attrs = {}
                    # findall builds the (name, dq, sq, uq) rows in C.
                    # Exactly one value group can be non-empty, so
                    # ``dq or sq or uq`` picks it; a valueless attribute
                    # and an explicitly empty value both yield "" --
                    # which is also what the legacy scanner produces.
                    for attr_name, dq, sq, uq in easy_attr_findall(
                        attr_text
                    ):
                        attr_name = attr_name.lower()
                        if attr_name not in attrs:
                            value = dq or sq or uq
                            attrs[attr_name] = (
                                decode(value) if "&" in value else value
                            )
                else:
                    attrs = no_attrs
                self_closing = m[4] == "/"
                append(
                    new_token(
                        token_cls,
                        (START_TAG, name, attrs, self_closing, pos, end),
                    )
                )
                pos = end
                if self_closing or name not in raw_text_tags:
                    continue
                # Raw-text body: single bulk find over the (lazily
                # computed, cached) lower-cased source.
                if lowered is None:
                    lowered = src.lower()
                stop = lowered.find("</" + name, pos)
                if stop == -1:
                    stop = n
                if stop > pos:
                    append(
                        new_token(
                            token_cls,
                            (TEXT, src[pos:stop], no_attrs, False, pos, stop),
                        )
                    )
                pos = stop
                continue
            if kind == 5:
                append(
                    new_token(
                        token_cls,
                        (END_TAG, m[5].lower(), no_attrs, False, pos, end),
                    )
                )
                pos = end
                continue
            if kind == 6:
                append(
                    new_token(
                        token_cls, (COMMENT, m[6], no_attrs, False, pos, end)
                    )
                )
                pos = end
                continue
            if kind == 7:
                # CDATA content is literal character data (no entity
                # decoding).
                append(
                    new_token(
                        token_cls, (TEXT, m[7], no_attrs, False, pos, end)
                    )
                )
                pos = end
                continue
            if kind == 8:
                append(
                    new_token(
                        token_cls,
                        (DOCTYPE, m[8].strip(), no_attrs, False, pos, end),
                    )
                )
                pos = end
                continue
            # No group matched: processing instruction -- skipped,
            # no token.
            pos = end
            continue
        # The master regex failed: somewhere ahead is a '<' that is a
        # stray '<', a stray '</' (the end-tag alternative only fails on
        # a bad name), or a start tag with hard attributes.  (A '<'
        # must exist -- text followed by end-of-input always matches.)
        # Emit the plain text run before it, then take the hard lane.
        lt = src.find("<", pos)
        if lt > pos:
            text = src[pos:lt]
            append(
                new_token(
                    token_cls,
                    (
                        TEXT,
                        decode(text) if "&" in text else text,
                        no_attrs,
                        False,
                        pos,
                        lt,
                    ),
                )
            )
            pos = lt
        token_start = pos
        if src[pos + 1 : pos + 2] == "/":
            # Stray '</' -- emit as text.
            pos += 2
            append(Token(TEXT, "</", no_attrs, False, token_start, pos))
            continue
        match = name_match(src, pos + 1)
        if not match:
            # Stray '<' in text.
            pos += 1
            append(Token(TEXT, "<", no_attrs, False, token_start, pos))
            continue
        # The hard lane: a tag the master regex refused (stray '=',
        # unterminated quote, entity or '/' inside a value, missing
        # '>', ...).  One combined regex match per attribute, replaying
        # the legacy scanner's decisions exactly.
        name = match.group(0).lower()
        pos = match.end()
        attrs = {}
        self_closing = False
        while True:
            m = attr_match(src, pos)
            attr_name = m.group(2)
            if attr_name is None:
                if m.group(1):
                    pos = m.end()
                    if src[pos : pos + 1] == ">":
                        self_closing = True
                    continue
                # Only whitespace matched: the next char is '>', EOF, or
                # a stray '=' (which the legacy scanner skips one-by-one).
                pos = m.end()
                if pos >= n or src[pos] == ">":
                    break
                pos += 1
                continue
            pos = m.end()
            attr_name = attr_name.lower()
            if attr_name not in attrs:
                value = m.group(3)
                if value is None:
                    value = m.group(4)
                if value is None:
                    value = m.group(5)
                if value is None:
                    value = ""
                attrs[attr_name] = decode(value) if "&" in value else value
        if pos < n and src[pos] == ">":
            pos += 1
        append(Token(START_TAG, name, attrs, self_closing, token_start, pos))
        if name in raw_text_tags and not self_closing:
            if lowered is None:
                lowered = src.lower()
            stop = lowered.find("</" + name, pos)
            if stop == -1:
                stop = n
            if stop > pos:
                append(Token(TEXT, src[pos:stop], no_attrs, False, pos, stop))
            pos = stop
    return tokens
