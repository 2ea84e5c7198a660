"""Tree construction from the HTML token stream.

Implements the forgiving subset of the HTML4/DOM tree-building rules the
paper's document model requires:

* void elements never open a scope,
* optional end tags are implied (``<li>``, ``<p>``, table parts),
* mismatched end tags close intervening open elements when a matching
  open element exists, and are dropped otherwise,
* everything is rooted under ``html > body`` even when those tags are
  missing from the source,
* head content is parsed under ``head`` (HTML's "in head" insertion
  mode): head mode starts at ``<head>``, or at a head-content start tag
  (``title``, ``base``, ``link``, ``meta``, ``script``, ``style``) that
  arrives before any body content, as HTML implies ``<head>``.  It ends
  at ``</head>``, at ``<body>``, or at any other start tag or
  non-whitespace text, as an implied ``</head>`` (whitespace-only text
  is dropped everywhere).  Head content after that stays in the body,
  and a later ``<head>`` starts no head mode.  What a browser does not
  render therefore never reaches the restructuring rules, which read
  the body alone.

Comments and doctype tokens are discarded: they carry no information the
restructuring rules use.

The builder counts the nodes it creates as it goes; every one of them
ends up in the finished tree (adjacent text merges into one node), so
:func:`parse_html_counted` hands the converter the input size without a
second walk.
"""

from __future__ import annotations

import re

from repro.dom.node import Element, Text
from repro.htmlparse.taginfo import is_void, tags_closed_by
from repro.htmlparse.tokenizer import TokenType, tokenize

_WHITESPACE_ONLY_RE = re.compile(r"^\s*$")

# Structural tags handled specially at the document level.
_DOCUMENT_TAGS = frozenset({"html", "head", "body"})

# HTML 4.01's head content: what a browser reads but never renders.
_HEAD_CONTENT = frozenset({"title", "base", "link", "meta", "script", "style"})


class _TreeBuilder:
    """Assembles tokens into an element tree."""

    def __init__(self, *, fragment: bool) -> None:
        self.fragment = fragment
        if fragment:
            self.root = Element("#fragment")
            self.body = self.root
            self.nodes = 1
        else:
            self.root = Element("html")
            self.body = Element("body")
            self.nodes = 2
        self.stack: list[Element] = [self.body]
        self.head: Element | None = None
        # Start and end tags that address the document's own structure.
        self.document_tags = frozenset() if fragment else _DOCUMENT_TAGS
        # True until the first body content: head mode may still start
        # (``head`` is None) or is running (``head`` heads the stack).
        # Once it is False the builder pays one test per token for head
        # mode and nothing more.
        self.before_body = not fragment

    # -- stack helpers ---------------------------------------------------

    def _current(self) -> Element:
        return self.stack[-1]

    def _close_implied(self, tag: str) -> None:
        closers = tags_closed_by(tag)
        if not closers:
            return
        while len(self.stack) > 1 and self._current().tag in closers:
            self.stack.pop()

    # -- token handlers ----------------------------------------------------

    def start_tag(self, name: str, attrs: dict[str, str], self_closing: bool) -> None:
        if self.before_body and self._head_start_tag(name, attrs):
            return
        if name in self.document_tags:
            self._document_tag(name, attrs)
            return
        self._close_implied(name)
        element = Element(name, attrs)
        self.stack[-1].adopt_new(element)
        self.nodes += 1
        if not is_void(name) and not self_closing:
            self.stack.append(element)

    def _head_start_tag(self, name: str, attrs: dict[str, str]) -> bool:
        """A start tag before any body content: open head mode (``head``
        or implied by head content), or end it (``body`` and any other
        tag).  True when the tag is consumed here; head content is then
        adopted by :meth:`start_tag` under the open ``head``."""
        if name in _HEAD_CONTENT:
            if self.head is None:
                self._open_head({})
            return False
        if name == "head":
            if self.head is None:
                self._open_head(attrs)
            return True
        if name != "html":
            self._end_head()
        return False

    def _open_head(self, attrs: dict[str, str]) -> None:
        self.head = Element("head", attrs)
        self.nodes += 1
        self.stack = [self.head]

    def _end_head(self) -> None:
        """The (possibly implied) ``</head>``: body content follows."""
        self.before_body = False
        self.stack = [self.body]

    def _document_tag(self, name: str, attrs: dict[str, str]) -> None:
        if name == "html":
            self.root.attrs.update(attrs)
        elif name == "head":
            if self.head is None:
                self.head = Element("head", attrs)
                self.nodes += 1
        elif name == "body":
            self.body.attrs.update(attrs)

    def end_tag(self, name: str) -> None:
        if name in self.document_tags:
            if name == "head" and self.before_body and self.head is not None:
                self._end_head()
            return
        stack = self.stack
        for open_element in reversed(stack):
            if open_element.tag == name:
                break
        else:
            return  # stray end tag: drop it
        while len(stack) > 1:
            closed = stack.pop()
            if closed.tag == name:
                return
        # ``name`` was the root scope marker itself; nothing else to do.

    def text(self, data: str) -> None:
        if _WHITESPACE_ONLY_RE.match(data):
            return
        if self.before_body and len(self.stack) == 1:
            # Text outside any head child is body content.
            self._end_head()
        current = self.stack[-1]
        # Merge adjacent text nodes so downstream tokenization sees whole
        # topic sentences.
        children = current.children
        if children and isinstance(children[-1], Text):
            children[-1].text += data
        else:
            current.adopt_new(Text(data))
            self.nodes += 1

    def finish(self) -> Element:
        if self.fragment:
            return self.root
        if self.head is not None:
            self.root.append_child(self.head)
        self.root.append_child(self.body)
        return self.root


def parse_html(source: str) -> Element:
    """Parse an HTML document string into an element tree.

    Returns the ``html`` root element; body content hangs under its
    ``body`` child regardless of whether the source declared one.
    """
    return parse_html_counted(source)[0]


def parse_html_counted(source: str) -> tuple[Element, int]:
    """:func:`parse_html` plus the number of nodes in the tree it
    returns (``tree_size`` of the root), counted while building."""
    builder = _TreeBuilder(fragment=False)
    return _run(builder, source), builder.nodes


def parse_fragment(source: str) -> Element:
    """Parse an HTML fragment; returns a ``#fragment`` container element."""
    builder = _TreeBuilder(fragment=True)
    return _run(builder, source)


def _run(builder: _TreeBuilder, source: str) -> Element:
    start_tag = builder.start_tag
    end_tag = builder.end_tag
    text = builder.text
    start_type = TokenType.START_TAG
    end_type = TokenType.END_TAG
    text_type = TokenType.TEXT
    for token in tokenize(source):
        token_type = token.type
        if token_type is start_type:
            start_tag(token.data, token.attrs, token.self_closing)
        elif token_type is text_type:
            text(token.data)
        elif token_type is end_type:
            end_tag(token.data)
        # comments and doctype: ignored
    return builder.finish()


def body_of(document: Element) -> Element:
    """Return the ``body`` element of a parsed document.

    Accepts either a full document (``html`` root) or a fragment, in which
    case the fragment container itself is returned.
    """
    if document.tag in ("body", "#fragment"):
        return document
    for child in document.element_children():
        if child.tag == "body":
            return child
    return document
