"""The legacy per-character HTML tokenizer: the parser's oracle.

This is the original scanner of ``repro.htmlparse.tokenizer``, moved
here verbatim when the bulk-scanning lexer became the only production
path.  It walks the source one cursor step at a time and emits the same
:class:`~repro.htmlparse.tokenizer.Token` stream -- source spans
included -- that the production lexer must reproduce.  The regexes it
needs are private copies, so the oracle does not lean on the module it
checks.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.htmlparse.entities import decode_entities
from repro.htmlparse.taginfo import RAW_TEXT_TAGS
from repro.htmlparse.tokenizer import Token, TokenType

_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:_-]*")
_ATTR_NAME_RE = re.compile(r"[^\s=/>]+")
_WHITESPACE_RE = re.compile(r"\s+")




class _Scanner:
    """Cursor over the source string."""

    __slots__ = ("source", "pos")

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.source)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return ""

    def startswith(self, prefix: str) -> bool:
        return self.source.startswith(prefix, self.pos)

    def take_until(self, needle: str) -> str:
        """Consume up to (not including) ``needle``; to EOF if absent."""
        index = self.source.find(needle, self.pos)
        if index == -1:
            chunk = self.source[self.pos :]
            self.pos = len(self.source)
            return chunk
        chunk = self.source[self.pos : index]
        self.pos = index
        return chunk

    def skip_whitespace(self) -> None:
        match = _WHITESPACE_RE.match(self.source, self.pos)
        if match:
            self.pos = match.end()


def _scan_attributes(scanner: _Scanner) -> tuple[dict[str, str], bool]:
    """Read attributes up to ``>``; returns (attrs, self_closing)."""
    attrs: dict[str, str] = {}
    self_closing = False
    while True:
        scanner.skip_whitespace()
        ch = scanner.peek()
        if ch == "" or ch == ">":
            break
        if ch == "/":
            scanner.pos += 1
            if scanner.peek() == ">":
                self_closing = True
            continue
        match = _ATTR_NAME_RE.match(scanner.source, scanner.pos)
        if not match:
            scanner.pos += 1
            continue
        name = match.group(0).lower()
        scanner.pos = match.end()
        scanner.skip_whitespace()
        value = ""
        if scanner.peek() == "=":
            scanner.pos += 1
            scanner.skip_whitespace()
            quote = scanner.peek()
            if quote in ("'", '"'):
                scanner.pos += 1
                value = scanner.take_until(quote)
                if not scanner.eof():
                    scanner.pos += 1
            else:
                start = scanner.pos
                while not scanner.eof() and scanner.peek() not in (" ", "\t", "\n", "\r", ">"):
                    scanner.pos += 1
                value = scanner.source[start : scanner.pos]
        if name not in attrs:
            attrs[name] = decode_entities(value)
    return attrs, self_closing


def tokenize_legacy(source: str) -> Iterator[Token]:
    scanner = _Scanner(source)
    raw_text_tag: str | None = None
    while not scanner.eof():
        token_start = scanner.pos
        if raw_text_tag is not None:
            close = f"</{raw_text_tag}"
            index = scanner.source.lower().find(close, scanner.pos)
            if index == -1:
                text = scanner.source[scanner.pos :]
                scanner.pos = len(scanner.source)
            else:
                text = scanner.source[scanner.pos : index]
                scanner.pos = index
            if text:
                yield Token(
                    TokenType.TEXT, text, start=token_start, end=scanner.pos
                )
            raw_text_tag = None
            continue
        if scanner.peek() != "<":
            text = scanner.take_until("<")
            yield Token(
                TokenType.TEXT,
                decode_entities(text),
                start=token_start,
                end=scanner.pos,
            )
            continue
        # At a '<'.
        if scanner.startswith("<!--"):
            scanner.pos += 4
            body = scanner.take_until("-->")
            if not scanner.eof():
                scanner.pos += 3
            yield Token(
                TokenType.COMMENT, body, start=token_start, end=scanner.pos
            )
            continue
        if scanner.startswith("<![CDATA["):
            scanner.pos += 9
            body = scanner.take_until("]]>")
            if not scanner.eof():
                scanner.pos += 3
            # CDATA content is literal character data (no entity decoding).
            yield Token(
                TokenType.TEXT, body, start=token_start, end=scanner.pos
            )
            continue
        if scanner.startswith("<!"):
            scanner.pos += 2
            body = scanner.take_until(">")
            if not scanner.eof():
                scanner.pos += 1
            yield Token(
                TokenType.DOCTYPE,
                body.strip(),
                start=token_start,
                end=scanner.pos,
            )
            continue
        if scanner.startswith("<?"):
            scanner.pos += 2
            scanner.take_until(">")
            if not scanner.eof():
                scanner.pos += 1
            continue
        if scanner.startswith("</"):
            match = _TAG_NAME_RE.match(scanner.source, scanner.pos + 2)
            if not match:
                # Stray '</' -- emit as text.
                scanner.pos += 2
                yield Token(
                    TokenType.TEXT, "</", start=token_start, end=scanner.pos
                )
                continue
            name = match.group(0).lower()
            scanner.pos = match.end()
            scanner.take_until(">")
            if not scanner.eof():
                scanner.pos += 1
            yield Token(
                TokenType.END_TAG, name, start=token_start, end=scanner.pos
            )
            continue
        match = _TAG_NAME_RE.match(scanner.source, scanner.pos + 1)
        if not match:
            # Stray '<' in text.
            scanner.pos += 1
            yield Token(
                TokenType.TEXT, "<", start=token_start, end=scanner.pos
            )
            continue
        name = match.group(0).lower()
        scanner.pos = match.end()
        attrs, self_closing = _scan_attributes(scanner)
        if scanner.peek() == ">":
            scanner.pos += 1
        yield Token(
            TokenType.START_TAG,
            name,
            attrs,
            self_closing,
            start=token_start,
            end=scanner.pos,
        )
        if name in RAW_TEXT_TAGS and not self_closing:
            raw_text_tag = name
