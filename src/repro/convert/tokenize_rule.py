"""The tokenization rule (Section 2.3.1, text rule 1).

"A tokenization rule takes an HTML text node and replaces it by n >= 1
token nodes of the pattern ``<TOKEN>text</TOKEN>``."  Topic sentences are
split at punctuation delimiters (``;``, ``,``, ``:`` by default); the
resulting token nodes are later consumed by the concept instance rule.

The rule is one top-down pass: each parent that holds text gets one new
child list, its text children replaced in place by their tokens, instead
of one ``replace_with`` (a scan of the parent's list) per text node.
:func:`split_topic_sentence` jumps from delimiter to delimiter with a
character-class pattern rather than visiting every character.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.convert.config import ConversionConfig
from repro.dom.node import Element, Node, Text

TOKEN_TAG = "TOKEN"


@lru_cache(maxsize=None)
def _delimiter_pattern(delimiters: tuple[str, ...]) -> re.Pattern[str]:
    """One character class over the single-character delimiters
    (a longer string never equals one character, so it never splits)."""
    chars = sorted({d for d in delimiters if len(d) == 1})
    if not chars:
        return re.compile("(?!)")  # matches nowhere
    return re.compile("[" + "".join(re.escape(char) for char in chars) + "]")


def split_topic_sentence(text: str, delimiters: tuple[str, ...]) -> list[str]:
    """Split a topic sentence into token texts at delimiter characters.

    Delimiters inside numbers are protected: the comma in ``10,000`` and
    the colon in ``10:30`` do not separate information components, and
    naive splitting there would shred dates and GPAs.  Empty fragments are
    dropped; whitespace is squeezed.
    """
    pieces: list[str] = []
    start = 0
    for match in _delimiter_pattern(delimiters).finditer(text):
        index = match.start()
        if index and text[index - 1].isdigit() and text[index + 1 : index + 2].isdigit():
            continue
        if text.startswith("://", index):
            # URL scheme separator ("http://..."), not a delimiter.
            continue
        pieces.append(text[start:index])
        start = index + 1
    pieces.append(text[start:])
    # str.split() breaks at exactly the characters ``\s`` matches, so
    # this is re.sub(r"\s+", " ", piece).strip(), without the regex.
    tokens = [" ".join(piece.split()) for piece in pieces]
    return [token for token in tokens if token]


def apply_tokenization_rule(
    root: Element, config: ConversionConfig | None = None
) -> int:
    """Replace every text node under ``root`` by ``<TOKEN>`` elements.

    Operates top-down over the whole tree; returns the number of token
    nodes created.  A text node yielding no tokens (pure punctuation or
    whitespace) is simply removed.
    """
    config = config or ConversionConfig()
    delimiters = config.delimiters
    created = 0
    stack: list[Element] = [root]
    while stack:
        parent = stack.pop()
        children = parent.children
        rebuilt: list[Node] | None = None
        for index, child in enumerate(children):
            if not isinstance(child, Text):
                if isinstance(child, Element):
                    stack.append(child)
                if rebuilt is not None:
                    rebuilt.append(child)
                continue
            if rebuilt is None:
                rebuilt = children[:index]
            child.parent = None
            for piece in split_topic_sentence(child.text, delimiters):
                token = Element(TOKEN_TAG)
                token.adopt_new(Text(piece))
                token.parent = parent
                rebuilt.append(token)
                created += 1
        if rebuilt is not None:
            parent.children = rebuilt
    return created


def token_text(token: Element) -> str:
    """The text carried by a ``<TOKEN>`` element."""
    children = token.children
    if len(children) == 1 and isinstance(children[0], Text):
        # The shape the tokenization rule builds: inner_text of one leaf.
        return children[0].text.strip()
    return token.inner_text()
