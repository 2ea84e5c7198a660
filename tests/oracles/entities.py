"""The original ``re.sub``-with-callback entity decoder: the oracle of
``repro.htmlparse.entities.decode_entities``.

Moved here verbatim when the split-and-table decoder became the only
production path.  The reference regex is a private copy; only the
public ``NAMED_ENTITIES`` table is shared, since it is the data both
decoders must agree on.
"""

from __future__ import annotations

import re

from repro.htmlparse.entities import NAMED_ENTITIES

_ENTITY_RE = re.compile(
    r"&(#[xX]?[0-9a-fA-F]+|[a-zA-Z][a-zA-Z0-9]*);?", re.ASCII
)


def _decode_one(match: re.Match[str]) -> str:
    body = match.group(1)
    if body.startswith("#"):
        try:
            if body[1:2] in ("x", "X"):
                code = int(body[2:], 16)
            else:
                code = int(body[1:], 10)
        except ValueError:
            return match.group(0)
        if 0 < code <= 0x10FFFF:
            try:
                return chr(code)
            except ValueError:
                return match.group(0)
        return match.group(0)
    replacement = NAMED_ENTITIES.get(body)
    if replacement is None:
        replacement = NAMED_ENTITIES.get(body.lower())
    if replacement is None:
        return match.group(0)
    return replacement


def decode_entities_slow(text: str) -> str:
    """The original sub-with-callback decoder, kept as the oracle."""
    if "&" not in text:
        return text
    return _ENTITY_RE.sub(_decode_one, text)
