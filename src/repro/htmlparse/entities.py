"""HTML character-reference decoding.

Supports the named entities that occur in real-world resume pages plus
decimal/hexadecimal numeric references.  Unknown references are left
verbatim, which is what browsers of the paper's era did.

:func:`decode_entities` splits the text on reference-shaped lexemes in
one C-level pass and resolves each lexeme through a flat table built at
import and warmed as new lexemes are seen, so repeated references
(``&amp;`` in URLs, unknown ``&page=`` query fragments, ...) cost one
dict probe instead of a regex-callback invocation.  Its oracle, the
original ``re.sub``-with-callback decoder, lives in
``tests/oracles/entities.py``; the unit and property suites assert both
decoders agree, including on truncated references.

Truncation semantics at end of input (no terminating ``;``): a numeric
reference with at least one digit decodes (``&#65`` -> ``A``,
``&#x41`` -> ``A``), while a bare ``&#`` or ``&#x`` is not
reference-shaped and stays verbatim.  Decimal bodies that contain hex
letters (``&#6f``) fail ``int(..., 10)`` and stay verbatim too.
"""

from __future__ import annotations

import re

NAMED_ENTITIES: dict[str, str] = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
    "copy": "©",
    "reg": "®",
    "trade": "™",
    "deg": "°",
    "plusmn": "±",
    "middot": "·",
    "laquo": "«",
    "raquo": "»",
    "ldquo": "“",
    "rdquo": "”",
    "lsquo": "‘",
    "rsquo": "’",
    "ndash": "–",
    "mdash": "—",
    "hellip": "…",
    "bull": "•",
    "sect": "§",
    "para": "¶",
    "frac12": "½",
    "frac14": "¼",
    "times": "×",
    "divide": "÷",
    "eacute": "é",
    "egrave": "è",
    "agrave": "à",
    "uuml": "ü",
    "ouml": "ö",
    "auml": "ä",
    "szlig": "ß",
    "ccedil": "ç",
    "ntilde": "ñ",
    "pound": "£",
    "yen": "¥",
    "euro": "€",
    "cent": "¢",
}

# A reference lexeme, captured whole and with its body: split() then
# yields [literal, lexeme, body, literal, lexeme, body, ..., literal].
_ENTITY_SPLIT_RE = re.compile(
    r"(&(#[xX]?[0-9a-fA-F]+|[a-zA-Z][a-zA-Z0-9]*);?)", re.ASCII
)


def _decode_lexeme(lexeme: str, body: str) -> str:
    """Resolve one reference lexeme (``&amp;``, ``&#65``, ...)."""
    if body[0] == "#":
        try:
            if body[1:2] in ("x", "X"):
                code = int(body[2:], 16)
            else:
                code = int(body[1:], 10)
        except ValueError:
            return lexeme
        if 0 < code <= 0x10FFFF:
            try:
                return chr(code)
            except ValueError:
                return lexeme
        return lexeme
    replacement = NAMED_ENTITIES.get(body)
    if replacement is None:
        replacement = NAMED_ENTITIES.get(body.lower())
    if replacement is None:
        return lexeme
    return replacement


# Flat lexeme -> replacement table, seeded at import with both the
# terminated and unterminated spelling of every known named entity and
# warmed at runtime with whatever else the corpus contains (case
# variants, numeric references, unknown names kept verbatim).  Resolving
# a reference is pure -- the replacement depends only on the lexeme --
# so memoisation cannot change observable behaviour.  _CACHE_LIMIT
# bounds growth on adversarial input (e.g. millions of distinct numeric
# references).
_DECODE_CACHE: dict[str, str] = {}
for _name, _repl in NAMED_ENTITIES.items():
    _DECODE_CACHE[f"&{_name};"] = _repl
    _DECODE_CACHE[f"&{_name}"] = _repl
del _name, _repl
_CACHE_LIMIT = 10000


def decode_entities(text: str) -> str:
    """Replace character references in ``text`` with their characters."""
    if "&" not in text:
        return text
    pieces = _ENTITY_SPLIT_RE.split(text)
    count = len(pieces)
    if count == 1:
        # '&' present but nothing reference-shaped.
        return text
    cache = _DECODE_CACHE
    out = [pieces[0]]
    append = out.append
    i = 1
    while i < count:
        lexeme = pieces[i]
        replacement = cache.get(lexeme)
        if replacement is None:
            replacement = _decode_lexeme(lexeme, pieces[i + 1])
            if len(cache) < _CACHE_LIMIT:
                cache[lexeme] = replacement
        append(replacement)
        append(pieces[i + 2])
        i += 3
    return "".join(out)
