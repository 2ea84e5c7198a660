"""From-scratch HTML parsing substrate.

The paper assumes HTML documents arrive as ordered trees "by adopting the
Document Object Model" and notes that running an HTML cleanser (Tidy)
first improves accuracy (Section 2.4).  This package supplies both pieces
without external dependencies:

* :mod:`repro.htmlparse.entities` -- character-reference decoding.
* :mod:`repro.htmlparse.tokenizer` -- a streaming HTML lexer.
* :mod:`repro.htmlparse.parser` -- tree construction with HTML4-style
  implied end tags (``<p>``, ``<li>``, table parts, ...).
* :mod:`repro.htmlparse.tidy` -- a cleanser in the spirit of HTML Tidy.
* :mod:`repro.htmlparse.taginfo` -- the block/inline/list/heading tag
  catalog the restructuring rules consult.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".parser": ("parse_html", "parse_fragment"),
    ".tidy": ("tidy",),
    ".tokenizer": ("tokenize", "Token", "TokenType"),
})
