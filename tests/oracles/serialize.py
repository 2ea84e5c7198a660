r"""The recursive XML renderer: the oracle for ``repro.dom.serialize.to_xml``.

This is the renderer as it was before ``to_xml`` became one iterative
walk into a single list of lines, kept verbatim with private copies of
the escape helpers of that time.  Each level renders its subtree to a
string that its parent joins again, and it calls itself once per tree
level, so it shares the recursion limit.  Its escapes predate the
character references for ``\r`` (text) and ``\r``, ``\n``, ``\t``
(attribute values): compare against it only on trees free of those
characters.
"""

from __future__ import annotations

from repro.dom.node import Element, Node, Text

_XML_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_XML_ESCAPES, '"': "&quot;"}


def escape_text(text: str) -> str:
    """Escape character data for XML/HTML output."""
    for raw, esc in _XML_ESCAPES.items():
        text = text.replace(raw, esc)
    return text


def escape_attr(text: str) -> str:
    """Escape an attribute value for double-quoted output."""
    for raw, esc in _ATTR_ESCAPES.items():
        text = text.replace(raw, esc)
    return text


def _attrs_string(element: Element) -> str:
    if not element.attrs:
        return ""
    parts = [f'{name}="{escape_attr(value)}"' for name, value in element.attrs.items()]
    return " " + " ".join(parts)


def to_xml_legacy(node: Node, *, indent: int = 2, _level: int = 0) -> str:
    """Render a tree as pretty-printed XML.

    Leaf elements render as self-closing tags, matching the element
    patterns shown in the paper (``<INSTITUTION val="..."/>``).
    """
    pad = " " * (indent * _level)
    if isinstance(node, Text):
        return f"{pad}{escape_text(node.text)}"
    assert isinstance(node, Element)
    attrs = _attrs_string(node)
    if not node.children:
        return f"{pad}<{node.tag}{attrs}/>"
    lines = [f"{pad}<{node.tag}{attrs}>"]
    for child in node.children:
        lines.append(to_xml_legacy(child, indent=indent, _level=_level + 1))
    lines.append(f"{pad}</{node.tag}>")
    return "\n".join(lines)
