r"""Serialization of document trees to XML and HTML text.

:func:`to_xml` is one walk over the tree that appends each output line
to a single list and joins it once; an explicit stack of child
iterators replaces recursion, so a tree of any depth renders.  The
escapes make the output read back exactly by any XML reader: besides
the markup characters, ``\r`` in character data and ``\r``, ``\n``,
``\t`` in attribute values are written as character references, which
an XML parser would otherwise normalize to ``\n`` or a space.
"""

from __future__ import annotations

import re

from repro.dom.node import Element, Node, Text

# Spaces of indentation per tree level in to_xml's output.
INDENT = 2
_XML_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTR_ESCAPES = {
    **_XML_ESCAPES,
    '"': "&quot;",
    "\n": "&#10;",
    "\t": "&#9;",
}
# Most text needs no escape: one scan for any of the characters above
# is cheaper than one ``str.replace`` scan per character.
_XML_SPECIAL = re.compile("[&<>\r]")
_ATTR_SPECIAL = re.compile('[&<>"\r\n\t]')

# HTML elements serialized without a closing tag.
_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


def escape_text(text: str) -> str:
    """Escape character data for XML/HTML output."""
    if _XML_SPECIAL.search(text) is None:
        return text
    for raw, esc in _XML_ESCAPES.items():
        text = text.replace(raw, esc)
    return text


def escape_attr(text: str) -> str:
    """Escape an attribute value for double-quoted output."""
    if _ATTR_SPECIAL.search(text) is None:
        return text
    for raw, esc in _ATTR_ESCAPES.items():
        text = text.replace(raw, esc)
    return text


def _attrs_string(element: Element) -> str:
    if not element.attrs:
        return ""
    return "".join(
        [f' {name}="{escape_attr(value)}"' for name, value in element.attrs.items()]
    )


def to_xml(node: Node) -> str:
    """Render a tree as pretty-printed XML.

    Leaf elements render as self-closing tags, matching the element
    patterns shown in the paper (``<INSTITUTION val="..."/>``).  Each
    node is one line, indented ``INDENT`` spaces per level below the
    root.
    """
    if isinstance(node, Text):
        return escape_text(node.text)
    assert isinstance(node, Element)
    if not node.children:
        return f"<{node.tag}{_attrs_string(node)}/>"
    lines = [f"<{node.tag}{_attrs_string(node)}>"]
    append = lines.append
    # One frame per open element: its remaining children, their level
    # and its closing tag.
    stack = [(iter(node.children), 1, f"</{node.tag}>")]
    while stack:
        children, level, closing = stack[-1]
        pad = " " * (INDENT * level)
        for child in children:
            if isinstance(child, Text):
                append(pad + escape_text(child.text))
            elif child.children:
                append(f"{pad}<{child.tag}{_attrs_string(child)}>")
                stack.append(
                    (iter(child.children), level + 1, f"{pad}</{child.tag}>")
                )
                break
            else:
                append(f"{pad}<{child.tag}{_attrs_string(child)}/>")
        else:
            stack.pop()
            append(closing)
    return "\n".join(lines)


def to_xml_document(root: Element) -> str:
    """Render a complete XML document with an XML declaration."""
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + to_xml(root)


def to_html(node: Node) -> str:
    """Render a tree as compact HTML (void tags are not closed)."""
    if isinstance(node, Text):
        return escape_text(node.text)
    assert isinstance(node, Element)
    attrs = _attrs_string(node)
    tag = node.tag.lower()
    if tag in _VOID_TAGS and not node.children:
        return f"<{tag}{attrs}>"
    inner = "".join(to_html(child) for child in node.children)
    return f"<{tag}{attrs}>{inner}</{tag}>"
