"""Minimal slash-separated path queries over document trees.

This is deliberately far smaller than XPath: the schema and evaluation
code only ever needs ``a/b/c`` descent from a context element, with ``*``
as a single-level wildcard and ``//`` for descendant hops (XPath
semantics: ``a//b`` matches any ``b`` below an ``a``).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.dom.node import Element

# Marker inserted into the step list wherever the query said '//'.
_DESCEND = "//"


def _parse(path: str) -> list[str]:
    """Split a query into steps, inserting descend markers for '//'."""
    steps: list[str] = []
    if path.startswith("//"):
        steps.append(_DESCEND)
        path = path[2:]
    while path:
        if path.startswith("/"):
            path = path[1:]
            if path.startswith("/"):
                steps.append(_DESCEND)
                path = path[1:]
            continue
        cut = path.find("/")
        if cut == -1:
            steps.append(path)
            path = ""
        else:
            steps.append(path[:cut])
            path = path[cut:]
    return steps


def _match_step(element: Element, step: str) -> bool:
    return step == "*" or element.tag == step


def _descendants(element: Element) -> Iterator[Element]:
    """Element descendants in document order, without recursion."""
    stack = element.element_children()[::-1]
    while stack:
        child = stack.pop()
        yield child
        stack.extend(reversed(child.element_children()))


def _walk(frontier: list[Element], steps: list[str], *, anchored: bool) -> list[Element]:
    """Advance ``frontier`` through ``steps``.

    ``anchored`` means the first plain step must match the frontier
    elements themselves (the query's first step names the context);
    afterwards plain steps match children.
    """
    for step in steps:
        if step == _DESCEND:
            expanded: list[Element] = []
            seen: set[int] = set()
            for element in frontier:
                for descendant in _descendants(element):
                    if id(descendant) not in seen:
                        seen.add(id(descendant))
                        expanded.append(descendant)
            frontier = expanded
            anchored = True  # descend step yields candidates to match directly
            continue
        if anchored:
            frontier = [el for el in frontier if _match_step(el, step)]
            anchored = False
        else:
            frontier = [
                child
                for el in frontier
                for child in el.element_children()
                if _match_step(child, step)
            ]
    return frontier


def iter_matches(context: Element, path: str) -> Iterator[Element]:
    """Yield elements matching ``path`` relative to ``context``.

    A path starting with ``//`` searches all descendants; otherwise the
    first step must match ``context`` itself.
    """
    steps = _parse(path)
    if not steps:
        return
    yield from _walk([context], steps, anchored=True)


def find_all(context: Element, path: str) -> list[Element]:
    """All elements matching ``path`` under ``context``."""
    return list(iter_matches(context, path))


def find_first(context: Element, path: str) -> Optional[Element]:
    """First element matching ``path`` under ``context``, or ``None``."""
    for element in iter_matches(context, path):
        return element
    return None
