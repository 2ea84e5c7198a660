"""Ordered-tree document model.

The paper treats every document (HTML input, intermediate, and XML output)
as an ordered tree whose nodes carry a tag and a ``val`` attribute of type
CDATA (Section 2.3).  This package provides that model:

* :mod:`repro.dom.node` -- :class:`Element` and :class:`Text` nodes.
* :mod:`repro.dom.treeops` -- traversals, structural equality, cloning.
* :mod:`repro.dom.serialize` -- XML and HTML writers.
* :mod:`repro.dom.path` -- simple slash-separated path queries.
"""

from repro.dom.node import Element, Node, Text
from repro.dom.path import find_all, find_first
from repro.dom.serialize import to_html, to_xml
from repro.dom.treeops import (
    clone,
    deep_equal,
    iter_postorder,
    iter_preorder,
    tree_size,
)

__all__ = [
    "Node",
    "Element",
    "Text",
    "clone",
    "deep_equal",
    "iter_preorder",
    "iter_postorder",
    "tree_size",
    "to_xml",
    "to_html",
    "find_first",
    "find_all",
]
