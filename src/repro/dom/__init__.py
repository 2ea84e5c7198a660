"""Ordered-tree document model.

The paper treats every document (HTML input, intermediate, and XML output)
as an ordered tree whose nodes carry a tag and a ``val`` attribute of type
CDATA (Section 2.3).  This package provides that model:

* :mod:`repro.dom.node` -- :class:`Element` and :class:`Text` nodes.
* :mod:`repro.dom.treeops` -- traversals, structural equality, cloning.
* :mod:`repro.dom.serialize` -- XML and HTML writers.
* :mod:`repro.dom.path` -- simple slash-separated path queries.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".node": ("Node", "Element", "Text"),
    ".treeops": ("clone", "deep_equal", "iter_preorder", "iter_postorder", "tree_size"),
    ".serialize": ("to_xml", "to_html"),
    ".path": ("find_first", "find_all"),
})
