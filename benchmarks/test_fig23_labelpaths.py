"""Experiment E5 -- Figures 2 and 3: the label-path example.

Paper: three example resume trees A, B, C (Figure 2) reduce to the label
path tree of Figure 3 (resume -> objective | contact | education ->
degree -> date/institution | institution -> degree/date).

Reproduction: the exact trees, hard-coded; the extracted search space
must equal Figure 3's path set, and thresholding must behave as
Section 3.2 describes (support(p)=1 iff the path occurs in every tree).
"""

from __future__ import annotations

from repro.dom.node import Element
from repro.evaluation.report import format_table
from repro.schema.accumulator import PathAccumulator
from repro.schema.dataguide import build_dataguide
from repro.schema.paths import extract_paths


def tree(spec):
    tag, kids = spec
    element = Element(tag)
    for kid in kids:
        element.append_child(tree(kid))
    return element


TREE_A = ("resume", [
    ("objective", []),
    ("contact", []),
    ("education", [
        ("degree", [("date", []), ("institution", [])]),
        ("degree", [("date", [])]),
    ]),
])
TREE_B = ("resume", [
    ("contact", []),
    ("education", [
        ("degree", [("date", []), ("institution", [])]),
        ("degree", [("institution", []), ("date", [])]),
    ]),
])
TREE_C = ("resume", [
    ("education", [
        ("institution", [("degree", []), ("date", [])]),
        ("institution", [("degree", []), ("date", [])]),
    ]),
])

# Figure 3: the tree of label paths of {A, B, C}.
FIGURE3_PATHS = {
    ("resume",),
    ("resume", "objective"),
    ("resume", "contact"),
    ("resume", "education"),
    ("resume", "education", "degree"),
    ("resume", "education", "degree", "date"),
    ("resume", "education", "degree", "institution"),
    ("resume", "education", "institution"),
    ("resume", "education", "institution", "degree"),
    ("resume", "education", "institution", "date"),
}


def test_figure23_label_paths(benchmark, capsys):
    documents = benchmark(
        lambda: [extract_paths(tree(spec)) for spec in (TREE_A, TREE_B, TREE_C)]
    )

    union = set()
    for doc in documents:
        union |= doc.paths
    stats = PathAccumulator.from_documents(documents)

    with capsys.disabled():
        print()
        rows = [
            ["/".join(path), f"{stats.support(path):.2f}"]
            for path in sorted(union)
        ]
        print(
            format_table(
                ["label path", "support"],
                rows,
                title="[E5 / Figures 2-3] Label paths of trees A, B, C",
            )
        )

    assert union == FIGURE3_PATHS

    # Section 3.2's stated properties of support.
    assert stats.support(("resume",)) == 1.0
    assert stats.support(("resume", "education")) == 1.0
    assert 0 < stats.support(("resume", "objective")) < 1.0

    # The DataGuide of the three trees IS Figure 3.
    guide = build_dataguide(documents)
    assert guide.paths() == FIGURE3_PATHS
