"""The DTD ordering rule (Section 3.3).

"The ordering of the child elements q1,...,qm for p is determined by the
average position an element qi occurs as child of p in the documents
D^p_XML" -- i.e. only documents containing the prefix ``p`` vote, and
they vote with the average child position recorded during path
extraction.  :meth:`~repro.schema.accumulator.PathAccumulator.avg_position`
holds exactly that average, summed as documents are accumulated, so
ordering a node's children reads one number per child.  The average is an
exact rational, so two children tie only when their true averages are
equal, whatever order the documents were accumulated in.
"""

from __future__ import annotations

from repro.schema.accumulator import PathAccumulator
from repro.schema.paths import LabelPath


def ordered_labels(
    statistics: PathAccumulator, parent_path: LabelPath, labels: list[str]
) -> list[str]:
    """``labels`` (children of ``parent_path``) in content-model order.

    Ties on average position break alphabetically for determinism; a
    child never observed sorts last (its average is ``inf``).
    """
    return sorted(
        labels,
        key=lambda label: (statistics.avg_position(parent_path + (label,)), label),
    )
