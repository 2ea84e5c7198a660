"""Lower-bound schema baseline ([2], Section 1).

The lower-bound schema comprises only structures "that can be found in
all documents" -- the majority schema at ``supThreshold = 1``.  The paper
argues it does not suffice as an integration target; experiment E7
quantifies the information it loses.
"""

from __future__ import annotations

from repro.schema.accumulator import PathAccumulator
from repro.schema.frequent import FrequentPathSet
from repro.schema.majority import MajoritySchema
from repro.schema.paths import DocumentPaths, LabelPath


def build_lower_bound_schema(documents: list[DocumentPaths]) -> MajoritySchema:
    """The schema tree of label paths with support exactly 1."""
    statistics = PathAccumulator.from_documents(documents)
    total = statistics.document_count
    paths: set[LabelPath] = {
        path
        for path, count in statistics.doc_frequency.items()
        if count == total
    }
    if not paths:
        raise ValueError(
            "no path occurs in every document; the lower-bound schema is empty"
        )
    frequent = FrequentPathSet(
        paths=paths,
        statistics=statistics,
        sup_threshold=1.0,
        ratio_threshold=0.0,
        nodes_explored=len(statistics.doc_frequency),
        nodes_counted=len(statistics.doc_frequency),
    )
    return MajoritySchema.from_frequent_paths(frequent)
