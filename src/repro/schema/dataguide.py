"""DataGuide baseline: the upper-bound schema ([19], Section 1).

A DataGuide comprises *every* structure found in the input documents --
equivalently, the majority schema at ``supThreshold -> 0``.  The paper
argues it provides "too much detail" for integration; experiment E7
quantifies that by comparing schema sizes and repair costs.
"""

from __future__ import annotations

from repro.schema.accumulator import PathAccumulator
from repro.schema.frequent import FrequentPathSet
from repro.schema.majority import MajoritySchema
from repro.schema.paths import DocumentPaths, LabelPath


def build_dataguide(documents: list[DocumentPaths]) -> MajoritySchema:
    """The schema tree of all label paths with non-zero support.

    Construction is a single pass over the union of the documents' path
    sets -- no mining is needed because membership is the only criterion.
    """
    statistics = PathAccumulator.from_documents(documents)
    paths: set[LabelPath] = set(statistics.doc_frequency)
    if not paths:
        raise ValueError("empty corpus")
    frequent = FrequentPathSet(
        paths=paths,
        statistics=statistics,
        sup_threshold=0.0,
        ratio_threshold=0.0,
        nodes_explored=len(paths),
        nodes_counted=len(paths),
    )
    return MajoritySchema.from_frequent_paths(frequent)
