"""Schema discovery: frequent paths -> majority schema -> DTD (Section 3).

Every discovery in the reproduction -- the corpus engine, online schema
evolution, and the ``discover``/``integrate`` commands -- runs the same
knowledge-base-bound sequence through :func:`discover_schema`:
frequent-path mining under the topic's constraints and concept alphabet
(Section 3.2), the majority schema tree, and DTD derivation by the
ordering and repetition rules (Section 3.3).  All three read one
:class:`~repro.schema.accumulator.PathAccumulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.tracer import NullTracer, Tracer, resolve_tracer
from repro.schema.accumulator import PathAccumulator
from repro.schema.dtd import DTD, derive_dtd
from repro.schema.frequent import FrequentPathSet, mine_frequent_paths
from repro.schema.majority import MajoritySchema
from repro.schema.paths import DocumentPaths

if TYPE_CHECKING:  # pragma: no cover
    from repro.concepts.knowledge import KnowledgeBase


@dataclass
class DiscoveryResult:
    """Outcome of schema discovery over corpus statistics."""

    frequent: FrequentPathSet
    schema: MajoritySchema
    dtd: DTD


def discover_schema(
    statistics: PathAccumulator | list[DocumentPaths],
    kb: "KnowledgeBase",
    *,
    sup_threshold: float = 0.4,
    ratio_threshold: float = 0.0,
    optional_threshold: float | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> DiscoveryResult | None:
    """Majority schema + DTD of a corpus, from its path statistics alone.

    ``statistics`` is an accumulator, or per-document path sets that are
    accumulated once here.  Mining uses ``kb``'s constraints and concept
    alphabet.  Returns ``None`` when there are no documents or no path
    clears the thresholds -- there is no schema to derive.  ``tracer``
    records ``discover.mine_frequent`` and ``discover.majority_schema``
    spans around the first two steps; :func:`derive_dtd` adds its own.
    """
    tracer = resolve_tracer(tracer)
    if not isinstance(statistics, PathAccumulator):
        statistics = PathAccumulator.from_documents(statistics)
    if statistics.document_count == 0:
        return None
    with tracer.span("discover.mine_frequent") as span:
        frequent = mine_frequent_paths(
            statistics,
            sup_threshold=sup_threshold,
            ratio_threshold=ratio_threshold,
            constraints=kb.constraints,
            candidate_labels=kb.concept_tags(),
        )
        span.set(
            frequent_paths=len(frequent.paths),
            nodes_explored=frequent.nodes_explored,
        )
    if not frequent.paths:
        return None
    with tracer.span("discover.majority_schema") as span:
        schema = MajoritySchema.from_frequent_paths(frequent)
        span.set(elements=schema.element_count())
    dtd = derive_dtd(
        schema, statistics, optional_threshold=optional_threshold, tracer=tracer
    )
    return DiscoveryResult(frequent=frequent, schema=schema, dtd=dtd)
