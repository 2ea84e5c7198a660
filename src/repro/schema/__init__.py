"""Majority-schema discovery and DTD derivation (Section 3).

* :mod:`repro.schema.paths` -- reduce XML trees to root-emanating label
  paths with sibling-multiplicity and child-position bookkeeping.
* :mod:`repro.schema.accumulator` -- incremental, mergeable path
  statistics so discovery can stream over corpus partitions.
* :mod:`repro.schema.frequent` -- mine frequent paths under the
  ``support``/``supportRatio`` thresholds, with constraint pruning.
* :mod:`repro.schema.majority` -- the majority schema tree.
* :mod:`repro.schema.ordering` -- the DTD ordering rule.
* :mod:`repro.schema.repetition` -- the repetitive-elements rule.
* :mod:`repro.schema.dtd` -- the DTD model and its derivation/rendering.
* :mod:`repro.schema.discovery` -- :func:`discover_schema`, the one
  mine -> majority schema -> DTD sequence every discovery runs.
* :mod:`repro.schema.dataguide` / :mod:`repro.schema.lowerbound` -- the
  upper/lower-bound baselines the paper positions itself against.
* :mod:`repro.schema.evolution` -- online schema evolution: durable
  accumulator checkpoints (snapshot + append-only delta log) and the
  :class:`EvolvingSchema` driver that folds new documents and bumps the
  schema version only on real change.
"""

from repro.schema.accumulator import PathAccumulator
from repro.schema.evolution import (
    AccumulatorCheckpoint,
    CheckpointCorruption,
    CheckpointInfo,
    EvolvingSchema,
    FoldOutcome,
)
from repro.schema.dataguide import build_dataguide
from repro.schema.discovery import DiscoveryResult, discover_schema
from repro.schema.dtd import DTD, DTDElement, derive_dtd
from repro.schema.diff import diff_schemas, schema_stability
from repro.schema.frequent import FrequentPathSet, mine_frequent_paths
from repro.schema.homonyms import homonym_contexts
from repro.schema.index import PathIndex
from repro.schema.lowerbound import build_lower_bound_schema
from repro.schema.majority import MajoritySchema, SchemaNode
from repro.schema.paths import (
    DocumentPaths,
    LabelPath,
    extract_corpus_paths,
    extract_paths,
    iter_corpus_paths,
)
from repro.schema.patterns import GroupPattern, discover_group_patterns

__all__ = [
    "LabelPath",
    "DocumentPaths",
    "extract_paths",
    "extract_corpus_paths",
    "iter_corpus_paths",
    "PathAccumulator",
    "AccumulatorCheckpoint",
    "CheckpointCorruption",
    "CheckpointInfo",
    "EvolvingSchema",
    "FoldOutcome",
    "FrequentPathSet",
    "mine_frequent_paths",
    "MajoritySchema",
    "SchemaNode",
    "DTD",
    "DTDElement",
    "derive_dtd",
    "DiscoveryResult",
    "discover_schema",
    "build_dataguide",
    "build_lower_bound_schema",
    "PathIndex",
    "GroupPattern",
    "discover_group_patterns",
    "diff_schemas",
    "schema_stability",
    "homonym_contexts",
]
