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

from repro import lazy_exports

lazy_exports(globals(), {
    ".paths": (
        "LabelPath",
        "DocumentPaths",
        "extract_paths",
    ),
    ".accumulator": ("PathAccumulator",),
    ".evolution": (
        "AccumulatorCheckpoint",
        "CheckpointCorruption",
        "CheckpointInfo",
        "EvolvingSchema",
        "FoldOutcome",
    ),
    ".frequent": ("FrequentPathSet", "mine_frequent_paths"),
    ".majority": ("MajoritySchema", "SchemaNode"),
    ".dtd": ("DTD", "DTDElement", "derive_dtd"),
    ".discovery": ("DiscoveryResult", "discover_schema"),
    ".dataguide": ("build_dataguide",),
    ".lowerbound": ("build_lower_bound_schema",),
    ".index": ("PathIndex",),
    ".patterns": ("GroupPattern", "discover_group_patterns"),
    ".diff": ("diff_schemas", "schema_stability"),
    ".homonyms": ("homonym_contexts",),
})
