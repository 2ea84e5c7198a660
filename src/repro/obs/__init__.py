"""Observability layer: tracing, metrics, and provenance.

Three independent primitives, all default-off with near-zero disabled
cost, thread through the conversion/discovery pipeline:

* :mod:`repro.obs.tracer` -- hierarchical :class:`Span` tracing with a
  context-manager API and cross-process re-parenting (worker chunks
  serialize spans; the engine grafts them under its own span tree).
* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges, and histograms that each hold a :class:`QuantileDigest`; the
  engine's ``EngineStats`` is a view over one; exports JSON and
  Prometheus text exposition.
* :mod:`repro.obs.provenance` -- per-document JSONL events: one record
  per rule application and per concept-instance decision (synonym match
  vs. Bayes posterior vs. unlabeled, with confidence), keyed by doc id
  and node label path.

The run-intelligence layer builds on them:

* :mod:`repro.obs.quantiles` -- :class:`QuantileDigest`, the one
  latency structure: a mergeable (monoid) digest over one fixed
  log-bucket layout, shipped per chunk, merged parent-side into the
  registry's ``repro_stage_seconds`` histograms, yielding per-stage and
  per-document p50/p95/p99.
* :mod:`repro.obs.runlog` -- the persistent append-only run ledger
  (:class:`RunLedger`) plus the regression detector behind
  ``repro-web runs``.
* :mod:`repro.obs.progress` -- :class:`ProgressReporter`, rate-limited
  live progress/ETA on stderr, auto-disabled off-TTY.
* :mod:`repro.obs.chrometrace` -- span-tree export to Chrome
  trace-event JSON (Perfetto/chrome://tracing), with cross-process
  worker spans re-based onto the parent timeline.

:mod:`repro.obs.validate` checks emitted artifacts against the
checked-in ``trace_schema.json`` / ``runlog_schema.json`` (used by CI
and ``repro-web validate-obs``); :mod:`repro.obs.export` holds the file
writers/loaders.
"""

from repro.obs.chrometrace import (
    spans_to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import load_metrics, write_metrics, write_trace_jsonl
from repro.obs.metrics import Counter, Distribution, Gauge, MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.provenance import ProvenanceLog, node_label_path
from repro.obs.quantiles import QuantileDigest, merge_digest_maps
from repro.obs.runlog import (
    Regression,
    RunLedger,
    build_evolution_record,
    build_run_record,
    compare_records,
    config_fingerprint,
    detect_history_regressions,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer, resolve_tracer

__all__ = [
    "Counter",
    "Distribution",
    "Gauge",
    "MetricsRegistry",
    "ProvenanceLog",
    "node_label_path",
    "ProgressReporter",
    "QuantileDigest",
    "merge_digest_maps",
    "Regression",
    "RunLedger",
    "build_evolution_record",
    "build_run_record",
    "compare_records",
    "config_fingerprint",
    "detect_history_regressions",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "resolve_tracer",
    "spans_to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_trace_jsonl",
    "write_metrics",
    "load_metrics",
]
