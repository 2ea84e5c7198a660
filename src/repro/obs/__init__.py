"""Observability layer: tracing, metrics, and provenance.

Three independent primitives, all default-off with near-zero disabled
cost, thread through the conversion/discovery pipeline:

* :mod:`repro.obs.tracer` -- hierarchical :class:`Span` tracing with a
  context-manager API and cross-process re-parenting (worker chunks
  serialize spans; the engine grafts them under its own span tree).
* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges, and histograms that each hold a :class:`QuantileDigest`; an
  engine chunk records into one, the engine's ``EngineStats`` is a view
  over one, and :meth:`MetricsRegistry.update` merges the first into the
  second; exports JSON and Prometheus text exposition.
* :mod:`repro.obs.provenance` -- per-document JSONL events: one record
  per rule application and per concept-instance decision (synonym match
  vs. Bayes posterior vs. unlabeled, with confidence), keyed by doc id
  and node label path.

The run-intelligence layer builds on them:

* :mod:`repro.obs.quantiles` -- :class:`QuantileDigest`, the one
  latency structure: a mergeable (monoid) digest over one fixed
  log-bucket layout, recorded per chunk into the chunk registry's
  ``repro_stage_seconds`` histograms and merged parent-side with the
  rest of the chunk's books, yielding per-stage and per-document
  p50/p95/p99.
* :mod:`repro.obs.runlog` -- the persistent append-only run ledger
  (:class:`RunLedger`) that ``repro-web runs`` lists and
  ``repro-web report`` renders.
* :mod:`repro.obs.progress` -- :class:`ProgressReporter`, rate-limited
  live progress/ETA on stderr, auto-disabled off-TTY.
* :mod:`repro.obs.chrometrace` -- span-tree export to Chrome
  trace-event JSON (Perfetto/chrome://tracing), with cross-process
  worker spans re-based onto the parent timeline.

:mod:`repro.obs.export` holds the file writers/loaders.  The contract
checks of the emitted files live outside the package, in
``tests/obscheck`` (``python -m tests.obscheck`` from the repository
root).
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".metrics": ("Counter", "Distribution", "Gauge", "MetricsRegistry"),
    ".provenance": ("ProvenanceLog", "node_label_path"),
    ".progress": ("ProgressReporter",),
    ".quantiles": ("QuantileDigest",),
    ".runlog": ("RunLedger", "build_evolution_record", "build_run_record", "config_fingerprint"),
    ".tracer": ("Span", "Tracer", "NullTracer", "NULL_TRACER", "resolve_tracer"),
    ".chrometrace": ("spans_to_chrome_trace", "write_chrome_trace"),
    ".export": ("write_trace_jsonl", "write_metrics", "load_metrics"),
})
