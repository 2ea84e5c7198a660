"""Parallel streaming runtime (scale-out layer over Sections 2-3).

* :mod:`repro.runtime.engine` -- :class:`CorpusEngine`: chunked
  process-pool conversion with a deterministic in-order merge, plus
  schema discovery over merged path statistics.  Its
  :class:`EngineConfig` is the one source of a run's worker count,
  chunk size and error policy (a mode string).
* :mod:`repro.runtime.stats` -- :class:`EngineStats` / per-chunk
  instrumentation (rule timings, docs/sec, queue depth, failure
  counts).
* :mod:`repro.runtime.pool` -- :class:`WorkerPool`, the one process
  pool every parallel path uses (the engine, repository migration, the
  conversion service): per-worker state built once by the initializer
  (adopted copy-on-write from the parent under fork), inline execution
  at one worker, an ordered ``map`` bounded by ``inflight_window``
  (the in-flight bound the engine and the service share), and
  ``rebuild``/``pids``/``shutdown`` for crash recovery and drain.
* :mod:`repro.runtime.faults` -- worker-crash recovery (pool rebuild
  budget + chunk bisection).  The policy vocabulary it builds on --
  :class:`ErrorPolicy` (fail-fast / skip / quarantine) and
  :class:`DocumentFailure` records -- lives in
  :mod:`repro.convert.errors` and is exported here too.

The engine is the one code path that applies an error policy to a
corpus.  It is differentially tested against the plain serial
:meth:`repro.convert.pipeline.DocumentConverter.convert_many`:
identical XML bytes per document and an identical discovered DTD for
any worker count -- including corpora with poison documents under a
skip policy, where the engine must equal ``convert_many`` of the
surviving documents.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".engine": (
        "CorpusEngine",
        "EngineConfig",
        "ChunkPayload",
        "CorpusResult",
        "DiscoveryResult",
        "EngineRun",
    ),
    ".stats": ("EngineStats", "ChunkStats"),
    "repro.schema.accumulator": ("PathAccumulator",),
    "repro.convert.errors": (
        "DocumentFailure",
        "ErrorPolicy",
        "PipelineStageError",
        "write_quarantine",
    ),
    ".faults": ("PoolRebuildExhausted", "RecoveryBudget", "worker_crash_failure"),
})
