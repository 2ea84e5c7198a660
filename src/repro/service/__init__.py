"""Conversion-as-a-service: a long-lived async HTTP front-end over the
corpus engine.

The package splits along the request/result/artifact contract model:

* :mod:`repro.service.contracts` -- the wire schemas (requests in,
  outcomes out) with parse-time validation.
* :mod:`repro.service.batcher` -- micro-batching with bounded
  backpressure: concurrent clients' documents coalesce into engine
  chunks of :data:`~repro.runtime.pool.CHUNK_SIZE`; a full queue makes
  callers wait, never drops.
* :mod:`repro.service.state` -- the artifact store: per-topic
  :class:`~repro.schema.evolution.EvolvingSchema` (durable accumulator
  checkpoints, versioned DTDs) and optional
  :class:`~repro.mapping.versioned.VersionedRepository` publishing.
* :mod:`repro.service.server` -- the asyncio HTTP server itself
  (``/convert``, ``/convert/batch``, ``/schemas/<topic>``, ``/metrics``,
  ``/healthz``) with graceful SIGTERM/SIGINT drain.  Each topic's
  corpus engine keeps one warm :class:`~repro.runtime.pool.WorkerPool`
  (workers hold a built converter for the daemon's whole lifetime),
  fed chunk-at-a-time by the batcher.  :class:`ConversionService` takes
  two settings, ``max_workers`` and ``publish``; chunk size, error
  policy and in-flight window are the engine's.

The concurrent-client load harness that drives this server is test
tooling, not part of the package: it lives in ``tests/loadtest.py``.
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".contracts": ("BatchOutcome", "ContractError", "ConvertRequest", "DocumentOutcome"),
    ".server": ("ConversionService",),
})
