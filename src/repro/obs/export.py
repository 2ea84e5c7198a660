"""Writers and loaders for observability artifacts.

One trace file carries both span records and provenance events (each
line is self-describing via its ``kind`` field); metrics files pick
their format by extension -- ``.prom``/``.txt`` get the Prometheus text
exposition, everything else the JSON registry snapshot that
``repro-web stats`` can re-render.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceLog
from repro.obs.tracer import NullTracer, Tracer

PROMETHEUS_SUFFIXES = (".prom", ".txt")


def write_trace_jsonl(
    path: str | Path,
    tracer: "Tracer | NullTracer | None" = None,
    provenance: ProvenanceLog | None = None,
) -> int:
    """Write spans then provenance events as JSONL; returns line count.

    Parent directories are created, so CLI-supplied nested paths
    (``--trace-out runs/today/trace.jsonl``) work without a manual
    ``mkdir``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with target.open("w", encoding="utf-8") as handle:
        if tracer is not None:
            for span_dict in tracer.export():
                handle.write(json.dumps(span_dict, sort_keys=True) + "\n")
                written += 1
        if provenance is not None:
            for event in provenance.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
                written += 1
    return written


def write_metrics(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write a registry snapshot, format chosen by file extension.

    Parent directories are created (nested ``--metrics-out`` paths).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    if target.suffix in PROMETHEUS_SUFFIXES:
        target.write_text(registry.render_prometheus(), encoding="utf-8")
    else:
        target.write_text(registry.render_json(), encoding="utf-8")
    return target


def load_metrics(path: str | Path) -> MetricsRegistry:
    """Load a registry saved as JSON by :func:`write_metrics`.

    Prometheus exposition output is one-way (a histogram keeps only its
    cumulative bucket counts, not the digest's exact min/max, and metric
    kinds are text comments); re-rendering tables needs the JSON
    snapshot, whose histograms carry their full digests.  A snapshot
    with a malformed digest or an old fixed-bucket histogram raises
    ``ValueError``.
    """
    target = Path(path)
    if target.suffix in PROMETHEUS_SUFFIXES:
        raise ValueError(
            "Prometheus exposition files cannot be re-loaded; "
            "save metrics as .json to render them with 'repro-web stats'"
        )
    return MetricsRegistry.from_json(json.loads(target.read_text(encoding="utf-8")))
