"""Chrome trace-event export of the span tree.

:func:`spans_to_chrome_trace` turns the tracer's span dicts (the same
records ``--trace-out`` writes as JSONL) into the Trace Event Format
that ``chrome://tracing`` and Perfetto load: one complete (``"X"``)
event per span, timestamps in microseconds, plus ``thread_name``
metadata events naming each track.

**Cross-process re-basing.**  Span clocks are per-process
``time.perf_counter`` readings: durations are always meaningful, but
absolute ``start`` values only agree within one process.  Spans adopted
from a worker chunk carry namespaced ids (``c3.w7``; bisection pieces
``c3.b16.w7``), so every span's *clock domain* is recoverable as the id
prefix up to the last ``.`` (empty for the parent process).  Each domain
becomes its own track (``tid``), and its timestamps are re-based onto
the parent timeline by aligning the domain's earliest span start with
the start of the span its roots were re-parented under -- the chunk
visibly nests inside ``engine.convert_corpus`` without pretending we
know exactly when the worker ran.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

_US = 1e6  # seconds -> microseconds
# The one process the trace shows, and its name.
PID = 1
PROCESS_NAME = "repro-web"


def _domain_of(span_id: str) -> str:
    """The clock domain of a span id: everything before the last dot."""
    dot = span_id.rfind(".")
    return span_id[:dot] if dot >= 0 else ""


def spans_to_chrome_trace(span_dicts: Sequence[Mapping]) -> dict:
    """Convert exported span dicts into a Chrome trace-event document."""
    spans = [dict(span) for span in span_dicts]
    by_id = {span["id"]: span for span in spans}

    # Group spans into clock domains and find each domain's time base.
    domains: dict[str, list[dict]] = {}
    for span in spans:
        domains.setdefault(_domain_of(span["id"]), []).append(span)
    starts = {
        domain: min(span["start"] for span in members)
        for domain, members in domains.items()
    }

    # The parent domain anchors the timeline at zero; every other domain
    # is shifted so its first span starts where its re-parent target
    # (a span of an already-placed domain) starts.  Domains are placed
    # shortest-prefix first, so bisection domains (c3.b16) resolve
    # against their chunk domain (c3) if that is where their roots hang.
    offsets: dict[str, float] = {}
    for domain in sorted(domains, key=lambda name: (name.count("."), name)):
        if domain == "":
            offsets[domain] = -starts.get("", 0.0)
            continue
        anchor = 0.0
        for span in domains[domain]:
            parent_id = span.get("parent")
            if parent_id is None:
                continue
            parent = by_id.get(parent_id)
            if parent is None:
                continue
            parent_domain = _domain_of(parent["id"])
            if parent_domain != domain and parent_domain in offsets:
                anchor = parent["start"] + offsets[parent_domain]
                break
        offsets[domain] = anchor - starts[domain]

    # Deterministic integer tids: the parent domain is tid 0, adopted
    # domains follow in sorted order.
    ordered = sorted(domains, key=lambda name: (name != "", name))
    tids = {domain: tid for tid, domain in enumerate(ordered)}

    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PID,
            "tid": 0,
            "args": {"name": PROCESS_NAME},
        }
    ]
    for domain in ordered:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PID,
                "tid": tids[domain],
                "args": {"name": domain if domain else "main"},
            }
        )
    for domain in ordered:
        offset = offsets[domain]
        tid = tids[domain]
        # Stable ordering: by re-based start, longest span first on ties
        # so parents precede children in the event list.
        members = sorted(
            domains[domain],
            key=lambda span: (span["start"], -(span["end"] - span["start"])),
        )
        for span in members:
            ts = round((span["start"] + offset) * _US, 3)
            dur = round(max(0.0, span["end"] - span["start"]) * _US, 3)
            args = {"id": span["id"]}
            if span.get("parent") is not None:
                args["parent"] = span["parent"]
            for key, value in sorted(span.get("attrs", {}).items()):
                if isinstance(value, (str, int, float, bool)) or value is None:
                    args[key] = value
            events.append(
                {
                    "name": span["name"],
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": PID,
                    "tid": tid,
                    "args": args,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": PROCESS_NAME, "spans": len(spans)},
    }


def write_chrome_trace(path: str | Path, span_dicts: Sequence[Mapping]) -> Path:
    """Write a Chrome trace-event JSON file (parents created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = spans_to_chrome_trace(span_dicts)
    target.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
    return target
