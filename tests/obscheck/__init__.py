"""Contract checks for the observability artifacts ``repro-web`` writes.

These check the program's own output against schemas this repository
defines, so they live with the tests rather than in the package.  The
tier-1 tests import them, and CI runs them over the files a real run
leaves behind, from the repository root::

    python -m tests.obscheck --trace trace.jsonl \\
        --metrics metrics.prom --metrics metrics.json \\
        --chrome trace-chrome.json --runlog runs.jsonl --require-coverage

Four artifact classes are checked:

* the ``--trace-out`` JSONL (span + provenance records) against
  ``trace_schema.json`` beside this module -- a deliberately small,
  dependency-free schema dialect: per-record-kind required/optional
  field types (``string``, ``number``, ``boolean``, ``object``,
  ``null``, unions with ``|``), enums, and a *coverage* section naming
  the span names and event kinds a healthy full-pipeline run must emit;
* the ``--runlog`` ledger against ``runlog_schema.json`` (same dialect),
  each run record's embedded registry snapshot round-tripping as below;
* the ``--metrics-out`` output: Prometheus text exposition (every sample
  matches the line grammar, every series has a ``# TYPE``, histograms
  carry ``+Inf``/``_sum``/``_count``) or the registry JSON snapshot
  (must round-trip through :meth:`MetricsRegistry.from_json`);
* the ``--trace-chrome`` trace-event JSON: required fields per phase,
  non-negative durations, matched ``B``/``E`` pairs, and per-track
  events that strictly nest -- the invariants Perfetto's importer
  relies on.

All checkers return a list of human-readable error strings; empty
means valid.  Only the standard library and ``repro`` are imported, so
the entry point runs wherever the package is installed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable

from repro.obs.metrics import MetricsRegistry

_SCHEMA_PATH = Path(__file__).with_name("trace_schema.json")
_RUNLOG_SCHEMA_PATH = Path(__file__).with_name("runlog_schema.json")

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "null": lambda v: v is None,
}


def load_schema(path: str | Path | None = None) -> dict:
    """The checked-in trace schema (or one loaded from ``path``)."""
    return json.loads(Path(path or _SCHEMA_PATH).read_text(encoding="utf-8"))


def _check_type(value: object, spec: str) -> bool:
    return any(
        _TYPE_CHECKS[alternative](value) for alternative in spec.split("|")
    )


def validate_record(record: object, schema: dict, where: str = "") -> list[str]:
    """Errors in one parsed JSONL record (empty list = valid)."""
    prefix = f"{where}: " if where else ""
    if not isinstance(record, dict):
        return [f"{prefix}record is not a JSON object"]
    kind = record.get("kind")
    spec = schema["records"].get(kind)
    if spec is None:
        return [f"{prefix}unknown record kind {kind!r}"]
    errors: list[str] = []
    known = {**spec["required"], **spec.get("optional", {})}
    for field, type_spec in spec["required"].items():
        if field not in record:
            errors.append(f"{prefix}{kind} record missing field {field!r}")
        elif not _check_type(record[field], type_spec):
            errors.append(
                f"{prefix}{kind}.{field} has type "
                f"{type(record[field]).__name__}, wanted {type_spec}"
            )
    for field, type_spec in spec.get("optional", {}).items():
        if field in record and not _check_type(record[field], type_spec):
            errors.append(
                f"{prefix}{kind}.{field} has type "
                f"{type(record[field]).__name__}, wanted {type_spec}"
            )
    if not spec.get("allow_extra", False):
        for field in record:
            if field not in known:
                errors.append(f"{prefix}{kind} record has unknown field {field!r}")
    for enum_key, allowed in schema.get("enums", {}).items():
        enum_kind, _, enum_field = enum_key.partition(".")
        if kind == enum_kind and enum_field in record:
            if record[enum_field] not in allowed:
                errors.append(
                    f"{prefix}{kind}.{enum_field} value "
                    f"{record[enum_field]!r} not in {allowed}"
                )
    return errors


def validate_trace_lines(
    lines: Iterable[str],
    *,
    schema: dict | None = None,
    require_coverage: bool = False,
) -> list[str]:
    """Validate JSONL trace content line by line.

    ``require_coverage`` additionally enforces the schema's coverage
    section: every listed span name and event kind must occur at least
    once -- the acceptance bar for a full convert+discover run.
    """
    schema = schema or load_schema()
    errors: list[str] = []
    seen_span_names: set[str] = set()
    seen_kinds: set[str] = set()
    count = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        count += 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        errors.extend(validate_record(record, schema, where=f"line {number}"))
        if isinstance(record, dict):
            seen_kinds.add(record.get("kind", ""))
            if record.get("kind") == "span":
                seen_span_names.add(record.get("name", ""))
    if count == 0:
        errors.append("trace is empty")
    if require_coverage:
        coverage = schema.get("coverage", {})
        for name in coverage.get("span_names", []):
            if name not in seen_span_names:
                errors.append(f"coverage: no span named {name!r}")
        for kind in coverage.get("event_kinds", []):
            if kind not in seen_kinds:
                errors.append(f"coverage: no {kind!r} record")
    return errors


def validate_trace_file(
    path: str | Path,
    *,
    schema: dict | None = None,
    require_coverage: bool = False,
) -> list[str]:
    """Validate a ``--trace-out`` JSONL file."""
    text = Path(path).read_text(encoding="utf-8")
    return validate_trace_lines(
        text.splitlines(), schema=schema, require_coverage=require_coverage
    )


# -- run ledger ---------------------------------------------------------------


def load_runlog_schema(path: str | Path | None = None) -> dict:
    """The checked-in run-ledger schema (or one loaded from ``path``)."""
    return json.loads(Path(path or _RUNLOG_SCHEMA_PATH).read_text(encoding="utf-8"))


def validate_runlog_lines(
    lines: Iterable[str], *, schema: dict | None = None
) -> list[str]:
    """Validate run-ledger JSONL content line by line (same record
    dialect as the trace schema; ``run`` and ``evolution`` records).
    A run record's embedded ``metrics`` must also round-trip through
    :meth:`MetricsRegistry.from_json`, as a ``--metrics-out`` file must."""
    schema = schema or load_runlog_schema()
    errors: list[str] = []
    count = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        count += 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        errors.extend(validate_record(record, schema, where=f"line {number}"))
        if isinstance(record, dict) and record.get("kind") == "run":
            try:
                MetricsRegistry.from_json(record.get("metrics"))
            except ValueError as exc:
                errors.append(f"line {number}: metrics do not round-trip: {exc}")
    if count == 0:
        errors.append("run ledger is empty")
    return errors


def validate_runlog_file(
    path: str | Path, *, schema: dict | None = None
) -> list[str]:
    """Validate a ``--runlog`` ledger file."""
    text = Path(path).read_text(encoding="utf-8")
    return validate_runlog_lines(text.splitlines(), schema=schema)


# -- Prometheus text exposition ----------------------------------------------

_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_TYPE_RE = re.compile(
    rf"^# TYPE ({_PROM_NAME}) (counter|gauge|histogram|summary|untyped)$"
)
_PROM_HELP_RE = re.compile(rf"^# HELP {_PROM_NAME} .*$")
# One `name="value"` pair: the value is a quoted string whose inner
# characters are anything except a raw quote/backslash, or a backslash
# escape.  A naive `[^{}]*` label block would reject legitimate escaped
# quotes and label values containing `{`/`}` (document ids and label
# paths can carry all of these).
_PROM_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_PROM_SAMPLE_RE = re.compile(
    rf"^({_PROM_NAME})"
    rf"(\{{{_PROM_LABEL}(?:,{_PROM_LABEL})*,?\}})?"
    rf" ([0-9eE+.\-]+|NaN|[+-]Inf)(\s+\d+)?$"
)


def validate_prometheus_text(text: str) -> list[str]:
    """Errors in a Prometheus text-exposition document."""
    errors: list[str] = []
    declared: dict[str, str] = {}
    samples: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            type_match = _PROM_TYPE_RE.match(line)
            if type_match:
                declared[type_match.group(1)] = type_match.group(2)
            elif not _PROM_HELP_RE.match(line):
                errors.append(f"line {number}: malformed comment {line!r}")
            continue
        sample = _PROM_SAMPLE_RE.match(line)
        if not sample:
            errors.append(f"line {number}: malformed sample {line!r}")
            continue
        samples.append(sample.group(1))
    if not samples:
        errors.append("no samples in exposition output")
    for name in samples:
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in declared and base not in declared:
            errors.append(f"sample {name!r} has no # TYPE declaration")
    for name, kind in declared.items():
        if kind == "histogram":
            for suffix in ("_bucket", "_sum", "_count"):
                if name + suffix not in samples:
                    errors.append(f"histogram {name!r} missing {suffix} samples")
    return errors


def validate_metrics_file(path: str | Path) -> list[str]:
    """Validate a ``--metrics-out`` file (.prom exposition or .json)."""
    target = Path(path)
    text = target.read_text(encoding="utf-8")
    if target.suffix in (".prom", ".txt"):
        return validate_prometheus_text(text)
    try:
        registry = MetricsRegistry.from_json(json.loads(text))
    except ValueError as exc:
        return [f"metrics JSON does not round-trip: {exc}"]
    if len(registry) == 0:
        return ["metrics JSON contains no metrics"]
    return []


# -- Chrome trace-event JSON --------------------------------------------------

_PHASES = {"X", "B", "E", "M", "i", "C"}


def validate_chrome_trace(document: object) -> list[str]:
    """Errors in a parsed trace-event document (empty list = valid).

    Checks the invariants the acceptance bar names: well-formed
    trace-event JSON (an object with a ``traceEvents`` list, or a bare
    list), required fields per event, non-negative ``X`` durations,
    matched ``B``/``E`` pairs per track, and per-track ``X`` events that
    nest strictly (two events on one track are either disjoint or one
    contains the other) with monotone begin timestamps.
    """
    errors: list[str] = []
    if isinstance(document, dict):
        events = document.get("traceEvents")
        if not isinstance(events, list):
            return ["traceEvents is missing or not a list"]
    elif isinstance(document, list):
        events = document
    else:
        return ["trace document is neither an object nor a list"]

    tracks: dict[tuple, list[tuple[float, float]]] = {}
    open_b: dict[tuple, list[float]] = {}
    for number, event in enumerate(events):
        where = f"event {number}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing name")
        if "pid" not in event or "tid" not in event:
            errors.append(f"{where}: missing pid/tid")
            continue
        track = (event["pid"], event["tid"])
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            errors.append(f"{where}: missing numeric ts")
            continue
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool):
                errors.append(f"{where}: X event missing numeric dur")
                continue
            if dur < 0:
                errors.append(f"{where}: negative duration {dur}")
                continue
            tracks.setdefault(track, []).append((float(ts), float(ts) + float(dur)))
        elif phase == "B":
            open_b.setdefault(track, []).append(float(ts))
        elif phase == "E":
            stack = open_b.get(track)
            if not stack:
                errors.append(f"{where}: E without matching B on track {track}")
                continue
            begin = stack.pop()
            if float(ts) < begin:
                errors.append(
                    f"{where}: E at {ts} precedes its B at {begin} on {track}"
                )
    for track, stack in open_b.items():
        for begin in stack:
            errors.append(f"unmatched B at {begin} on track {track}")

    # Per-track X events must strictly nest.  Sweep in start order
    # (longest first on ties) with a stack of open intervals: an event
    # starting inside an open interval must also end inside it.
    for track, intervals in tracks.items():
        stack: list[float] = []
        for start, end in sorted(intervals, key=lambda pair: (pair[0], -pair[1])):
            while stack and stack[-1] <= start:
                stack.pop()
            if stack and end > stack[-1]:
                errors.append(
                    f"track {track}: event [{start}, {end}] partially "
                    f"overlaps an open event ending at {stack[-1]}"
                )
                continue
            stack.append(end)
    return errors


def validate_chrome_trace_file(path: str | Path) -> list[str]:
    """Validate a trace-event JSON file on disk."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot read trace-event JSON: {exc}"]
    return validate_chrome_trace(document)
