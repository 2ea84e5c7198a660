"""Metrics registry: counters, gauges, and digest-backed histograms.

The registry is the single numeric sink of the pipeline: the engine's
:class:`~repro.runtime.stats.EngineStats` is a view over one, the serial
CLI path shares the same per-rule counters, and both export formats --
JSON (re-loadable, rendered by ``repro-web stats``) and the Prometheus
text exposition format -- read straight from it.

Metrics are identified by ``(name, labels)``; names follow Prometheus
conventions (``repro_engine_documents_total``), labels are a small
``key=value`` set (``repro_stage_seconds{stage="instance"}``).
A histogram holds one :class:`~repro.obs.quantiles.QuantileDigest`, the
package's only latency/size structure.  The exposition publishes it as
a Prometheus histogram: a cumulative ``_bucket`` sample at *every* edge
of the one digest layout (``le`` semantics: an observation equal to an
edge counts at that edge) plus ``+Inf``, so every scrape carries the
same ``le`` set and scrapers can diff cumulative counts.

Everything is picklable and mergeable: worker processes can fill a
registry and the parent folds it in with :meth:`MetricsRegistry.merge`
(counters add, histogram digests merge; gauges take the other side's
value).
"""

from __future__ import annotations

import json
import re
from typing import Iterator, Mapping

from repro.obs.quantiles import EDGES, QuantileDigest

LabelSet = tuple[tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# The `le` label of every finite digest edge, rendered once.
_LE_VALUES = tuple(repr(edge) for edge in EDGES)


def _labelset(labels: Mapping[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the 0.0.4 text format: backslash,
    double-quote, and newline (in that order -- backslash first, or the
    escapes themselves would be re-escaped).  Label values reaching the
    exposition can contain all three: document ids come from arbitrary
    file stems and label paths from document content."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help_text(text: str) -> str:
    """Escape ``# HELP`` text: only backslash and newline (the 0.0.4
    format does *not* escape double quotes in help text)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(labels: LabelSet, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class Metric:
    """Base: a named, labeled metric."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelSet) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for key, _value in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        self.name = name
        self.labels = labels

    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


class Counter(Metric):
    """A monotonically increasing sum."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


GAUGE_MERGE_MODES = ("last", "max", "min", "sum")


class Gauge(Metric):
    """A value that can go up and down (set wins over arithmetic).

    ``merge_mode`` is the cross-registry aggregation hint consulted by
    :meth:`MetricsRegistry.merge`: ``"last"`` (the historical
    last-writer-wins), ``"max"``/``"min"`` for high/low-water marks that
    must survive merging chunk-worker registries, or ``"sum"``.
    Without it, a per-worker high-water mark like queue depth would be
    silently understated by whichever worker merged last.
    """

    kind = "gauge"

    def __init__(
        self, name: str, labels: LabelSet, merge_mode: str = "last"
    ) -> None:
        super().__init__(name, labels)
        if merge_mode not in GAUGE_MERGE_MODES:
            raise ValueError(f"unknown gauge merge mode {merge_mode!r}")
        self.value: float = 0.0
        self.merge_mode = merge_mode

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def max(self, value: float) -> None:
        """Keep the running maximum (queue depths, high-water marks)."""
        if value > self.value:
            self.value = float(value)


class Distribution(Metric):
    """A histogram: observations held in one :class:`QuantileDigest`."""

    kind = "histogram"

    def __init__(self, name: str, labels: LabelSet) -> None:
        super().__init__(name, labels)
        self.digest = QuantileDigest()

    def observe(self, value: float) -> None:
        self.digest.observe(value)


class MetricsRegistry:
    """A mutable collection of metrics, mergeable and exportable."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelSet], Metric] = {}
        # Optional per-name help text, emitted as `# HELP` lines by the
        # Prometheus exposition (name-level, like TYPE: one line per
        # metric family regardless of label sets).
        self._help: dict[str, str] = {}

    # -- registration --------------------------------------------------------

    def describe(self, name: str, text: str) -> None:
        """Attach help text to a metric family (first writer wins)."""
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self._help.setdefault(name, text)

    def help_text(self, name: str) -> str | None:
        return self._help.get(name)

    def _get_or_create(self, cls, name: str, labels: LabelSet, *args) -> Metric:
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, labels, *args)
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, _labelset(labels))

    def gauge(self, name: str, *, merge: str | None = None, **labels: str) -> Gauge:
        """A gauge; ``merge`` sets its cross-registry aggregation mode
        (``"last"``/``"max"``/``"min"``/``"sum"``) on first registration
        and must agree on re-registration (``None`` = don't care)."""
        metric = self._get_or_create(
            Gauge, name, _labelset(labels), merge if merge is not None else "last"
        )
        assert isinstance(metric, Gauge)
        if merge is not None and metric.merge_mode != merge:
            raise ValueError(
                f"gauge {name!r} already registered with merge mode "
                f"{metric.merge_mode!r}, not {merge!r}"
            )
        return metric

    def histogram(self, name: str, **labels: str) -> Distribution:
        return self._get_or_create(Distribution, name, _labelset(labels))

    # -- reading -------------------------------------------------------------

    def __iter__(self) -> Iterator[Metric]:
        return iter(sorted(self._metrics.values(), key=lambda m: (m.name, m.labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: str) -> Metric | None:
        return self._metrics.get((name, _labelset(labels)))

    def value(self, name: str, default: float = 0.0, **labels: str) -> float:
        """Scalar value of a counter/gauge, ``default`` when absent."""
        metric = self.get(name, **labels)
        if metric is None or isinstance(metric, Distribution):
            return default
        return metric.value  # type: ignore[union-attr]

    def find(self, name: str) -> list[Metric]:
        """Every metric registered under ``name``, any label set."""
        return [m for m in self if m.name == name]

    # -- merging -------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, histogram digests merge;
        gauges aggregate per their ``merge_mode`` (``"last"`` -- the
        historical last-writer-wins default -- ``"max"``, ``"min"``, or
        ``"sum"``), so high-water marks merged from chunk workers keep
        the corpus-wide extreme instead of the last worker's value."""
        for name, text in other._help.items():
            self._help.setdefault(name, text)
        for metric in other:
            if isinstance(metric, Counter):
                self._get_or_create(Counter, metric.name, metric.labels).inc(
                    metric.value
                )
            elif isinstance(metric, Gauge):
                fresh = (metric.name, metric.labels) not in self._metrics
                held = self._get_or_create(
                    Gauge, metric.name, metric.labels, metric.merge_mode
                )
                assert isinstance(held, Gauge)
                mode = held.merge_mode
                if fresh or mode == "last":
                    held.set(metric.value)
                elif mode == "max":
                    held.max(metric.value)
                elif mode == "min":
                    if metric.value < held.value:
                        held.set(metric.value)
                else:  # sum
                    held.inc(metric.value)
            elif isinstance(metric, Distribution):
                held = self._get_or_create(Distribution, metric.name, metric.labels)
                held.digest.update(metric.digest)

    # -- export --------------------------------------------------------------

    def to_json(self) -> dict:
        """A JSON-serializable snapshot (inverse of :meth:`from_json`)."""
        metrics = []
        for metric in self:
            entry: dict = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": metric.label_dict(),
            }
            if isinstance(metric, Distribution):
                entry["digest"] = metric.digest.to_json()
            else:
                entry["value"] = metric.value  # type: ignore[union-attr]
                if isinstance(metric, Gauge) and metric.merge_mode != "last":
                    entry["merge"] = metric.merge_mode
            metrics.append(entry)
        snapshot: dict = {"metrics": metrics}
        if self._help:
            snapshot["help"] = dict(sorted(self._help.items()))
        return snapshot

    @classmethod
    def from_json(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry saved by :meth:`to_json`.

        Histograms saved in the retired fixed-bucket form
        (``buckets``/``counts``) are a ``ValueError``: their buckets do
        not map onto the digest layout, so they cannot be read back.
        """
        registry = cls()
        for name, text in data.get("help", {}).items():
            registry.describe(name, text)
        for entry in data.get("metrics", []):
            labels = entry.get("labels", {})
            kind = entry.get("kind")
            if kind == "counter":
                registry.counter(entry["name"], **labels).inc(entry["value"])
            elif kind == "gauge":
                registry.gauge(
                    entry["name"], merge=entry.get("merge"), **labels
                ).set(entry["value"])
            elif kind == "histogram":
                if "digest" not in entry:
                    raise ValueError(
                        f"histogram {entry.get('name')!r} is in the old "
                        "fixed-bucket form (buckets/counts); re-run the "
                        "command to save a digest-backed metrics file"
                    )
                registry.histogram(entry["name"], **labels).digest = (
                    QuantileDigest.from_json(entry["digest"])
                )
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
        return registry

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        typed: set[str] = set()
        for metric in self:
            if metric.name not in typed:
                typed.add(metric.name)
                help_text = self._help.get(metric.name)
                if help_text is not None:
                    lines.append(
                        f"# HELP {metric.name} {_escape_help_text(help_text)}"
                    )
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Distribution):
                lines.extend(_histogram_lines(metric))
            else:
                labels = _render_labels(metric.labels)
                lines.append(f"{metric.name}{labels} {_num(metric.value)}")  # type: ignore[union-attr]
        return "\n".join(lines) + "\n"


def _histogram_lines(metric: Distribution) -> list[str]:
    """A digest as cumulative ``_bucket`` samples at every layout edge
    plus ``+Inf``, then ``_sum`` and ``_count``."""
    digest = metric.digest
    counts = digest.counts
    # Labels are rendered once; each sample appends its own `le`.
    prefix = _render_labels(metric.labels)[:-1] + "," if metric.labels else "{"
    bucket = f"{metric.name}_bucket{prefix}le="
    lines = []
    running = 0
    for index, le in enumerate(_LE_VALUES):
        running += counts.get(index, 0)
        lines.append(f'{bucket}"{le}"}} {running}')
    lines.append(f'{bucket}"+Inf"}} {digest.count}')
    plain = _render_labels(metric.labels)
    lines.append(f"{metric.name}_sum{plain} {_num(digest.total)}")
    lines.append(f"{metric.name}_count{plain} {digest.count}")
    return lines


def _num(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
