"""Scalability measurement (Section 4.3 / Figure 5).

The paper measures end-to-end running time (conversion + schema
discovery) for datasets of increasing size and reports a "very strong
linear relationship" with the number of concept nodes (and with the
number of nodes and of documents).  Absolute times are hardware-bound
(the paper used a Pentium 266); the reproducible claim is the *linear
shape*, so this module reports the least-squares fit and its R².

The sweep is driven by :class:`repro.runtime.CorpusEngine` with one
worker, the paper's serial setting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.concepts.knowledge import KnowledgeBase
from repro.corpus.generator import ResumeCorpusGenerator
from repro.obs.tracer import NULL_TRACER
from repro.runtime.engine import CorpusEngine, EngineConfig

# Timed runs per sweep point.  A point reads the least of them on each
# clock, as ``timeit`` does: a slower run measured the machine's other
# load, not more work.
_REPEATS = 3


@dataclass
class ScalingPoint:
    """One measurement of the sweep."""

    documents: int
    nodes: int
    concept_nodes: int
    seconds: float
    # Process CPU seconds of the same region: all of the work, since
    # the one-worker engine converts in this process.  Both clocks read
    # the least of the point's timed runs.
    cpu_seconds: float = 0.0


@dataclass
class ScalingReport:
    """The Figure 5 series plus linear fits."""

    points: list[ScalingPoint] = field(default_factory=list)

    def _fit(self, xs: list[float], ys: list[float]) -> tuple[float, float]:
        """Least-squares slope and R² (computed without numpy so the
        library core stays dependency-free)."""
        n = len(xs)
        if n < 2:
            return 0.0, 0.0
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        sxx = sum((x - mean_x) ** 2 for x in xs)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        if sxx == 0:
            return 0.0, 0.0
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
        ss_tot = sum((y - mean_y) ** 2 for y in ys)
        r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
        return slope, r2

    def fit_against(self, measure: str) -> tuple[float, float]:
        """(slope, R²) of seconds against 'documents' | 'nodes' |
        'concept_nodes'."""
        xs = [float(getattr(p, measure)) for p in self.points]
        ys = [p.seconds for p in self.points]
        return self._fit(xs, ys)

    @property
    def seconds_per_document(self) -> float:
        """Average wall time per document at the largest sweep point."""
        if not self.points:
            return 0.0
        last = self.points[-1]
        return last.seconds / last.documents if last.documents else 0.0


def run_scaling_experiment(
    kb: KnowledgeBase,
    sizes: list[int],
    *,
    seed: int = 1966,
) -> ScalingReport:
    """Time the full pipeline (convert + discover) at each corpus size.

    Documents are generated outside the timed region; the clock covers
    exactly what the paper timed (restructuring + schema discovery).
    One document is converted and mined before the sweep, untimed: the
    first conversion pays one-time costs (building the converter, first
    use of lazily loaded modules) that belong to no corpus size.  The
    sweep then runs :data:`_REPEATS` times over, so that a burst of
    other load on the machine hits different points in different
    rounds, and each point keeps the least reading of each clock.
    """
    generator = ResumeCorpusGenerator(seed=seed)
    corpora = [generator.generate_html(size) for size in sizes]
    engine = CorpusEngine(kb, engine_config=EngineConfig(max_workers=1))
    if corpora:
        engine.discover(engine.convert_corpus(corpora[0][:1]).accumulator)
    points = [ScalingPoint(size, 0, 0, float("inf"), float("inf")) for size in sizes]
    for _ in range(_REPEATS):
        for point, corpus in zip(points, corpora):
            elapsed: dict[str, float] = {}
            cpu_started = time.process_time()
            with NULL_TRACER.stage("scaling.point", elapsed):
                result = engine.convert_corpus(corpus)
                engine.discover(result.accumulator)
            point.cpu_seconds = min(
                point.cpu_seconds, time.process_time() - cpu_started
            )
            point.seconds = min(point.seconds, elapsed["scaling.point"])
            point.nodes = result.stats.input_nodes
            point.concept_nodes = result.stats.concept_nodes
    return ScalingReport(points)
