"""Tests for the scalability harness (Figure 5)."""

from dataclasses import replace

import pytest

from repro.evaluation.scaling import ScalingPoint, ScalingReport, run_scaling_experiment


class TestLinearFit:
    def make_report(self, points):
        report = ScalingReport()
        report.points = [ScalingPoint(*p) for p in points]
        return report

    def test_perfect_line(self):
        report = self.make_report(
            [(10, 100, 50, 1.0), (20, 200, 100, 2.0), (30, 300, 150, 3.0)]
        )
        slope, r2 = report.fit_against("documents")
        assert slope == pytest.approx(0.1)
        assert r2 == pytest.approx(1.0)

    def test_fit_against_other_measures(self):
        report = self.make_report(
            [(10, 100, 50, 1.0), (20, 200, 100, 2.0), (30, 300, 150, 3.0)]
        )
        for measure in ("nodes", "concept_nodes"):
            _slope, r2 = report.fit_against(measure)
            assert r2 == pytest.approx(1.0)

    def test_insufficient_points(self):
        report = self.make_report([(10, 100, 50, 1.0)])
        assert report.fit_against("documents") == (0.0, 0.0)

    def test_seconds_per_document(self):
        report = self.make_report([(10, 0, 0, 5.0)])
        assert report.seconds_per_document == 0.5

    def test_empty_report(self):
        assert ScalingReport().seconds_per_document == 0.0


class TestExperiment:
    def test_small_sweep_runs_and_is_monotone(self, kb):
        report = run_scaling_experiment(kb, [5, 10, 20], seed=1966)
        assert len(report.points) == 3
        docs = [p.documents for p in report.points]
        assert docs == [5, 10, 20]
        nodes = [p.nodes for p in report.points]
        assert nodes[0] < nodes[1] < nodes[2]
        concept_nodes = [p.concept_nodes for p in report.points]
        assert concept_nodes[0] < concept_nodes[1] < concept_nodes[2]

    def test_linearity_on_modest_sweep(self, kb):
        """The paper's claim: the work is linear in corpus size.

        The fit reads each point's process CPU time, not its wall time:
        the one-worker sweep converts in this process, and its CPU time
        does not grow when other processes share the machine.  The
        harness converts once before the sweep and keeps each point's
        least CPU reading over three rounds of the sweep, so neither the
        one-time first-use costs nor a burst of other load bend the
        line.  The bar stays loose for so small a sweep; the Figure 5
        benchmark asserts R^2 > 0.95 on wall time over a bigger one.

        Three points that span a factor of four fit a convex curve well
        too (a cost in ``n ** 2`` alone reads R^2 0.98), so the fit
        cannot tell linear from quadratic work.  The cost per concept
        node can: linear work keeps it flat, a quadratic cost that is
        two thirds of the work at 80 documents doubles it.
        """
        report = run_scaling_experiment(kb, [20, 40, 80], seed=1966)
        assert all(point.cpu_seconds > 0 for point in report.points)
        cpu = ScalingReport(
            [replace(point, seconds=point.cpu_seconds) for point in report.points]
        )
        _slope, r2 = cpu.fit_against("concept_nodes")
        assert r2 > 0.75
        first, last = report.points[0], report.points[-1]
        growth = (last.cpu_seconds / last.concept_nodes) / (
            first.cpu_seconds / first.concept_nodes
        )
        assert growth < 2.0, f"CPU per concept node grew {growth:.2f}x"
