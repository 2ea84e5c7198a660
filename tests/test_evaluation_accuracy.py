"""Tests for the logical-error metric (Figure 4)."""

import pytest

from repro.dom.node import Element
from repro.evaluation.accuracy import (
    AccuracyReport,
    count_logical_errors,
    evaluate_accuracy,
)


def tree(spec):
    tag, kids = spec
    e = Element(tag)
    for k in kids:
        e.append_child(tree(k))
    return e


class TestSingleDocument:
    def test_identical_trees_zero_errors(self):
        a = tree(("R", [("A", [("X", [])]), ("B", [])]))
        b = tree(("R", [("A", [("X", [])]), ("B", [])]))
        assert count_logical_errors(a, b).errors == 0

    def test_moved_group_is_one_error(self):
        """A group of siblings under the wrong parent = 1 logical error."""
        extracted = tree(("R", [("A", [("X", []), ("X", [])]), ("B", [])]))
        truth = tree(("R", [("A", []), ("B", [("X", []), ("X", [])])]))
        assert count_logical_errors(extracted, truth).errors == 1

    def test_flat_vs_nested_record_is_one_error(self):
        """Four fields nested under a leader instead of flat: the four
        move together from the leader to the section = 1 error."""
        extracted = tree(
            ("R", [("C", [("A", [("L", []), ("P", []), ("E", [])])])])
        )
        truth = tree(("R", [("C", [("A", []), ("L", []), ("P", []), ("E", [])])]))
        assert count_logical_errors(extracted, truth).errors == 1

    def test_spurious_group_is_one_error(self):
        extracted = tree(("R", [("A", [("JUNK", [])])]))
        truth = tree(("R", [("A", [])]))
        assert count_logical_errors(extracted, truth).errors == 1

    def test_missing_group_is_one_error(self):
        extracted = tree(("R", [("A", [])]))
        truth = tree(("R", [("A", [("X", [])])]))
        assert count_logical_errors(extracted, truth).errors == 1

    def test_run_of_same_label_is_one_group(self):
        """Five DATE siblings = one group edge, not five."""
        extracted = tree(("R", [("E", [("D", [])] * 5)]))
        truth = tree(("R", [("E", [])]))
        assert count_logical_errors(extracted, truth).errors == 1

    def test_two_independent_moves_two_errors(self):
        extracted = tree(("R", [("A", [("X", [])]), ("B", [("Y", [])])]))
        truth = tree(("R", [("A", [("Y", [])]), ("B", [("X", [])])]))
        assert count_logical_errors(extracted, truth).errors == 2

    def test_node_counts_reported(self):
        extracted = tree(("R", [("A", []), ("B", [])]))
        truth = tree(("R", [("A", [])]))
        result = count_logical_errors(extracted, truth)
        assert result.extracted_nodes == 3

    def test_error_percentage(self):
        extracted = tree(("R", [("A", [])] + [("B", [])]))
        truth = tree(("R", [("A", [])]))
        result = count_logical_errors(extracted, truth)
        assert result.error_percentage == pytest.approx(100.0 / 3)

    def test_empty_extraction_against_empty_truth(self):
        result = count_logical_errors(Element("R"), Element("R"))
        assert result.errors == 0
        assert result.error_percentage == 0.0


class TestReport:
    def make_report(self, error_pcts):
        report = AccuracyReport()
        for i, pct in enumerate(error_pcts):
            # fabricate documents with 100 nodes and pct errors
            from repro.evaluation.accuracy import DocumentErrors

            report.documents.append(
                DocumentErrors(
                    doc_id=i,
                    errors=int(pct),
                    extracted_nodes=100,
                )
            )
        return report

    def test_averages(self):
        report = self.make_report([5, 10, 15])
        assert report.avg_errors_per_document == 10.0
        assert report.avg_error_percentage == pytest.approx(10.0)
        assert report.accuracy == pytest.approx(90.0)

    def test_histogram_bands(self):
        report = self.make_report([1, 5, 9, 13, 17, 21])
        hist = dict(report.histogram())
        assert hist["0-4"] == 1
        assert hist["4-8"] == 1
        assert hist["8-12"] == 1
        assert hist["12-16"] == 1
        assert hist["16-20"] == 1
        assert hist["20-24"] == 1

    def test_histogram_overflow_band(self):
        report = self.make_report([50])
        hist = dict(report.histogram())
        assert hist[">24"] == 1

    def test_empty_report(self):
        report = AccuracyReport()
        assert report.avg_errors_per_document == 0.0
        assert report.avg_error_percentage == 0.0

    def test_evaluate_accuracy_wires_pairs(self):
        a = tree(("R", [("A", [])]))
        b = tree(("R", [("A", [])]))
        report = evaluate_accuracy([(a, b), (a, b)])
        assert report.document_count == 2
        assert report.avg_errors_per_document == 0.0


class TestEndToEndAccuracy:
    def test_corpus_accuracy_in_paper_band(self, converter, kb):
        """The headline reproduction: ~90% accuracy on 50 documents."""
        from repro.corpus.generator import ResumeCorpusGenerator

        docs = ResumeCorpusGenerator(seed=1966).generate(50)
        pairs = [(converter.convert(d.html).root, d.ground_truth) for d in docs]
        report = evaluate_accuracy(pairs)
        # Paper: 9.2% error, 90.8% accuracy.  Accept a generous band;
        # the benchmark prints the exact numbers.
        assert 4.0 <= report.avg_error_percentage <= 16.0
        assert report.avg_concept_nodes_per_document > 30
