"""Tests for the multinomial naive-Bayes token classifier."""

import pytest

from repro.concepts.bayes import MultinomialNaiveBayes

TRAINING = [
    ("University of California at Davis", "INSTITUTION"),
    ("Stanford University", "INSTITUTION"),
    ("Cornell University Ithaca", "INSTITUTION"),
    ("B.S. Computer Science", "DEGREE"),
    ("M.S. Electrical Engineering", "DEGREE"),
    ("Ph.D. Computer Science", "DEGREE"),
    ("June 1996", "DATE"),
    ("July 1998", "DATE"),
    ("September 2000", "DATE"),
]


@pytest.fixture()
def trained():
    return MultinomialNaiveBayes().fit(TRAINING)


class TestTraining:
    def test_classes_sorted(self, trained):
        assert trained.classes == ["DATE", "DEGREE", "INSTITUTION"]

    def test_vocabulary_grows(self, trained):
        assert trained.vocabulary_size > 10

    def test_untrained_flag(self):
        clf = MultinomialNaiveBayes()
        assert not clf.is_trained()
        clf.add_example("word", "X")
        assert clf.is_trained()

    def test_empty_example_ignored(self):
        clf = MultinomialNaiveBayes()
        clf.add_example("   ", "X")
        assert not clf.is_trained()


class TestPrediction:
    def test_classifies_seen_patterns(self, trained):
        assert trained.classify("Princeton University") == "INSTITUTION"
        assert trained.classify("B.S. Mathematics") == "DEGREE"
        assert trained.classify("June 2001") == "DATE"

    def test_abstains_on_unknown_vocabulary(self, trained):
        assert trained.classify("xylophone zebra") is None

    def test_abstains_on_empty(self, trained):
        assert trained.classify("") is None

    def test_predict_returns_margin(self, trained):
        label, margin = trained.predict("Stanford University")
        assert label == "INSTITUTION"
        assert margin > 0

    def test_log_posteriors_requires_training(self):
        with pytest.raises(RuntimeError):
            MultinomialNaiveBayes().log_posteriors("x")

    def test_normalization_bridges_periods(self, trained):
        # "B.S" and "B.S." normalize identically.
        assert trained.classify("B.S in Math") == "DEGREE"


class TestDiagnostics:
    def test_evaluate_accuracy(self, trained):
        assert trained.evaluate(TRAINING) == 1.0

    def test_evaluate_empty(self, trained):
        assert trained.evaluate([]) == 0.0

    def test_incremental_training_changes_prediction(self):
        clf = MultinomialNaiveBayes().fit(TRAINING)
        assert clf.classify("nehanet corporation") is None
        for _ in range(3):
            clf.add_example("NehaNet Corporation", "COMPANY")
        assert clf.classify("nehanet corporation") == "COMPANY"
