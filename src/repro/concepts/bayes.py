"""Multinomial naive-Bayes token classifier (Section 2.3.1, way 2).

"For Bayes classifier, the user gives examples on how to associate tokens
with concept instances by labeling some input HTML documents.  Based on
these examples, the Bayes classifier computes the statistics of
associating words in the token with concept instances.  Given a new
resume document, the classifier classifies each token as a concept
instance with the highest probability."

Implemented from scratch: Laplace-smoothed multinomial model over the
word features of :mod:`repro.concepts.textutil`, with an explicit
``unknown`` outcome -- the paper relies on tokens "classified as
'unknown'" as user feedback (Section 2.3.1), so the classifier abstains
when no training word is present in the token at all.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.concepts.textutil import normalized_words

# Laplace smoothing: one pseudo-count per word and class.
ALPHA = 1.0


@dataclass(frozen=True)
class _FoldedTables:
    """Train-time-folded inference tables.

    ``key`` is the training state's version counter when the tables
    were derived, so mutation after folding triggers a rebuild instead
    of serving stale probabilities.
    """

    key: int
    priors: dict[str, float]
    word_logprob: dict[str, dict[str, float]]
    unknown_logprob: dict[str, float]


class MultinomialNaiveBayes:
    """Laplace-smoothed multinomial naive Bayes over token words."""

    def __init__(self) -> None:
        self._word_counts: dict[str, Counter[str]] = defaultdict(Counter)
        self._class_word_totals: Counter[str] = Counter()
        self._class_doc_counts: Counter[str] = Counter()
        self._vocabulary: set[str] = set()
        self._total_docs = 0
        # Folded inference tables (see _folded); rebuilt lazily whenever
        # training data changes.  version lets caching wrappers
        # (repro.concepts.fastmatch.CachedBayes) invalidate memoized
        # predictions after online training.
        self.version = 0
        self._tables: _FoldedTables | None = None

    # -- training -----------------------------------------------------------

    def fit(self, examples: Iterable[tuple[str, str]]) -> "MultinomialNaiveBayes":
        """Train on ``(token_text, concept_tag)`` pairs.

        May be called repeatedly; counts accumulate (online training, the
        feedback loop of Section 2.3.1).
        """
        for text, label in examples:
            self.add_example(text, label)
        return self

    def add_example(self, text: str, label: str) -> None:
        """Add one labeled token."""
        words = normalized_words(text)
        if not words:
            return
        counts = self._word_counts[label]
        for word in words:
            counts[word] += 1
            self._vocabulary.add(word)
        self._class_word_totals[label] += len(words)
        self._class_doc_counts[label] += 1
        self._total_docs += 1
        self.version += 1
        self._tables = None

    @property
    def classes(self) -> list[str]:
        """Labels seen during training, sorted."""
        return sorted(self._class_doc_counts)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct training words."""
        return len(self._vocabulary)

    def is_trained(self) -> bool:
        """True once at least one example has been absorbed."""
        return self._total_docs > 0

    # -- inference ----------------------------------------------------------

    def _folded(self) -> "_FoldedTables":
        """Per-class log-probability tables, folded once after training.

        Inference then reduces to dict lookups plus additions: the same
        ``log((count + alpha) / denom)`` expressions the naive formula
        evaluates per word per call, computed once per distinct
        ``(label, word)`` instead.  Scores are bit-identical because the
        folded values come from the identical float expressions and are
        summed in the same word order.
        """
        tables = self._tables
        if tables is None or tables.key != self.version:
            vocab = len(self._vocabulary) or 1
            priors: dict[str, float] = {}
            word_logprob: dict[str, dict[str, float]] = {}
            unknown_logprob: dict[str, float] = {}
            for label in self._class_doc_counts:
                priors[label] = math.log(
                    self._class_doc_counts[label] / self._total_docs
                )
                denom = self._class_word_totals[label] + ALPHA * vocab
                counts = self._word_counts.get(label, {})
                word_logprob[label] = {
                    word: math.log((count + ALPHA) / denom)
                    for word, count in counts.items()
                }
                unknown_logprob[label] = math.log(ALPHA / denom)
            tables = self._tables = _FoldedTables(
                self.version, priors, word_logprob, unknown_logprob
            )
        return tables

    def _score_words(self, words: Sequence[str]) -> dict[str, float]:
        tables = self._folded()
        scores: dict[str, float] = {}
        for label, prior in tables.priors.items():
            table = tables.word_logprob[label]
            unknown = tables.unknown_logprob[label]
            scores[label] = prior + sum(table.get(word, unknown) for word in words)
        return scores

    def log_posteriors(self, text: str) -> dict[str, float]:
        """Unnormalized log posterior per class for ``text``."""
        if not self.is_trained():
            raise RuntimeError("classifier has not been trained")
        return self._score_words(normalized_words(text))

    def predict(self, text: str) -> tuple[Optional[str], float]:
        """Best label and its winning margin (nats) for ``text``.

        Returns ``(None, 0.0)`` when the classifier abstains: the token
        shares no word with the training data.
        """
        words = normalized_words(text)
        if not words or not any(word in self._vocabulary for word in words):
            return None, 0.0
        scores = self._score_words(words)
        ranked = sorted(scores.items(), key=lambda kv: kv[1], reverse=True)
        best_label, best_score = ranked[0]
        margin = best_score - ranked[1][1] if len(ranked) > 1 else math.inf
        return best_label, margin

    def classify(self, text: str) -> Optional[str]:
        """The concept tag for ``text``, or ``None`` (token "unknown").

        Interchangeable with
        :meth:`repro.concepts.matcher.SynonymMatcher.classify`.
        """
        label, _margin = self.predict(text)
        return label

    # -- diagnostics --------------------------------------------------------

    def evaluate(self, examples: Sequence[tuple[str, str]]) -> float:
        """Accuracy over labeled tokens, abstentions counted as errors."""
        if not examples:
            return 0.0
        correct = sum(1 for text, label in examples if self.classify(text) == label)
        return correct / len(examples)
