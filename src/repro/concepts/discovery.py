"""Automatic discovery of concept instances (Section 5, future work).

"We are currently investigating more sophisticated heuristics and
automated discovery methods for concepts and concept instances from HTML
documents.  In particular, we are developing different methods to
automatically extract concept instances from a training set of HTML
documents and thus to further automate the process."

This module implements the natural contrastive method: given labeled
tokens (the same channel the Bayes classifier trains on), score each
word and bigram by how exclusively it appears under one concept, and
propose the high-purity, high-frequency ones as new keyword instances.
Proposals the knowledge base already covers are suppressed, so the
output is exactly the delta a user would otherwise add by hand.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.concepts.knowledge import KnowledgeBase
from repro.concepts.matcher import SynonymMatcher
from repro.concepts.textutil import normalized_words

# Words too generic to ever propose, whatever their statistics.
STOPWORDS = frozenset(
    """a an and are as at be by for from in into is of on or the to with
    upon was were will""".split()
)

DEFAULT_MIN_COUNT = 3
MIN_PURITY = 0.8
MAX_PER_CONCEPT = 10


@dataclass(frozen=True)
class InstanceProposal:
    """One proposed keyword for a concept."""

    concept_tag: str
    keyword: str
    count: int
    purity: float  # fraction of the keyword's occurrences under this concept

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.concept_tag} <- {self.keyword!r} (n={self.count}, purity={self.purity:.2f})"


def _features(text: str) -> list[str]:
    """Words and adjacent bigrams of a token text."""
    tokens = [w for w in normalized_words(text) if w not in STOPWORDS]
    features = list(tokens)
    features.extend(
        f"{first} {second}" for first, second in zip(tokens, tokens[1:])
    )
    return features


def propose_instances(
    examples: Iterable[tuple[str, str]],
    *,
    kb: KnowledgeBase | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
) -> list[InstanceProposal]:
    """Mine keyword proposals from labeled ``(token text, concept tag)``.

    A feature (word or bigram) is proposed for the concept under which
    it occurs most, provided it occurs at least ``min_count`` times and
    at least ``MIN_PURITY`` of its occurrences are under that concept;
    each concept gets at most ``MAX_PER_CONCEPT`` proposals.
    When ``kb`` is given, features an existing instance already matches
    are filtered out (the proposal set is the *new* knowledge), and
    bigram proposals subsume their component words.
    """
    per_feature: dict[str, Counter[str]] = defaultdict(Counter)
    for text, label in examples:
        for feature in set(_features(text)):
            per_feature[feature][label] += 1

    matcher = SynonymMatcher(kb) if kb is not None else None
    raw: list[InstanceProposal] = []
    for feature, counts in per_feature.items():
        label, top = counts.most_common(1)[0]
        total = sum(counts.values())
        if top < min_count or top / total < MIN_PURITY:
            continue
        if len(feature) < 3 or feature.isdigit():
            continue
        if matcher is not None:
            existing = matcher.find_best(feature)
            if existing is not None and existing.specificity >= len(feature) - 1:
                continue  # the KB already knows this one
        raw.append(InstanceProposal(label, feature, top, top / total))

    # Bigrams subsume their component words for the same concept.
    bigram_words = {
        (p.concept_tag, word)
        for p in raw
        if " " in p.keyword
        for word in p.keyword.split()
    }
    filtered = [
        p
        for p in raw
        if " " in p.keyword or (p.concept_tag, p.keyword) not in bigram_words
    ]

    filtered.sort(key=lambda p: (p.concept_tag, -p.count, p.keyword))
    limited: list[InstanceProposal] = []
    taken: Counter[str] = Counter()
    for proposal in filtered:
        if taken[proposal.concept_tag] < MAX_PER_CONCEPT:
            limited.append(proposal)
            taken[proposal.concept_tag] += 1
    return limited


def augment_knowledge_base(
    kb: KnowledgeBase, proposals: Iterable[InstanceProposal]
) -> int:
    """Add proposed keywords to their concepts; returns how many were
    added.  Proposals for unknown concept tags are skipped."""
    added = 0
    for proposal in proposals:
        concept = kb.concept_for_tag(proposal.concept_tag)
        if concept is None:
            continue
        concept.add_keyword(proposal.keyword)
        added += 1
    return added
