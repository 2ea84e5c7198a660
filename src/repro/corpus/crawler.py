"""The topic-specific crawler (the [20] substrate).

A best-first crawler over :class:`repro.corpus.web.SimulatedWeb` with a
keyword relevance scorer: pages "that look like resumes" -- scored by
occurrences of resume-topic keywords, the same concept instances the
conversion step reuses ("some concept instances are often already
present in order for the topic specific crawler to gather respective
documents", Section 2.2).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

from repro.concepts.knowledge import KnowledgeBase
from repro.corpus.generator import GeneratedResume
from repro.corpus.web import SimulatedWeb

# Headings that indicate a resume-like page; defaults drawn from the
# resume topic's title concepts.
DEFAULT_TOPIC_KEYWORDS = (
    "resume", "curriculum vitae", "objective", "education", "experience",
    "skills", "references",
)
# Distinct topic keywords a page needs to be collected as a resume.
RELEVANCE_THRESHOLD = 3


@dataclass
class CrawlReport:
    """Outcome of a crawl."""

    visited: int = 0
    collected: list[GeneratedResume] = field(default_factory=list)
    collected_urls: list[str] = field(default_factory=list)
    false_positives: int = 0
    missed: int = 0

    @property
    def precision(self) -> float:
        total = len(self.collected_urls)
        return (total - self.false_positives) / total if total else 0.0

    @property
    def recall(self) -> float:
        true_hits = len(self.collected_urls) - self.false_positives
        denominator = true_hits + self.missed
        return true_hits / denominator if denominator else 0.0


class TopicCrawler:
    """Best-first topic crawler with keyword relevance scoring."""

    def __init__(
        self,
        web: SimulatedWeb,
        *,
        keywords: tuple[str, ...] = DEFAULT_TOPIC_KEYWORDS,
        max_pages: int | None = None,
    ) -> None:
        self.web = web
        self.keywords = keywords
        self.max_pages = max_pages
        self._patterns = [
            re.compile(rf"(?<![a-z]){re.escape(keyword)}(?![a-z])", re.IGNORECASE)
            for keyword in keywords
        ]

    @classmethod
    def from_knowledge_base(cls, web: SimulatedWeb, kb: KnowledgeBase) -> "TopicCrawler":
        """Build the scorer from a knowledge base's title concepts.

        Reuses concept names as crawl keywords -- the paper's observation
        that crawler keywords and concept instances overlap.
        """
        from repro.concepts.concept import ConceptRole

        keywords = tuple(
            concept.name for concept in kb.by_role(ConceptRole.TITLE)
        )
        return cls(web, keywords=keywords)

    def score(self, html: str) -> int:
        """Topic relevance: number of distinct topic keywords present."""
        return sum(1 for pattern in self._patterns if pattern.search(html))

    def crawl(self, seeds: list[str] | None = None) -> CrawlReport:
        """Best-first crawl from ``seeds`` (the web's defaults if None).

        Pages scoring at least ``RELEVANCE_THRESHOLD`` are collected as
        resumes; frontier expansion prefers links found on high-scoring
        pages (standard focused-crawling heuristic).
        """
        seeds = seeds if seeds is not None else self.web.seed_urls
        report = CrawlReport()
        seen: set[str] = set()
        # Max-heap via negative priority; tie-broken by insertion order.
        frontier: list[tuple[int, int, str]] = []
        counter = 0
        for seed in seeds:
            heapq.heappush(frontier, (0, counter, seed))
            counter += 1

        while frontier:
            if self.max_pages is not None and report.visited >= self.max_pages:
                break
            _priority, _tie, url = heapq.heappop(frontier)
            if url in seen:
                continue
            seen.add(url)
            page = self.web.fetch(url)
            if page is None:
                continue
            report.visited += 1
            score = self.score(page.html)
            if score >= RELEVANCE_THRESHOLD:
                report.collected_urls.append(url)
                if page.resume is not None:
                    report.collected.append(page.resume)
                else:
                    report.false_positives += 1
            for link in page.links:
                if link not in seen:
                    heapq.heappush(frontier, (-score, counter, link))
                    counter += 1

        collected_set = set(report.collected_urls)
        report.missed = sum(
            1 for url in self.web.resume_urls() if url not in collected_set
        )
        return report
