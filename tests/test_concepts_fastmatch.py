"""Tests for the Aho-Corasick tagging fast path."""

from __future__ import annotations

import pickle
import re
import sys

import pytest

from repro.concepts.bayes import ALPHA, MultinomialNaiveBayes
from repro.concepts.concept import Concept, ConceptInstance
from repro.concepts.fastmatch import (
    _ASCII_CASE_ALIASES,
    AhoCorasickAutomaton,
    CachedBayes,
    FastSynonymMatcher,
    LRUCache,
    cache_counter_delta,
)
from repro.concepts.knowledge import KnowledgeBase
from repro.concepts.matcher import SynonymMatcher


def build_kb() -> KnowledgeBase:
    kb = KnowledgeBase("test")
    kb.add(
        Concept(
            "institution",
            [ConceptInstance("University"), ConceptInstance("College")],
        )
    )
    kb.add(
        Concept(
            "degree",
            [ConceptInstance("B.S."), ConceptInstance("bachelor of science")],
        )
    )
    kb.add(Concept("skill", [ConceptInstance("C++"), ConceptInstance("C")]))
    kb.add(
        Concept(
            "date", [ConceptInstance(r"\b(June|July)\s+\d{4}\b", is_regex=True)]
        )
    )
    return kb


@pytest.fixture()
def kb_small():
    return build_kb()


@pytest.fixture()
def fast(kb_small):
    return FastSynonymMatcher(kb_small)


@pytest.fixture()
def naive(kb_small):
    return SynonymMatcher(kb_small)


class TestAutomaton:
    def test_finds_all_occurrences(self):
        automaton = AhoCorasickAutomaton(["he", "she", "his", "hers"])
        hits = sorted(automaton.find("ushers"))
        # she ends at 4, he ends at 4, hers ends at 6
        assert (1, 4) in hits  # "she"
        assert (0, 4) in hits  # "he" (suffix of she)
        assert (3, 6) in hits  # "hers"

    def test_empty_text(self):
        automaton = AhoCorasickAutomaton(["abc"])
        assert list(automaton.find("")) == []

    def test_keyword_at_start_and_end(self):
        automaton = AhoCorasickAutomaton(["ab"])
        assert list(automaton.find("abxab")) == [(0, 2), (0, 5)]


EQUIVALENCE_TEXTS = [
    "Stanford University",
    "University of X, B.S., June 1996",
    "nothing relevant",
    "in new york city",
    "University and College",
    "June 1996 at the University",
    "bachelor of science from University",
    "C++ and C and CCC",
    "UNIVERSITY college BaChElOr Of ScIeNcE",
    "B.S.B.S. B.S. b.s.",
    "",
    "   ",
    "universitys",  # embedded keyword must respect word boundaries
    "xuniversity",
    "C+++",
    "Université de Montréal",  # non-ASCII text, automaton path
    "bachelor of ſcience at the Unıversity",  # ASCII case aliases: fallback
    "July 2003, June 1996",
]


class TestEquivalence:
    @pytest.mark.parametrize("text", EQUIVALENCE_TEXTS)
    def test_find_all_matches_naive(self, fast, naive, text):
        assert fast.find_all(text) == naive.find_all(text)

    @pytest.mark.parametrize("text", EQUIVALENCE_TEXTS)
    def test_find_best_and_classify_match_naive(self, fast, naive, text):
        assert fast.find_best(text) == naive.find_best(text)
        assert fast.classify(text) == naive.classify(text)

    def test_self_overlapping_punctuation_keyword(self):
        # "+-+" overlaps itself; finditer skips the overlapped
        # occurrence, and the automaton path must replicate that.
        kb = KnowledgeBase("t")
        kb.add(Concept("a", [ConceptInstance("ab+")]))
        kb.add(Concept("b", [ConceptInstance("+-+")]))
        fast, naive = FastSynonymMatcher(kb), SynonymMatcher(kb)
        for text in ["ab+-+-+", "x+-+-+", "+-+-+-+"]:
            assert fast.find_all(text) == naive.find_all(text)

    def test_non_ascii_keyword_uses_regex_fallback(self):
        kb = KnowledgeBase("t")
        kb.add(Concept("city", [ConceptInstance("Zürich")]))
        fast, naive = FastSynonymMatcher(kb), SynonymMatcher(kb)
        for text in ["in Zürich today", "in zürich today", "plain"]:
            assert fast.find_all(text) == naive.find_all(text)

    def test_ascii_case_aliases_are_found_by_brute_force(self):
        """Every non-ASCII character that ``re.IGNORECASE`` matches to an
        ASCII pattern character or to the boundary class, over all code
        points: the set the fast path must hand to the naive matcher."""
        non_ascii = "".join(chr(code) for code in range(0x80, sys.maxunicode + 1))
        found = set(re.findall(r"[A-Za-z0-9]", non_ascii, re.IGNORECASE))
        for code in range(0x80):
            found.update(re.findall(re.escape(chr(code)), non_ascii, re.IGNORECASE))
        assert found == _ASCII_CASE_ALIASES

    def test_non_ascii_token_stays_on_the_automaton(self, kb):
        fast, naive = FastSynonymMatcher(kb), SynonymMatcher(kb)
        for token in ["\u00a9 2001 Portal 7", "résumé", "Université de Montréal"]:
            assert fast.find_all(token) == naive.find_all(token)
        assert fast._naive is None
        fast.find_all("\u212a")
        assert fast._naive is not None

    def test_resume_kb_tokens(self, kb):
        fast, naive = FastSynonymMatcher(kb), SynonymMatcher(kb)
        tokens = [
            "June 1996, University of California at Davis",
            "B.S. (Computer Science), GPA 3.8/4.0",
            "EDUCATION",
            "Experience",
            "C++, Java, Python",
            "(555) 123-4567",
            "objective: seeking a position",
        ]
        for token in tokens:
            assert fast.find_all(token) == naive.find_all(token)

    def test_cached_replay_is_equal_and_fresh(self, fast):
        text = "University of X, B.S., June 1996"
        first = fast.find_all(text)
        second = fast.find_all(text)
        assert first == second
        assert first is not second  # callers may consume the list

    def test_picklable_for_worker_shipping(self, kb_small):
        fast = FastSynonymMatcher(kb_small)
        fast.find_all("University")
        clone = pickle.loads(pickle.dumps(fast))
        assert clone.find_all("University") == fast.find_all("University")


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", (1,))
        assert cache.get("a") == (1,)
        assert cache.counters() == {"hits": 1, "misses": 1, "evictions": 0}

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", (1,))
        cache.put("b", (2,))
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", (3,))
        assert cache.get("b") is None
        assert cache.get("a") == (1,)
        assert cache.evictions == 1

    def test_capacity_bound(self):
        cache = LRUCache(8)
        for i in range(100):
            cache.put(str(i), (i,))
        assert len(cache) == 8
        assert cache.evictions == 92

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_cache_disabled_when_size_zero(self, kb_small):
        fast = FastSynonymMatcher(kb_small, cache_size=0)
        assert fast.cache is None
        assert fast.find_all("University") == SynonymMatcher(
            build_kb()
        ).find_all("University")


class TestCachedBayes:
    def fit(self) -> MultinomialNaiveBayes:
        return MultinomialNaiveBayes().fit(
            [
                ("bachelor of science", "DEGREE"),
                ("master of science", "DEGREE"),
                ("university of somewhere", "INSTITUTION"),
                ("somewhere state college", "INSTITUTION"),
            ]
        )

    def test_predictions_identical(self):
        bayes = self.fit()
        cached = CachedBayes(bayes)
        for text in ["science degree", "university", "SCIENCE Degree", "zzz"]:
            assert cached.predict(text) == bayes.predict(text)
            assert cached.classify(text) == bayes.classify(text)

    def test_case_folded_key_shares_entry(self):
        cached = CachedBayes(self.fit())
        cached.predict("University")
        cached.predict("UNIVERSITY")
        assert cached.cache is not None
        assert cached.cache.hits == 1

    def test_online_training_invalidates(self):
        bayes = self.fit()
        cached = CachedBayes(bayes)
        before = cached.predict("pascal fortran cobol")
        assert before == (None, 0.0)
        bayes.add_example("pascal fortran cobol", "SKILL")
        after = cached.predict("pascal fortran cobol")
        assert after == bayes.predict("pascal fortran cobol")
        assert after[0] == "SKILL"


class TestFoldedBayes:
    def test_log_posteriors_match_explicit_formula(self):
        import math

        bayes = MultinomialNaiveBayes().fit(
            [("alpha beta", "A"), ("beta gamma", "B"), ("alpha alpha", "A")]
        )
        text = "alpha gamma delta"
        from repro.concepts.textutil import normalized_words

        words = normalized_words(text)
        vocab = bayes.vocabulary_size
        expected = {}
        for label in bayes.classes:
            prior = math.log(
                bayes._class_doc_counts[label] / bayes._total_docs
            )
            denom = bayes._class_word_totals[label] + ALPHA * vocab
            likelihood = sum(
                math.log(
                    (bayes._word_counts[label][word] + ALPHA) / denom
                )
                for word in words
            )
            expected[label] = prior + likelihood
        assert bayes.log_posteriors(text) == expected

    def test_tables_rebuilt_after_training(self):
        bayes = MultinomialNaiveBayes().fit([("alpha", "A"), ("beta", "B")])
        first = bayes.log_posteriors("alpha")
        bayes.add_example("alpha alpha", "B")
        second = bayes.log_posteriors("alpha")
        assert first != second


class TestCacheCounterDelta:
    def test_growth_only(self):
        before = {"synonym": {"hits": 5, "misses": 10, "evictions": 0}}
        after = {
            "synonym": {"hits": 9, "misses": 12, "evictions": 1},
            "bayes": {"hits": 0, "misses": 0, "evictions": 0},
        }
        assert cache_counter_delta(before, after) == {
            "synonym": {"hits": 4, "misses": 2, "evictions": 1}
        }

    def test_empty_when_idle(self):
        assert cache_counter_delta({}, {}) == {}
