"""Fast-path concept tagging (perf optimisation of Section 2.3.1).

Profiling shows the concept instance rule dominating conversion
wall-clock: the naive :class:`~repro.concepts.matcher.SynonymMatcher`
runs every compiled instance pattern's ``finditer`` over every token --
O(|instances| x |tokens|) regex scans per document.  This module
replaces that with:

* :class:`AhoCorasickAutomaton` -- a dependency-free Aho-Corasick
  automaton over all *literal* (non-regex) synonym instances: one
  case-folded pass over the token finds every keyword occurrence at
  once.  Regex instances (dates, GPAs, phone numbers, ...) keep their
  exact per-pattern ``finditer`` semantics, gated by a single combined
  alternation prefilter so tokens without any regex hit cost one scan.
* :class:`LRUCache` / :class:`CachedBayes` -- bounded memoization of
  per-token decisions.  Topic-specific corpora repeat headings
  ("Education", "Experience") and boilerplate tokens heavily, so the
  synonym match list and the Bayes ``(label, margin)`` prediction for a
  given token text are computed once and replayed.  Hit/miss/eviction
  counters feed the engine's :class:`~repro.obs.metrics.MetricsRegistry`.

Equivalence guarantee
---------------------
:meth:`FastSynonymMatcher.find_all` returns the **exact** match list of
the naive matcher -- same ``InstanceMatch`` starts/ends/specificities,
same greedy non-overlap resolution -- for every input:

* Literal keywords are matched over an ASCII-case-folded copy of the
  token (``str.translate`` with an A-Z table), which coincides with
  ``re.IGNORECASE`` for ASCII keywords on any text: the only non-ASCII
  characters ``re.IGNORECASE`` matches to ASCII ones are İ, ı, ſ and
  the Kelvin sign (``_ASCII_CASE_ALIASES``), and a token holding one of
  them takes the naive matcher.  The automaton hits are then filtered
  through the same word-boundary checks (``(?<![A-Za-z0-9])`` /
  ``(?![A-Za-z0-9])``) the compiled patterns assert, and through
  ``finditer``'s per-pattern left-to-right non-overlap rule.
* Non-ASCII keywords keep their compiled regex, so Unicode case
  folding of the keyword itself never diverges.
* Regex instances run their own ``finditer`` exactly as before --
  a combined alternation can only tell *whether* some regex matches
  (its per-position alternative preference differs from running each
  pattern separately), so it is used strictly as a prefilter.

The differential tests (this matcher vs the naive one swapped in from
``tests/oracles/``, byte-identical XML and DTD over the golden corpus)
and the hypothesis property test (``tests/test_properties_fastmatch.py``)
enforce this contract the same way the serial-vs-parallel harness
guards the engine.
"""

from __future__ import annotations

import re
from collections import OrderedDict, deque
from typing import Iterator, Optional

from repro.concepts.bayes import MultinomialNaiveBayes
from repro.concepts.knowledge import KnowledgeBase
from repro.concepts.matcher import InstanceMatch, SynonymMatcher

# Entries per token-decision LRU; ~one topic corpus's distinct tokens.
DEFAULT_CACHE_SIZE = 4096

# ASCII case folding: coincides with re.IGNORECASE for ASCII patterns
# over any text without one of the _ASCII_CASE_ALIASES.
_ASCII_FOLD = {code: code + 32 for code in range(ord("A"), ord("Z") + 1)}
# The non-ASCII characters that re.IGNORECASE matches to ASCII letters:
# İ (U+0130), ı (U+0131), ſ (U+017F) and the Kelvin sign (U+212A).
_ASCII_CASE_ALIASES = frozenset("\u0130\u0131\u017f\u212a")
_ASCII_ALNUM = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
)

# Regex constructs whose meaning changes when patterns are renumbered
# inside a combined alternation (backreferences, conditionals): any
# pattern using them disables the prefilter rather than risking a false
# negative.
_UNSAFE_TO_COMBINE = re.compile(r"\\\d|\(\?P=|\(\?\(")

_MISS = object()


class LRUCache:
    """A bounded least-recently-used cache with observability counters.

    Values must never be ``None``-ambiguous to callers -- :meth:`get`
    returns ``None`` on miss -- so cache immutable tuples, not bare
    ``None``-able scalars.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("LRU capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[str, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> object | None:
        value = self._data.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def counters(self) -> dict[str, int]:
        """Monotonic counters, mergeable across snapshots."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._data.clear()


class AhoCorasickAutomaton:
    """Classic Aho-Corasick keyword automaton (goto/fail/output).

    Built once over the case-folded keyword list; :meth:`find` streams
    ``(keyword_id, end_position)`` hits in end-position order during a
    single left-to-right pass over the text.
    """

    __slots__ = ("_goto", "_fail", "_out")

    def __init__(self, keywords: list[str]) -> None:
        goto: list[dict[str, int]] = [{}]
        out: list[tuple[int, ...]] = [()]
        for keyword_id, word in enumerate(keywords):
            state = 0
            for char in word:
                nxt = goto[state].get(char)
                if nxt is None:
                    goto.append({})
                    out.append(())
                    nxt = len(goto) - 1
                    goto[state][char] = nxt
                state = nxt
            out[state] += (keyword_id,)
        fail = [0] * len(goto)
        queue: deque[int] = deque(goto[0].values())
        while queue:
            state = queue.popleft()
            for char, nxt in goto[state].items():
                queue.append(nxt)
                fallback = fail[state]
                while fallback and char not in goto[fallback]:
                    fallback = fail[fallback]
                target = goto[fallback].get(char, 0)
                fail[nxt] = target if target != nxt else 0
                out[nxt] += out[fail[nxt]]
        self._goto = goto
        self._fail = fail
        self._out = out

    def find(self, text: str) -> Iterator[tuple[int, int]]:
        """Yield ``(keyword_id, end)`` for every occurrence in ``text``."""
        goto = self._goto
        fail = self._fail
        out = self._out
        state = 0
        for position, char in enumerate(text):
            while state and char not in goto[state]:
                state = fail[state]
            state = goto[state].get(char, 0)
            if out[state]:
                end = position + 1
                for keyword_id in out[state]:
                    yield keyword_id, end


class FastSynonymMatcher:
    """Drop-in :class:`SynonymMatcher` with an automaton fast path.

    Same ``find_all``/``find_best``/``classify`` surface and -- by the
    module's equivalence guarantee -- same results; one automaton pass
    plus at most one alternation scan per token instead of one regex
    scan per instance, and an LRU replay for repeated token texts.
    """

    def __init__(
        self, kb: KnowledgeBase, *, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        self.kb = kb
        self.cache: LRUCache | None = (
            LRUCache(cache_size) if cache_size > 0 else None
        )
        self._naive: SynonymMatcher | None = None
        # (tag, length, check_prefix_boundary, check_suffix_boundary)
        # per automaton keyword, aligned with the keyword-id space.
        literal_info: list[tuple[str, int, bool, bool]] = []
        keywords: list[str] = []
        regex_instances: list[tuple[str, re.Pattern[str]]] = []
        combinable: list[str] = []
        can_combine = True
        for concept in kb:
            for instance in concept.iter_instances():
                if instance.is_regex or not instance.pattern.isascii():
                    # Non-ASCII literals keep their compiled pattern so
                    # Unicode case folding matches the naive matcher.
                    regex_instances.append((concept.tag, instance.compile()))
                    if instance.is_regex and _UNSAFE_TO_COMBINE.search(
                        instance.pattern
                    ):
                        can_combine = False
                    else:
                        combinable.append(
                            instance.pattern
                            if instance.is_regex
                            else re.escape(instance.pattern)
                        )
                elif instance.pattern:
                    pattern = instance.pattern
                    literal_info.append(
                        (
                            concept.tag,
                            len(pattern),
                            pattern[:1].isalnum(),
                            pattern[-1:].isalnum(),
                        )
                    )
                    keywords.append(pattern.translate(_ASCII_FOLD))
        self._literal_info = literal_info
        self._automaton = AhoCorasickAutomaton(keywords)
        self._regex_instances = regex_instances
        self._regex_prefilter: re.Pattern[str] | None = None
        if regex_instances and can_combine:
            try:
                self._regex_prefilter = re.compile(
                    "|".join(f"(?:{pattern})" for pattern in combinable),
                    re.IGNORECASE,
                )
            except re.error:
                self._regex_prefilter = None

    # -- the SynonymMatcher surface ------------------------------------------

    def find_all(self, text: str) -> list[InstanceMatch]:
        """Every instance match in ``text``, in document order.

        Same contract (and same output) as
        :meth:`SynonymMatcher.find_all`; results for repeated token
        texts replay from the LRU cache.
        """
        cache = self.cache
        if cache is not None:
            cached = cache.get(text)
            if cached is not None:
                return list(cached)  # type: ignore[arg-type]
        kept = self._find_all_uncached(text)
        if cache is not None:
            cache.put(text, tuple(kept))
        return kept

    def find_best(self, text: str) -> InstanceMatch | None:
        """The single best match for a token, or ``None``."""
        matches = self.find_all(text)
        if not matches:
            return None
        return max(matches, key=lambda m: (m.specificity, -m.start))

    def classify(self, text: str) -> str | None:
        """The concept tag for ``text``, or ``None`` when unidentified."""
        best = self.find_best(text)
        return best.concept_tag if best else None

    # -- internals -----------------------------------------------------------

    def _find_all_uncached(self, text: str) -> list[InstanceMatch]:
        if not text.isascii() and not _ASCII_CASE_ALIASES.isdisjoint(text):
            # ASCII folding would miss what re.IGNORECASE matches here.
            return self._naive_matcher().find_all(text)
        raw = self._literal_matches(text)
        raw.extend(self._regex_matches(text))
        raw.sort(key=lambda m: (m.start, -m.specificity, m.concept_tag))
        kept: list[InstanceMatch] = []
        last_end = -1
        for match in raw:
            if match.start >= last_end:
                kept.append(match)
                last_end = match.end
        return kept

    def _literal_matches(self, text: str) -> list[InstanceMatch]:
        folded = text.translate(_ASCII_FOLD)
        info = self._literal_info
        length = len(folded)
        raw: list[InstanceMatch] = []
        # finditer semantics per keyword: a scan resumes at the end of
        # the previous (boundary-valid) occurrence, so occurrences of a
        # keyword overlapping its own previous match are discarded.
        resume_at: dict[int, int] = {}
        for keyword_id, end in self._automaton.find(folded):
            tag, pattern_length, check_prefix, check_suffix = info[keyword_id]
            start = end - pattern_length
            if check_prefix and start > 0 and folded[start - 1] in _ASCII_ALNUM:
                continue
            if check_suffix and end < length and folded[end] in _ASCII_ALNUM:
                continue
            if start < resume_at.get(keyword_id, 0):
                continue
            resume_at[keyword_id] = end
            raw.append(InstanceMatch(tag, start, end, text[start:end]))
        return raw

    def _regex_matches(self, text: str) -> list[InstanceMatch]:
        if not self._regex_instances:
            return []
        prefilter = self._regex_prefilter
        if prefilter is not None and prefilter.search(text) is None:
            return []
        raw: list[InstanceMatch] = []
        for tag, pattern in self._regex_instances:
            for found in pattern.finditer(text):
                if found.start() == found.end():
                    continue
                raw.append(
                    InstanceMatch(tag, found.start(), found.end(), found.group(0))
                )
        return raw

    def _naive_matcher(self) -> SynonymMatcher:
        if self._naive is None:
            self._naive = SynonymMatcher(self.kb)
        return self._naive


class CachedBayes:
    """LRU-memoized view over a trained :class:`MultinomialNaiveBayes`.

    Duck-types the classifier surface the instance rule consumes
    (:meth:`is_trained` / :meth:`predict` / :meth:`classify`).  Keys are
    ASCII-case-folded token texts -- prediction is case-insensitive
    (word normalization lower-cases), so "EDUCATION" and "Education"
    share one entry.  The underlying classifier's ``version`` counter is
    checked on every lookup so online training invalidates the cache.
    """

    def __init__(self, bayes: MultinomialNaiveBayes) -> None:
        self.bayes = bayes
        self.cache = LRUCache(DEFAULT_CACHE_SIZE)
        self._seen_version = bayes.version

    def is_trained(self) -> bool:
        return self.bayes.is_trained()

    def predict(self, text: str) -> tuple[Optional[str], float]:
        cache = self.cache
        if self.bayes.version != self._seen_version:
            cache.clear()
            self._seen_version = self.bayes.version
        key = text.translate(_ASCII_FOLD)
        cached = cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        decision = self.bayes.predict(text)
        cache.put(key, decision)
        return decision

    def classify(self, text: str) -> Optional[str]:
        label, _margin = self.predict(text)
        return label


def cache_counter_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    """Per-cache counter growth between two snapshots.

    All-zero caches are dropped so idle snapshots (fast tagger off, or a
    chunk with no tokens) serialize to an empty dict.
    """
    delta: dict[str, dict[str, int]] = {}
    for cache_name, counters in after.items():
        base = before.get(cache_name, {})
        grown = {
            key: value - base.get(key, 0) for key, value in counters.items()
        }
        if any(grown.values()):
            delta[cache_name] = grown
    return delta
