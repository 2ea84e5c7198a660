"""Property test: automaton matcher == naive matcher (hypothesis).

Random knowledge bases (overlapping literal keywords, punctuation-edged
keywords, regex instances, the occasional non-ASCII keyword) against
random texts: :class:`FastSynonymMatcher.find_all` must return exactly
the naive :class:`SynonymMatcher.find_all` list -- same concepts, same
spans, same greedy non-overlap resolution.  Each text is matched twice
so LRU replay is covered, and a tiny cache size forces evictions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts.concept import Concept, ConceptInstance
from repro.concepts.fastmatch import FastSynonymMatcher
from repro.concepts.knowledge import KnowledgeBase
from repro.concepts.matcher import SynonymMatcher

# Deliberately tiny alphabets so keywords overlap each other and the
# texts constantly; includes alnum, punctuation (boundary semantics),
# whitespace, and a non-ASCII letter (fallback path).
KEYWORD_ALPHABET = "abc+ ."
TEXT_ALPHABET = "abcxy09+-. é"

# A fixed pool of valid regex instances: digit runs, alternations,
# optional parts, and one pattern anchored on word characters.
REGEX_POOL = [
    r"\d+",
    r"a+b",
    r"(x|y)z",
    r"ab?c",
    r"[abc]{2}",
    r"b\.s\.",
]

keywords = st.lists(
    st.text(alphabet=KEYWORD_ALPHABET, min_size=1, max_size=5).filter(
        lambda s: s.strip()
    ),
    min_size=0,
    max_size=6,
)
regexes = st.lists(st.sampled_from(REGEX_POOL), min_size=0, max_size=3)
unicode_keywords = st.lists(
    st.sampled_from(["zürich", "café", "naïve"]), min_size=0, max_size=1
)
texts = st.lists(
    st.text(alphabet=TEXT_ALPHABET, min_size=0, max_size=40),
    min_size=1,
    max_size=5,
)


def build_kb(
    keyword_groups: list[list[str]], regex_patterns: list[str]
) -> KnowledgeBase:
    kb = KnowledgeBase("prop")
    for index, group in enumerate(keyword_groups):
        instances = [ConceptInstance(word) for word in group]
        kb.add(Concept(f"c{index}", instances))
    if regex_patterns:
        kb.add(
            Concept(
                "rx",
                [ConceptInstance(p, is_regex=True) for p in regex_patterns],
            )
        )
    return kb


@settings(max_examples=150, deadline=None)
@given(
    groups=st.lists(keywords, min_size=1, max_size=3),
    regex_patterns=regexes,
    extra=unicode_keywords,
    sample_texts=texts,
)
def test_fast_matcher_equals_naive(groups, regex_patterns, extra, sample_texts):
    if extra:
        groups = groups + [extra]
    kb = build_kb(groups, regex_patterns)
    naive = SynonymMatcher(kb)
    fast = FastSynonymMatcher(kb, cache_size=2)  # force evictions
    for text in sample_texts:
        expected = naive.find_all(text)
        assert fast.find_all(text) == expected
        # Replay from (or around) the cache is identical.
        assert fast.find_all(text) == expected


@settings(max_examples=60, deadline=None)
@given(sample_texts=texts)
def test_fast_matcher_equals_naive_on_resume_kb(kb, sample_texts):
    """The full 24-concept/233-instance resume KB, random texts."""
    naive = SynonymMatcher(kb)
    fast = FastSynonymMatcher(kb)
    for text in sample_texts:
        assert fast.find_all(text) == naive.find_all(text)


# ASCII, the four non-ASCII characters re.IGNORECASE matches to ASCII
# letters, other non-ASCII letters and signs, and the resume KB's two
# non-ASCII keywords.
UNICODE_TEXTS = st.lists(
    st.lists(
        st.one_of(
            st.characters(max_codepoint=0x7F),
            st.sampled_from(["\u0130", "\u0131", "\u017f", "\u212a", "é", "É", "ß", "©"]),
            st.sampled_from(["résumé", "université", "RÉSUMÉ", "UNIVERSITÉ", " school ", "cv"]),
        ),
        max_size=12,
    ).map("".join),
    min_size=1,
    max_size=5,
)


@settings(max_examples=100, deadline=None)
@given(sample_texts=UNICODE_TEXTS)
def test_fast_matcher_equals_naive_on_non_ascii_text(kb, sample_texts):
    """Non-ASCII tokens stay on the automaton unless they hold one of
    the ASCII case aliases; either way the matches are the naive ones."""
    naive = SynonymMatcher(kb)
    fast = FastSynonymMatcher(kb)
    for text in sample_texts:
        assert fast.find_all(text) == naive.find_all(text)
