"""The naive synonym matcher as a drop-in for the automaton: the
tagger's oracle.

``repro.concepts.matcher.SynonymMatcher`` runs every compiled instance
pattern over every token; ``FastSynonymMatcher`` must return its exact
match lists.  The pipeline builds ``FastSynonymMatcher(kb)`` and reads
its ``cache`` for the tagger-cache counters, so the stand-in takes the
same constructor arguments and has no cache: a conversion under it
reports no tagger-cache events at all.
"""

from __future__ import annotations

from repro.concepts.knowledge import KnowledgeBase
from repro.concepts.matcher import SynonymMatcher


class NaiveSynonymMatcher(SynonymMatcher):
    """``SynonymMatcher`` with the automaton's constructor and no cache."""

    cache = None

    def __init__(self, kb: KnowledgeBase, *, cache_size: int = 0) -> None:
        super().__init__(kb)
