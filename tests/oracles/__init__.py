"""Oracles for the conversion pipeline's fast paths, and a swap that
routes the pipeline through them.

Production code has one implementation per stage.  The legacy forms
they replaced live here unchanged, as the oracles the differential
suites compare against:

* ``parser`` -- :func:`tests.oracles.tokenizer.tokenize_legacy`, the
  per-character scanner behind ``parse_html``;
* ``tidy`` -- :func:`tests.oracles.tidy.tidy_legacy`, the
  six-traversal cleanser;
* ``tagger`` -- :class:`tests.oracles.tagger.NaiveSynonymMatcher`, the
  per-pattern synonym matcher;
* ``rules`` -- :mod:`tests.oracles.rules`, the four conversion rules
  that rewrite one node at a time;
* :func:`tests.oracles.entities.decode_entities_slow`, the entity
  decoder's oracle (unit level only; nothing swaps it in).
* :func:`tests.oracles.serialize.to_xml_legacy`, the recursive XML
  writer (unit level only).
* :func:`tests.oracles.migrate.migrate_repository`, the serial
  repository migration ``VersionedRepository.sync`` is checked against
  (unit level only).

:func:`swapped` installs any of the first four by monkeypatching the
names production code calls through -- ``repro.htmlparse.parser.tokenize``,
``repro.convert.pipeline.tidy``, ``repro.convert.pipeline.FastSynonymMatcher``
and the four ``repro.convert.pipeline.apply_*_rule`` names -- and restores
them on exit.  ``src/`` has no hook for it.  A
converter built under the swap keeps the naive matcher, and engine
workers forked under it keep all four, so the swap must be in place
before the engine builds its converter and forks its pool.

The swap counts the calls it serves in shared memory, so calls made in
forked workers reach the parent.  Every oracle fixture asserts those
counts: a rename in ``pipeline.py`` or ``parser.py`` would otherwise
leave the production path running and make each differential pass
without comparing anything.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from typing import Iterator

import repro.convert.pipeline as pipeline_module
import repro.htmlparse.parser as parser_module
from repro.concepts.knowledge import KnowledgeBase
from tests.oracles import rules
from tests.oracles.tagger import NaiveSynonymMatcher
from tests.oracles.tidy import tidy_legacy
from tests.oracles.tokenizer import tokenize_legacy

ORACLES = ("parser", "tidy", "tagger", "rules")


class OracleCalls:
    """Calls served per swapped oracle: documents tokenized (``parser``),
    trees cleansed (``tidy``), naive matchers built (``tagger``) and rule
    applications (``rules``, four per converted document)."""

    def __init__(self) -> None:
        self._values = {name: multiprocessing.Value("q", 0) for name in ORACLES}

    def __getitem__(self, oracle: str) -> int:
        return self._values[oracle].value

    def bump(self, oracle: str) -> None:
        value = self._values[oracle]
        with value.get_lock():
            value.value += 1


@contextmanager
def swapped(*oracles: str) -> Iterator[OracleCalls]:
    """Route the conversion pipeline through the named oracles."""
    unknown = sorted(set(oracles) - set(ORACLES))
    if unknown or not oracles:
        raise ValueError(f"choose oracles from {ORACLES}, got {oracles!r}")
    calls = OracleCalls()

    def tokenize(source: str):
        calls.bump("parser")
        return tokenize_legacy(source)

    def tidy(root):
        calls.bump("tidy")
        return tidy_legacy(root)

    class CountedNaiveMatcher(NaiveSynonymMatcher):
        def __init__(self, kb: KnowledgeBase, *, cache_size: int = 0) -> None:
            calls.bump("tagger")
            super().__init__(kb, cache_size=cache_size)

    def counted_rule(rule):
        def apply(*args, **kwargs):
            calls.bump("rules")
            return rule(*args, **kwargs)

        return apply

    targets = {
        "parser": [(parser_module, "tokenize", tokenize)],
        "tidy": [(pipeline_module, "tidy", tidy)],
        "tagger": [(pipeline_module, "FastSynonymMatcher", CountedNaiveMatcher)],
        "rules": [
            (pipeline_module, name, counted_rule(getattr(rules, f"{name}_legacy")))
            for name in (
                "apply_tokenization_rule",
                "apply_instance_rule",
                "apply_grouping_rule",
                "apply_consolidation_rule",
            )
        ],
    }
    saved = []
    try:
        for oracle in oracles:
            for module, name, replacement in targets[oracle]:
                # getattr first: a renamed target fails here, loudly.
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, replacement)
        yield calls
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
