"""Property-based tests: each one-pass conversion rule is its oracle.

Hypothesis builds random trees that mix what the four rules dispatch
on -- concept elements, list tags, group tags, ``GROUP``, ``TOKEN``
(also nested, and as the root) and text -- and asserts that the
production rule and the node-at-a-time rule in ``tests/oracles/rules.py``
leave *identical trees* (tags, attributes with ``val``, text and order)
and return the same value.  For the instance rule the provenance events
must match too, so each token's label path is the one the sequential
rule computes.  ``split_topic_sentence`` is compared on text that mixes
delimiters, non-ASCII digits, URL schemes and unusual whitespace, under
delimiter tuples that hold regex metacharacters.

This is the property-level wall behind the corpus differential in
test_fast_rules_differential.py.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts.bayes import MultinomialNaiveBayes
from repro.concepts.fastmatch import FastSynonymMatcher
from repro.concepts.resume_kb import build_resume_knowledge_base
from repro.convert.config import ConversionConfig
from repro.convert.consolidation_rule import apply_consolidation_rule
from repro.convert.grouping_rule import apply_grouping_rule
from repro.convert.instance_rule import apply_instance_rule
from repro.convert.tokenize_rule import apply_tokenization_rule, split_topic_sentence
from repro.dom.node import Element, Text
from repro.dom.treeops import clone, deep_equal
from repro.obs.provenance import ProvenanceLog
from tests.oracles.rules import (
    apply_consolidation_rule_legacy,
    apply_grouping_rule_legacy,
    apply_instance_rule_legacy,
    apply_tokenization_rule_legacy,
    split_topic_sentence_legacy,
)

KB = build_resume_knowledge_base()
MATCHER = FastSynonymMatcher(KB)

# ---------------------------------------------------------------------------
# split_topic_sentence

sentence_chars = st.sampled_from(
    list("ab Z;,:/.-]^\\") + ["1", "9", "²", "٣", "१", "://", "\xa0", "\t", "\n"]
    + ["\x1c", "\x1d", "\x1e", "\x1f", "é"]
)
sentences = st.lists(sentence_chars, max_size=40).map("".join)
delimiter_tuples = st.one_of(
    st.just((";", ",", ":")),
    st.lists(
        st.sampled_from(
            [";", ",", ":", "/", "]", "^", "-", "\\", "[", ".", "\xa0", "١", "ab"]
        ),
        max_size=5,
    ).map(tuple),
)


class TestSplitTopicSentence:
    @settings(max_examples=300)
    @given(sentences, delimiter_tuples)
    def test_equals_oracle(self, text, delimiters):
        assert split_topic_sentence(text, delimiters) == split_topic_sentence_legacy(
            text, delimiters
        )


# ---------------------------------------------------------------------------
# random trees

PHRASES = [
    "Education", "Experience", "University of California at Davis",
    "B.S. Computer Science", "Java, C++", "1998 - 2002", "Acme Corp",
    "Software Engineer", "Davis, CA", "john@example.org", "(530) 555-0100",
    "misc words", "x", "", "  ", "Linux; Unix", "GPA 3.9/4.0",
    "Widget Factory",
]
TAGS = [
    # concepts
    "EDUCATION", "DATE", "INSTITUTION", "COMPANY", "JOB-TITLE", "RESUME",
    # list tags and group tags
    "ul", "table", "dl", "body", "h1", "h2", "p", "li", "tr", "b", "dt", "dd",
    # markup the rules know nothing of, temporary nodes
    "span", "font", "GROUP", "TOKEN",
]
texts = st.sampled_from(PHRASES)


def element_spec(children):
    return st.tuples(
        st.sampled_from(TAGS),
        st.one_of(st.none(), texts),  # the val attribute
        st.lists(children, max_size=5),
    )


leaves = st.one_of(
    texts.map(lambda text: ("#text", text)),
    st.tuples(st.sampled_from(TAGS), st.one_of(st.none(), texts), st.just([])),
)
tree_specs = st.recursive(
    leaves,
    element_spec,
    max_leaves=30,
)


def build(spec):
    if spec[0] == "#text":
        return Text(spec[1])
    tag, val, children = spec
    element = Element(tag, {"val": val} if val else None)
    for child in children:
        element.append_child(build(child))
    return element


@st.composite
def documents(draw):
    """A random tree; sometimes a root with a parent above it (the rules'
    ``root`` need not be a tree root), sometimes a ``TOKEN`` root."""
    root = build(draw(st.tuples(
        st.sampled_from(["body", "TOKEN", "RESUME"]),
        st.one_of(st.none(), texts),
        st.lists(tree_specs, max_size=6),
    )))
    if draw(st.booleans()):
        outer = Element("html", children=[Element("head"), root, Text("tail")])
        return outer, root
    return root, root


def twin(document):
    """Two independent copies of (outer tree, rule root)."""
    outer, root = document
    copies = []
    for _ in range(2):
        outer_copy = clone(outer)
        if root is outer:
            copies.append((outer_copy, outer_copy))
        else:
            copies.append((outer_copy, outer_copy.children[1]))
    return copies


def same_trees(a, b) -> bool:
    return deep_equal(a, b)


def trained_bayes() -> MultinomialNaiveBayes:
    clf = MultinomialNaiveBayes()
    clf.fit(
        [
            ("Acme Widget Factory", "COMPANY"),
            ("Gizmo Works Ltd", "COMPANY"),
            ("misc words here", "OBJECTIVE"),
        ]
    )
    return clf


BAYES = trained_bayes()

configs = st.one_of(
    st.just(ConversionConfig()),
    st.builds(
        ConversionConfig,
        tagger=st.sampled_from(["synonym", "bayes", "hybrid"]),
        delimiters=st.sampled_from([(";", ",", ":"), (",",), ("-", "]", "^")]),
    ),
)


class TestRulesEqualOracle:
    @settings(max_examples=80)
    @given(documents(), configs)
    def test_tokenization(self, document, config):
        (fast_outer, fast_root), (slow_outer, slow_root) = twin(document)
        assert apply_tokenization_rule(fast_root, config) == (
            apply_tokenization_rule_legacy(slow_root, config)
        )
        assert same_trees(fast_outer, slow_outer)

    @settings(max_examples=150)
    @given(documents(), configs, st.booleans())
    def test_instance(self, document, config, tokenize_first):
        (fast_outer, fast_root), (slow_outer, slow_root) = twin(document)
        if tokenize_first:
            apply_tokenization_rule_legacy(fast_root, config)
            apply_tokenization_rule_legacy(slow_root, config)
        fast_log, slow_log = ProvenanceLog(), ProvenanceLog()
        kwargs = dict(matcher=MATCHER, bayes=BAYES, doc_id="d")
        fast = apply_instance_rule(
            fast_root, KB, config, provenance=fast_log, **kwargs
        )
        slow = apply_instance_rule_legacy(
            slow_root, KB, config, provenance=slow_log, **kwargs
        )
        assert fast == slow
        assert fast_log.events == slow_log.events
        assert same_trees(fast_outer, slow_outer)

    @settings(max_examples=60)
    @given(documents(), configs)
    def test_instance_without_provenance(self, document, config):
        (fast_outer, fast_root), (slow_outer, slow_root) = twin(document)
        kwargs = dict(matcher=MATCHER, bayes=BAYES)
        assert apply_instance_rule(fast_root, KB, config, **kwargs) == (
            apply_instance_rule_legacy(slow_root, KB, config, **kwargs)
        )
        assert same_trees(fast_outer, slow_outer)

    @settings(max_examples=100)
    @given(documents(), configs)
    def test_grouping(self, document, config):
        (fast_outer, fast_root), (slow_outer, slow_root) = twin(document)
        assert apply_grouping_rule(fast_root, config) == (
            apply_grouping_rule_legacy(slow_root, config)
        )
        assert same_trees(fast_outer, slow_outer)

    @settings(max_examples=100)
    @given(documents())
    def test_consolidation(self, document):
        (fast_outer, fast_root), (slow_outer, slow_root) = twin(document)
        assert apply_consolidation_rule(fast_root, KB) == (
            apply_consolidation_rule_legacy(slow_root, KB)
        )
        assert same_trees(fast_outer, slow_outer)

    @settings(max_examples=60)
    @given(documents(), configs)
    def test_four_rules_in_sequence(self, document, config):
        (fast_outer, fast_root), (slow_outer, slow_root) = twin(document)
        fast_log, slow_log = ProvenanceLog(), ProvenanceLog()
        fast = [
            apply_tokenization_rule(fast_root, config),
            apply_instance_rule(
                fast_root, KB, config, matcher=MATCHER, bayes=BAYES,
                provenance=fast_log,
            ),
            apply_grouping_rule(fast_root, config),
            apply_consolidation_rule(fast_root, KB),
        ]
        slow = [
            apply_tokenization_rule_legacy(slow_root, config),
            apply_instance_rule_legacy(
                slow_root, KB, config, matcher=MATCHER, bayes=BAYES,
                provenance=slow_log,
            ),
            apply_grouping_rule_legacy(slow_root, config),
            apply_consolidation_rule_legacy(slow_root, KB),
        ]
        assert fast == slow
        assert fast_log.events == slow_log.events
        assert same_trees(fast_outer, slow_outer)
