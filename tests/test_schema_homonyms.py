"""Tests for homonym-context analysis (Section 2.2)."""

import pytest

from repro.dom.node import Element
from repro.schema.homonyms import homonym_contexts
from repro.schema.paths import extract_paths


def tree(spec):
    tag, kids = spec
    e = Element(tag)
    for k in kids:
        e.append_child(tree(k))
    return e


@pytest.fixture()
def docs():
    # DATE organizes education entries (has children) but is a bare leaf
    # under courses -- the paper's homonym example.
    specs = [
        ("r", [
            ("education", [("date", [("institution", []), ("degree", [])])]),
            ("courses", [("date", [])]),
        ]),
        ("r", [
            ("education", [("date", [("institution", [])])]),
            ("courses", [("date", []), ("date", [])]),
        ]),
    ]
    return [extract_paths(tree(s)) for s in specs]


class TestContexts:
    def test_all_contexts_found(self, docs):
        contexts = homonym_contexts(docs, "date")
        paths = {c.path for c in contexts}
        assert paths == {
            ("r", "education", "date"),
            ("r", "courses", "date"),
        }

    def test_parent_labels(self, docs):
        contexts = homonym_contexts(docs, "date")
        assert {c.parent_label for c in contexts} == {"education", "courses"}

    def test_organizing_role_detected(self, docs):
        contexts = {c.parent_label: c for c in homonym_contexts(docs, "date")}
        assert contexts["education"].is_organizing
        assert contexts["education"].child_labels == {"institution", "degree"}
        assert not contexts["courses"].is_organizing

    def test_supports_attached(self, docs):
        contexts = homonym_contexts(docs, "date")
        assert all(c.support == 1.0 for c in contexts)

    def test_min_support_filters(self, docs):
        one_sided = docs + [
            extract_paths(tree(("r", [("education", [])]))),
        ]
        contexts = homonym_contexts(one_sided, "date", min_support=0.9)
        assert contexts == []

    def test_ordering_by_support(self, docs):
        extra = docs + [
            extract_paths(tree(("r", [("education", [("date", [])])]))),
        ]
        contexts = homonym_contexts(extra, "date")
        assert contexts[0].path == ("r", "education", "date")

    def test_absent_label(self, docs):
        assert homonym_contexts(docs, "ghost") == []

    def test_on_real_corpus(self, kb, converter):
        """DATE is a homonym in converted resumes: it occurs under
        education entries, courses, and experience entries."""
        from repro.corpus.generator import ResumeCorpusGenerator

        corpus = ResumeCorpusGenerator(seed=1966).generate(25)
        documents = [
            extract_paths(converter.convert(d.html).root) for d in corpus
        ]
        contexts = homonym_contexts(documents, "DATE", min_support=0.2)
        parents = {c.parent_label for c in contexts}
        assert "EDUCATION" in parents or "JOB-TITLE" in parents
        assert "COURSES" in parents
