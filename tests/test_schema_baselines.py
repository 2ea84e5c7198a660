"""Tests for the DataGuide / lower-bound baselines."""

import pytest

from repro.dom.node import Element
from repro.schema.dataguide import build_dataguide
from repro.schema.frequent import mine_frequent_paths
from repro.schema.lowerbound import build_lower_bound_schema
from repro.schema.majority import MajoritySchema
from repro.schema.paths import extract_paths


def tree(spec):
    tag, kids = spec
    e = Element(tag)
    for k in kids:
        e.append_child(tree(k))
    return e


def corpus(*specs):
    return [extract_paths(tree(s)) for s in specs]


@pytest.fixture()
def docs():
    return corpus(
        ("r", [("a", [("x", [])]), ("b", [])]),
        ("r", [("a", [])]),
        ("r", [("a", []), ("rare", [])]),
    )


class TestDataGuide:
    def test_contains_every_observed_path(self, docs):
        guide = build_dataguide(docs)
        assert guide.contains_path(("r", "rare"))
        assert guide.contains_path(("r", "a", "x"))

    def test_is_upper_bound_of_majority(self, docs):
        guide = build_dataguide(docs)
        majority = MajoritySchema.from_frequent_paths(
            mine_frequent_paths(docs, sup_threshold=0.5)
        )
        assert majority.paths() <= guide.paths()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_dataguide([])


class TestLowerBound:
    def test_contains_only_universal_paths(self, docs):
        lower = build_lower_bound_schema(docs)
        assert lower.paths() == {("r",), ("r", "a")}

    def test_is_lower_bound_of_majority(self, docs):
        lower = build_lower_bound_schema(docs)
        majority = MajoritySchema.from_frequent_paths(
            mine_frequent_paths(docs, sup_threshold=0.5)
        )
        assert lower.paths() <= majority.paths()

    def test_disjoint_corpus_rejected(self):
        disjoint = corpus(("r", []), ("q", []))
        with pytest.raises(ValueError):
            build_lower_bound_schema(disjoint)

    def test_sandwich_property(self, docs):
        """lower bound <= majority <= DataGuide at any threshold."""
        lower = build_lower_bound_schema(docs).paths()
        guide = build_dataguide(docs).paths()
        for threshold in (0.2, 0.5, 0.8):
            majority = MajoritySchema.from_frequent_paths(
                mine_frequent_paths(docs, sup_threshold=threshold)
            ).paths()
            assert lower <= majority <= guide

