"""Tests for conversion configuration validation and defaults."""

import pytest

from repro.convert.config import DEFAULT_DELIMITERS, ConversionConfig
from repro.htmlparse.taginfo import DEFAULT_GROUP_TAG_WEIGHTS, DEFAULT_LIST_TAGS


class TestDefaults:
    def test_paper_delimiters(self):
        """Section 4: punctuation in tokenization is ; , :"""
        assert set(DEFAULT_DELIMITERS) == {";", ",", ":"}

    def test_paper_group_tags_present(self):
        """Section 4's group-tag annotation."""
        config = ConversionConfig()
        for tag in ("h1", "h2", "h3", "h4", "h5", "h6", "div", "p", "tr",
                    "dt", "dd", "li", "title", "u", "strong", "b", "em", "i"):
            assert tag in config.group_tag_weights, tag

    def test_paper_list_tags(self):
        """Section 4's list-tag annotation."""
        assert DEFAULT_LIST_TAGS == frozenset(
            {"body", "table", "dl", "ul", "ol", "dir", "menu"}
        )

    def test_heading_weights_dominate(self):
        weights = DEFAULT_GROUP_TAG_WEIGHTS
        assert weights["h1"] > weights["h2"] > weights["p"]
        assert weights["h1"] > weights["b"]

    def test_default_tagger_is_synonym(self):
        assert ConversionConfig().tagger == "synonym"

    def test_tidy_on_by_default(self):
        assert ConversionConfig().apply_tidy is True


class TestValidation:
    def test_unknown_tagger_rejected(self):
        with pytest.raises(ValueError):
            ConversionConfig(tagger="oracle")

    def test_empty_delimiters_rejected(self):
        with pytest.raises(ValueError):
            ConversionConfig(delimiters=())

    def test_multichar_delimiter_rejected(self):
        with pytest.raises(ValueError):
            ConversionConfig(delimiters=(";;",))

    def test_custom_group_weights_independent(self):
        a = ConversionConfig()
        b = ConversionConfig()
        a.group_tag_weights["h1"] = 1
        assert b.group_tag_weights["h1"] == DEFAULT_GROUP_TAG_WEIGHTS["h1"]
