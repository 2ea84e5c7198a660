"""Tests for DTD derivation (Section 3.3): ordering, repetition, rendering."""

import pytest

from repro.dom.node import Element
from repro.schema.dtd import (
    DTD,
    ContentParticle,
    DTDElement,
    Multiplicity,
    derive_dtd,
)
from repro.schema.accumulator import PathAccumulator
from repro.schema.frequent import mine_frequent_paths
from repro.schema.majority import MajoritySchema
from repro.schema.repetition import is_repetitive


def tree(spec):
    tag, kids = spec
    e = Element(tag)
    for k in kids:
        e.append_child(tree(k))
    return e


def corpus(*specs):
    return PathAccumulator.from_trees([tree(s) for s in specs])


def schema_for(stats, sup=0.5):
    return MajoritySchema.from_frequent_paths(
        mine_frequent_paths(stats, sup_threshold=sup)
    )


class TestMultiplicity:
    def test_combine_repetition_wins(self):
        assert Multiplicity.ONE.combine(Multiplicity.PLUS) is Multiplicity.PLUS

    def test_combine_optional_wins(self):
        assert Multiplicity.ONE.combine(Multiplicity.OPTIONAL) is Multiplicity.OPTIONAL

    def test_combine_both_gives_star(self):
        assert Multiplicity.PLUS.combine(Multiplicity.OPTIONAL) is Multiplicity.STAR
        assert Multiplicity.STAR.combine(Multiplicity.ONE) is Multiplicity.STAR

    def test_combine_identity(self):
        assert Multiplicity.ONE.combine(Multiplicity.ONE) is Multiplicity.ONE


class TestRepetitionRule:
    def test_rep_threshold_semantics(self):
        # 3+ same-label siblings in most documents -> repetitive.
        stats = corpus(
            ("r", [("e", [("d", []), ("d", []), ("d", [])])]),
            ("r", [("e", [("d", []), ("d", []), ("d", []), ("d", [])])]),
            ("r", [("e", [("d", [])])]),
        )
        path = ("r", "e", "d")
        assert stats.multiplicity_fraction(path, rep_threshold=3) == 2 / 3
        assert is_repetitive(stats, path)

    def test_below_mult_threshold_not_repetitive(self):
        stats = corpus(
            ("r", [("e", [("d", []), ("d", []), ("d", [])])]),
            ("r", [("e", [("d", [])])]),
            ("r", [("e", [("d", [])])]),
        )
        assert not is_repetitive(stats, ("r", "e", "d"))

    def test_rep_threshold_must_exceed_one(self):
        stats = corpus(("r", [("e", [])]))
        with pytest.raises(ValueError):
            is_repetitive(stats, ("r", "e"), rep_threshold=1)

    def test_only_containing_documents_vote(self):
        stats = corpus(
            ("r", [("e", [("d", []), ("d", []), ("d", [])])]),
            ("r", [("x", [])]),  # does not contain the path at all
        )
        assert stats.multiplicity_fraction(("r", "e", "d"), rep_threshold=3) == 1.0


class TestOrderingRule:
    def test_children_ordered_by_average_position(self):
        stats = corpus(
            ("r", [("a", []), ("b", []), ("c", [])]),
            ("r", [("a", []), ("c", []), ("b", [])]),
            ("r", [("a", []), ("b", []), ("c", [])]),
        )
        dtd = derive_dtd(schema_for(stats), stats)
        assert [p.name for p in dtd.element("r").particles] == ["a", "b", "c"]

    def test_majority_order_wins(self):
        stats = corpus(
            ("r", [("b", []), ("a", [])]),
            ("r", [("b", []), ("a", [])]),
            ("r", [("a", []), ("b", [])]),
        )
        dtd = derive_dtd(schema_for(stats), stats)
        assert [p.name for p in dtd.element("r").particles] == ["b", "a"]


class TestDerivation:
    def test_repetitive_marked_plus(self):
        stats = corpus(
            ("r", [("e", [("d", []), ("d", []), ("d", [])]), ("c", [])]),
            ("r", [("e", [("d", []), ("d", []), ("d", [])]), ("c", [])]),
        )
        dtd = derive_dtd(schema_for(stats), stats)
        d_particle = dtd.element("e").particle_for("d")
        assert d_particle.multiplicity is Multiplicity.PLUS
        c_particle = dtd.element("r").particle_for("c")
        assert c_particle.multiplicity is Multiplicity.ONE

    def test_leaf_elements_are_pcdata(self):
        stats = corpus(("r", [("c", [])]), ("r", [("c", [])]))
        dtd = derive_dtd(schema_for(stats), stats)
        assert dtd.element("c").is_leaf()
        assert dtd.element("c").render() == "<!ELEMENT c (#PCDATA)>"

    def test_names_lowercased_by_default(self):
        stats = corpus(("R", [("C", [])]), ("R", [("C", [])]))
        dtd = derive_dtd(schema_for(stats), stats)
        assert "r" in dtd.elements and "c" in dtd.elements

    def test_optional_extension(self):
        stats = corpus(
            ("r", [("a", []), ("b", [])]),
            ("r", [("a", []), ("b", [])]),
            ("r", [("a", [])]),
        )
        dtd = derive_dtd(schema_for(stats), stats, optional_threshold=0.9)
        assert dtd.element("r").particle_for("b").multiplicity is Multiplicity.OPTIONAL
        assert dtd.element("r").particle_for("a").multiplicity is Multiplicity.ONE

    def test_same_name_under_two_parents_unified(self):
        stats = corpus(
            ("r", [("a", [("d", [("x", [])])]), ("b", [("d", [("y", [])])])]),
            ("r", [("a", [("d", [("x", [])])]), ("b", [("d", [("y", [])])])]),
        )
        dtd = derive_dtd(schema_for(stats), stats)
        d_children = {p.name for p in dtd.element("d").particles}
        assert d_children == {"x", "y"}


class TestRendering:
    def test_paper_style_rendering(self):
        stats = corpus(
            ("resume", [("contact", []), ("education", [("degree", []), ("degree", []), ("degree", [])])]),
            ("resume", [("contact", []), ("education", [("degree", []), ("degree", []), ("degree", [])])]),
        )
        dtd = derive_dtd(schema_for(stats), stats)
        text = dtd.render()
        assert "<!ELEMENT resume ((#PCDATA), contact, education)>" in text
        assert "<!ELEMENT education ((#PCDATA), degree+)>" in text
        assert "<!ELEMENT degree (#PCDATA)>" in text

    def test_root_rendered_first(self):
        stats = corpus(("r", [("z", []), ("a", [])]), ("r", [("z", []), ("a", [])]))
        dtd = derive_dtd(schema_for(stats), stats)
        assert dtd.render().splitlines()[0].startswith("<!ELEMENT r ")

    def test_element_count(self):
        stats = corpus(("r", [("a", []), ("b", [])]), ("r", [("a", []), ("b", [])]))
        assert derive_dtd(schema_for(stats), stats).element_count() == 3


class TestParsing:
    def test_round_trip(self):
        stats = corpus(
            ("r", [("e", [("d", []), ("d", []), ("d", [])]), ("c", [])]),
            ("r", [("e", [("d", []), ("d", []), ("d", [])]), ("c", [])]),
        )
        original = derive_dtd(schema_for(stats), stats)
        parsed = DTD.parse(original.render())
        assert parsed.root_name == "r"
        assert set(parsed.elements) == set(original.elements)
        assert (
            parsed.element("e").particle_for("d").multiplicity
            is Multiplicity.PLUS
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            DTD.parse("not a dtd at all")

    def test_manual_declaration(self):
        dtd = DTD("root")
        dtd.declare(
            DTDElement("root", [ContentParticle("kid", Multiplicity.STAR)])
        )
        assert "kid*" in dtd.render()

    def test_declare_unifies(self):
        dtd = DTD("root")
        dtd.declare(DTDElement("e", [ContentParticle("a")]))
        dtd.declare(DTDElement("e", [ContentParticle("a", Multiplicity.PLUS), ContentParticle("b")]))
        element = dtd.element("e")
        assert element.particle_for("a").multiplicity is Multiplicity.PLUS
        assert element.particle_for("b") is not None
