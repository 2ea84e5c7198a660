"""Tests for general repetition patterns ((e1,e2)+ discovery)."""


from repro.dom.node import Element
from repro.schema.patterns import (
    GroupPattern,
    child_sequences,
    covers,
    discover_all_group_patterns,
    discover_group_patterns,
    render_dtd_with_patterns,
    repeats_of,
)


def tree(spec):
    tag, kids = spec
    e = Element(tag)
    for k in kids:
        e.append_child(tree(k))
    return e


def entry_doc(pairs):
    """r -> e -> alternating (a, b) children, `pairs` times."""
    children = []
    for _ in range(pairs):
        children.append(("a", []))
        children.append(("b", []))
    return tree(("r", [("e", children)]))


class TestPrimitives:
    def test_repeats_of_basic(self):
        assert repeats_of(["a", "b", "a", "b", "a", "b"], ("a", "b")) == 3

    def test_repeats_of_with_prefix(self):
        assert repeats_of(["x", "a", "b", "a", "b"], ("a", "b")) == 2

    def test_repeats_of_absent(self):
        assert repeats_of(["x", "y"], ("a",)) == 0

    def test_repeats_of_empty_unit(self):
        assert repeats_of(["a"], ()) == 0

    def test_covers_requires_all_occurrences_in_run(self):
        # A stray trailing 'a' breaks coverage.
        assert covers(["a", "b", "a", "b"], ("a", "b"), min_repeats=2)
        assert not covers(["a", "b", "a", "b", "a"], ("a", "b"), min_repeats=2)

    def test_covers_min_repeats(self):
        assert not covers(["a", "b"], ("a", "b"), min_repeats=2)


class TestChildSequences:
    def test_sequences_extracted_per_node(self):
        doc = tree(("r", [("e", [("a", []), ("b", [])]), ("e", [("a", [])])]))
        sequences = child_sequences(doc, ("r", "e"))
        assert sorted(sequences) == [["a"], ["a", "b"]]

    def test_path_must_match_from_root(self):
        doc = tree(("r", [("x", [("e", [("a", [])])])]))
        assert child_sequences(doc, ("r", "e")) == []
        assert child_sequences(doc, ("r", "x", "e")) == [["a"]]


class TestDiscovery:
    def test_alternating_pattern_found(self):
        corpus = [entry_doc(2), entry_doc(3), entry_doc(4)]
        patterns = discover_group_patterns(corpus, ("r", "e"))
        assert patterns
        assert patterns[0].unit == ("a", "b")
        assert patterns[0].support == 1.0

    def test_no_pattern_in_uniform_children(self):
        corpus = [tree(("r", [("e", [("a", []), ("a", []), ("a", [])])]))]
        patterns = discover_group_patterns(corpus, ("r", "e"))
        assert patterns == []  # unit length 1 is plain e+, not a group

    def test_threshold_filters_weak_patterns(self):
        corpus = [entry_doc(2)] + [
            tree(("r", [("e", [("a", []), ("x", [])])])) for _ in range(4)
        ]
        patterns = discover_group_patterns(corpus, ("r", "e"))
        assert patterns == []

    def test_longer_unit_preferred_over_subunit(self):
        # (a,b,c) repeated; (a,b) does not cover because 'c' intervenes.
        children = [("a", []), ("b", []), ("c", [])] * 3
        corpus = [tree(("r", [("e", children)]))]
        patterns = discover_group_patterns(corpus, ("r", "e"))
        assert patterns[0].unit == ("a", "b", "c")

    def test_discover_all(self):
        corpus = [entry_doc(3)]
        result = discover_all_group_patterns(corpus, [("r", "e"), ("r",)])
        assert set(result) == {("r", "e")}

    def test_render_method(self):
        pattern = GroupPattern(("DATE", "DEGREE"), 1.0)
        assert pattern.render() == "(date, degree)+"


class TestDtdRendering:
    def test_group_substituted_into_content_model(self):
        from repro.schema.dtd import derive_dtd
        from repro.schema.frequent import mine_frequent_paths
        from repro.schema.majority import MajoritySchema
        from repro.schema.paths import extract_paths

        corpus = [entry_doc(3), entry_doc(3)]
        documents = [extract_paths(root) for root in corpus]
        schema = MajoritySchema.from_frequent_paths(
            mine_frequent_paths(documents, sup_threshold=0.5)
        )
        dtd = derive_dtd(schema, documents)
        patterns = discover_all_group_patterns(corpus, [("r", "e")])
        rendered = render_dtd_with_patterns(dtd, patterns)
        assert "<!ELEMENT e ((#PCDATA), (a, b)+)>" in rendered

    def test_unmatched_declarations_untouched(self):
        from repro.schema.dtd import DTD

        dtd = DTD.parse("<!ELEMENT r ((#PCDATA), x)>\n<!ELEMENT x (#PCDATA)>")
        rendered = render_dtd_with_patterns(dtd, {})
        assert rendered == dtd.render()
