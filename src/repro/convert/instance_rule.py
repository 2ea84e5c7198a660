"""The concept instance rule (Section 2.3.1, text rule 2).

For each ``<TOKEN>`` produced by the tokenization rule:

* **Case 1** -- an instance is identified: the token is replaced by
  ``<C val="text"/>`` where ``C`` is the concept's element name.  When
  *several* instances are found in one token (delimiters were missing or
  inconsistent), the token is decomposed: each identified instance claims
  the text from its position up to the next instance's position, and the
  text before the first instance is passed to the parent's ``val``.
  Sibling constraints, when available, veto decompositions that would put
  forbidden concept pairs next to each other.
* **Case 2** -- no instance is identified: the token node is deleted and
  its text is passed to the parent's ``val`` ("child nodes detail
  information represented by parent nodes at a lower level of
  abstraction"; no text is ever lost).

The rule is one preorder walk.  Tokens are resolved in document order,
so the provenance events and each parent's ``val`` appends come in the
order the node-at-a-time rule made them.  A token that names one
concept is relabelled where it stands: its tag, attributes and child
list change in place, so the parent's child list and every other node
are left alone.  Only a split token (two or more elements) or a dropped
one (its text passed to the parent) makes its parent rebuild its child
list, once, after the walk.  A token's label path counts, for its own
index, the elements its already resolved left siblings became -- the
path the sequential rule read off the half-rewritten tree.

Synonym matching runs through the Aho-Corasick
:class:`~repro.concepts.fastmatch.FastSynonymMatcher`.  The naive
per-pattern :class:`~repro.concepts.matcher.SynonymMatcher` is its
oracle: the differential tests swap it into the pipeline from
``tests/oracles/`` and require byte-identical XML and DTDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concepts.bayes import MultinomialNaiveBayes
from repro.concepts.fastmatch import CachedBayes, FastSynonymMatcher
from repro.concepts.knowledge import KnowledgeBase
from repro.concepts.matcher import InstanceMatch, SynonymMatcher

# Either matcher implementation satisfies the rule's contract; the
# automaton is differentially guaranteed to produce the naive matcher's
# match lists, and the pipeline always passes the automaton.
Matcher = SynonymMatcher | FastSynonymMatcher
Classifier = MultinomialNaiveBayes | CachedBayes
from repro.convert.config import ConversionConfig
from repro.convert.tokenize_rule import TOKEN_TAG, token_text
from repro.dom.node import Element, Node, Text
from repro.obs.provenance import ProvenanceLog, node_label_path

# Bayes margin is +inf when only one class is trained; clamp so the
# provenance JSON stays strictly valid (json.dumps(inf) is not JSON).
_MAX_CONFIDENCE = 1e6

# Connector words: consecutive instance matches separated only by these
# words belong to one named entity ("University OF California AT Davis")
# and are merged instead of split.
CONNECTORS = frozenset(
    {"of", "at", "the", "in", "for", "and", "&", "de", "la", "del", "von"}
)


@dataclass
class InstanceRuleStats:
    """Bookkeeping for the user-feedback loop of Section 2.3.1.

    ``identified``/``unidentified`` count tokens; their ratio is the
    signal the paper suggests showing the user ("provide more training
    data ... or associate more concept instances with concepts").
    """

    identified: int = 0
    unidentified: int = 0
    split_tokens: int = 0
    elements_created: int = 0
    by_concept: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.identified + self.unidentified

    @property
    def unidentified_ratio(self) -> float:
        """Fraction of tokens no concept instance was found in."""
        return self.unidentified / self.total if self.total else 0.0

    def _count(self, tag: str) -> None:
        self.by_concept[tag] = self.by_concept.get(tag, 0) + 1


def apply_instance_rule(
    root: Element,
    kb: KnowledgeBase,
    config: ConversionConfig | None = None,
    *,
    matcher: Matcher | None = None,
    bayes: Classifier | None = None,
    doc_id: str | None = None,
    provenance: ProvenanceLog | None = None,
) -> InstanceRuleStats:
    """Resolve every ``<TOKEN>`` under ``root`` into concept elements.

    ``matcher`` defaults to a fresh :class:`FastSynonymMatcher`
    automaton over ``kb``.  With
    ``config.tagger`` in ``("bayes", "hybrid")`` a trained ``bayes``
    classifier must be supplied.  With a ``provenance`` log every token
    decision is recorded as a ``concept`` event keyed by ``doc_id`` and
    the token's label path as the tree stands when it is resolved (its
    left siblings already rewritten, itself not yet).
    """
    config = config or ConversionConfig()
    if config.tagger in ("bayes", "hybrid") and (bayes is None or not bayes.is_trained()):
        raise ValueError(f"tagger {config.tagger!r} requires a trained Bayes classifier")
    if matcher is None:
        matcher = FastSynonymMatcher(kb)
    stats = InstanceRuleStats()
    # Tokens are resolved in document order, the order of the provenance
    # events and of each parent's ``val`` appends.  A relabelled token
    # keeps its slot; splits and drops are spliced into each parent's
    # child list once, after the walk.
    replacements: dict[int, list[Element]] = {}
    spliced: dict[int, Element] = {}
    labelled = provenance is not None
    # With provenance: per parent, [its label path, element children so
    # far in its rewritten list] -- a token's index counts the elements
    # its already-resolved left siblings became.
    frames: dict[int, list] = {}
    stack: list[Node]
    root_attrs = root.attrs
    if root.tag == TOKEN_TAG and root.parent is not None:
        stack = [root]
        if labelled:
            parent = root.parent
            frames[id(parent)] = [
                node_label_path(parent),
                parent.element_children().index(root),
            ]
    else:
        stack = list(reversed(root.children))
        if labelled:
            frames[id(root)] = [node_label_path(root), 0]
    while stack:
        node = stack.pop()
        if not isinstance(node, Element):
            continue
        parent = node.parent
        assert parent is not None
        children = node.children
        if labelled:
            frame = frames[id(parent)]
            path, index = frame
        if node.tag == TOKEN_TAG:
            elements = _resolve_token(
                node,
                parent,
                f"{path}/{TOKEN_TAG}[{index}]" if labelled else "",
                kb,
                config,
                matcher,
                bayes,
                stats,
                doc_id,
                provenance,
            )
            if elements is None and node is root:
                # The caller holds ``root``: it leaves the tree as a
                # token, as in the sequential rule, and a new element
                # takes its slot.
                elements = [Element(node.tag, node.attrs)]
                node.tag, node.attrs, node.children = TOKEN_TAG, root_attrs, children
            if elements is not None:
                replacements[id(node)] = elements
                spliced[id(parent)] = parent
                node.parent = None
            if labelled:
                frame[1] = index + (1 if elements is None else len(elements))
            if len(children) == 1 and isinstance(children[0], Text):
                continue
            # Tokens nested in this one are resolved as in the detached
            # token's own tree -- a stand-in when the token kept its slot.
            detached = node
            if elements is None:
                detached = Element(TOKEN_TAG)
                detached.adopt_all(children)
            if labelled:
                frames[id(detached)] = [TOKEN_TAG, 0]
        elif labelled:
            frame[1] = index + 1
            frames[id(node)] = [f"{path}/{node.tag}[{index}]", 0]
        stack.extend(reversed(children))
    for parent in spliced.values():
        rebuilt: list[Node] = []
        for child in parent.children:
            elements = replacements.get(id(child))
            if elements is None:
                rebuilt.append(child)
                continue
            for element in elements:
                element.parent = parent
            rebuilt.extend(elements)
        parent.children = rebuilt
    return stats


def _match_confidence(matched: str, text: str) -> float:
    """Synonym-decision confidence: fraction of the token text matched."""
    return len(matched) / len(text) if text else 0.0


def _resolve_token(
    token: Element,
    parent: Element,
    node_path: str,
    kb: KnowledgeBase,
    config: ConversionConfig,
    matcher: Matcher,
    bayes: Classifier | None,
    stats: InstanceRuleStats,
    doc_id: str | None = None,
    provenance: ProvenanceLog | None = None,
) -> list[Element] | None:
    """Resolve ``token``: ``None`` when it was relabelled in place as
    one concept element, otherwise the elements that replace it in
    ``parent`` (none when its text passes to the parent's ``val``).
    ``node_path`` is the token's label path in the tree as rewritten so
    far."""
    text = token_text(token)
    if not text:
        parent.append_val(text)
        if provenance is not None:
            provenance.concept_event(
                doc_id, node_path, "unlabeled", text=text, reason="short"
            )
        return []

    matches: list[InstanceMatch] = []
    if config.tagger in ("synonym", "hybrid"):
        matches = matcher.find_all(text)
    if not matches and config.tagger in ("bayes", "hybrid") and bayes is not None:
        label, margin = bayes.predict(text)
        if label is not None:
            _emit_single(token, label, text, stats)
            if provenance is not None:
                provenance.concept_event(
                    doc_id,
                    node_path,
                    "bayes",
                    concept=label,
                    confidence=min(margin, _MAX_CONFIDENCE),
                    text=text,
                )
            return None

    if not matches:
        # Case 2: unidentified -- text passes to the parent.
        parent.append_val(text)
        stats.unidentified += 1
        if provenance is not None:
            provenance.concept_event(doc_id, node_path, "unlabeled", text=text)
        return []

    if len(matches) == 1:
        best = matches[0]
        _emit_single(token, best.concept_tag, text, stats)
        if provenance is not None:
            provenance.concept_event(
                doc_id,
                node_path,
                "synonym",
                concept=best.concept_tag,
                confidence=_match_confidence(best.matched_text, text),
                text=text,
                matched=best.matched_text,
            )
        return None

    return _emit_split(
        token, parent, matches, text, kb, stats, doc_id, node_path, provenance
    )


def _emit_single(
    token: Element, tag: str, text: str, stats: InstanceRuleStats
) -> None:
    """Relabel ``token`` in place as ``<tag val="text"/>``: the element
    the rule creates for a one-concept token is the token itself."""
    token.tag = tag
    token.attrs = {"val": text} if text else {}
    token.children = []
    stats.identified += 1
    stats.elements_created += 1
    stats._count(tag)


def _merge_connected(matches: list[InstanceMatch], text: str) -> list[InstanceMatch]:
    """Merge consecutive matches joined only by connector words.

    "University of California at Davis" yields instance matches for
    ``University`` (institution), ``California`` and ``Davis`` (location);
    the gaps are pure connectors, so the whole phrase is one named entity
    and is claimed by the leftmost match's concept.
    """
    if len(matches) < 2:
        return matches
    merged = [matches[0]]
    for match in matches[1:]:
        gap = text[merged[-1].end : match.start]
        gap_words = gap.replace(",", " ").split()
        if gap_words and all(
            word.lower() in CONNECTORS for word in gap_words
        ):
            previous = merged[-1]
            merged[-1] = InstanceMatch(
                previous.concept_tag,
                previous.start,
                match.end,
                text[previous.start : match.end],
            )
        else:
            merged.append(match)
    return merged


def _emit_split(
    token: Element,
    parent: Element,
    matches: list[InstanceMatch],
    text: str,
    kb: KnowledgeBase,
    stats: InstanceRuleStats,
    doc_id: str | None = None,
    node_path: str = "",
    provenance: ProvenanceLog | None = None,
) -> list[Element] | None:
    """Case 1 with several instances: decompose the token (``None``
    when the constraints leave one instance and ``token`` is relabelled).

    Consecutive matches whose concepts may not be siblings (per the
    constraint set) are reduced by dropping the less specific match, so
    its text stays attached to the surviving neighbour -- this is the
    "concept constraints describing typical sibling relationships can be
    employed in order to determine a proper decomposition" refinement.
    """
    matches = _merge_connected(matches, text)
    kept: list[InstanceMatch] = []
    for match in matches:
        if (
            kept
            and not kb.constraints.allows_sibling_pair(
                kept[-1].concept_tag, match.concept_tag
            )
        ):
            if match.specificity > kept[-1].specificity:
                kept[-1] = match
            continue
        kept.append(match)

    if len(kept) == 1:
        _emit_single(token, kept[0].concept_tag, text, stats)
        if provenance is not None:
            provenance.concept_event(
                doc_id,
                node_path,
                "synonym",
                concept=kept[0].concept_tag,
                confidence=_match_confidence(kept[0].matched_text, text),
                text=text,
                matched=kept[0].matched_text,
            )
        return None

    # Text before the first identified instance goes to the parent.
    prefix = text[: kept[0].start].strip()
    if prefix:
        parent.append_val(prefix)

    elements: list[Element] = []
    for i, match in enumerate(kept):
        end = kept[i + 1].start if i + 1 < len(kept) else len(text)
        segment = text[match.start : end].strip()
        element = Element(match.concept_tag)
        element.set_val(segment)
        elements.append(element)
        stats.elements_created += 1
        stats._count(match.concept_tag)
        if provenance is not None:
            provenance.concept_event(
                doc_id,
                node_path,
                "synonym",
                concept=match.concept_tag,
                confidence=_match_confidence(match.matched_text, text),
                text=segment,
                matched=match.matched_text,
                split=True,
            )
    stats.identified += 1
    stats.split_tokens += 1
    return elements
