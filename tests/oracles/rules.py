"""The node-at-a-time conversion rules: the four rules' oracle.

These are the original forms of ``repro.convert.tokenize_rule``,
``instance_rule``, ``grouping_rule`` and ``consolidation_rule``, moved
here verbatim when the one-pass rules became the only production path.
Each rule snapshots the tree (``list(iter_preorder(root))`` or
``list(iter_postorder(root))``) and rewrites one node at a time through
``Node.replace_with``/``append_child``/``detach``, so every replaced
node rescans its parent's child list.  The entry points mirror the
production ones: same arguments, same return values, same provenance
events.  Private helpers of the production modules are not used; the
one constant the instance rule needs is a private copy.
"""

from __future__ import annotations

from repro.concepts.fastmatch import FastSynonymMatcher
from repro.concepts.knowledge import KnowledgeBase
from repro.concepts.matcher import InstanceMatch
from repro.concepts.textutil import squeeze_whitespace
from repro.convert.config import ConversionConfig
from repro.convert.grouping_rule import GROUP_TAG, MIN_GROUP_LEADERS
from repro.convert.instance_rule import CONNECTORS, InstanceRuleStats
from repro.convert.tokenize_rule import TOKEN_TAG
from repro.dom.node import Element, Node, Text
from repro.dom.treeops import iter_postorder, iter_preorder
from repro.htmlparse.taginfo import DEFAULT_LIST_TAGS
from repro.obs.provenance import ProvenanceLog, node_label_path

_MAX_CONFIDENCE = 1e6


# -- tokenization (Section 2.3.1, text rule 1) ------------------------------


def split_topic_sentence_legacy(text: str, delimiters: tuple[str, ...]) -> list[str]:
    """Per-character split at delimiters, numbers and URL schemes kept."""
    delimiter_set = set(delimiters)
    pieces: list[str] = []
    current: list[str] = []
    for index, char in enumerate(text):
        if char in delimiter_set:
            prev_char = text[index - 1] if index > 0 else ""
            next_char = text[index + 1] if index + 1 < len(text) else ""
            if prev_char.isdigit() and next_char.isdigit():
                current.append(char)
                continue
            if char == ":" and text[index + 1 : index + 3] == "//":
                # URL scheme separator ("http://..."), not a delimiter.
                current.append(char)
                continue
            pieces.append("".join(current))
            current = []
        else:
            current.append(char)
    pieces.append("".join(current))
    tokens = [squeeze_whitespace(piece) for piece in pieces]
    return [token for token in tokens if token]


def apply_tokenization_rule_legacy(
    root: Element, config: ConversionConfig | None = None
) -> int:
    config = config or ConversionConfig()
    created = 0
    for node in list(iter_preorder(root)):
        if not isinstance(node, Text) or node.parent is None:
            continue
        tokens = split_topic_sentence_legacy(node.text, config.delimiters)
        replacements = []
        for token_text in tokens:
            token = Element(TOKEN_TAG)
            token.append_child(Text(token_text))
            replacements.append(token)
        node.replace_with(*replacements)
        created += len(replacements)
    return created


# -- concept instances (Section 2.3.1, text rule 2) -------------------------


def _count(stats: InstanceRuleStats, tag: str) -> None:
    stats.by_concept[tag] = stats.by_concept.get(tag, 0) + 1


def apply_instance_rule_legacy(
    root: Element,
    kb: KnowledgeBase,
    config: ConversionConfig | None = None,
    *,
    matcher=None,
    bayes=None,
    doc_id: str | None = None,
    provenance: ProvenanceLog | None = None,
) -> InstanceRuleStats:
    config = config or ConversionConfig()
    if config.tagger in ("bayes", "hybrid") and (bayes is None or not bayes.is_trained()):
        raise ValueError(f"tagger {config.tagger!r} requires a trained Bayes classifier")
    if matcher is None:
        matcher = FastSynonymMatcher(kb)
    stats = InstanceRuleStats()
    for node in list(iter_preorder(root)):
        if isinstance(node, Element) and node.tag == TOKEN_TAG and node.parent is not None:
            _resolve_token(node, kb, config, matcher, bayes, stats, doc_id, provenance)
    return stats


def _match_confidence(matched: str, text: str) -> float:
    return len(matched) / len(text) if text else 0.0


def _resolve_token(
    token: Element,
    kb: KnowledgeBase,
    config: ConversionConfig,
    matcher,
    bayes,
    stats: InstanceRuleStats,
    doc_id: str | None = None,
    provenance: ProvenanceLog | None = None,
) -> None:
    parent = token.parent
    assert parent is not None
    text = token.inner_text()
    # The label path must be taken while the token is still in the tree.
    node_path = node_label_path(token) if provenance is not None else ""
    if not text:
        parent.append_val(text)
        token.detach()
        if provenance is not None:
            provenance.concept_event(
                doc_id, node_path, "unlabeled", text=text, reason="short"
            )
        return

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
            return

    if not matches:
        # Case 2: unidentified -- text passes to the parent.
        parent.append_val(text)
        token.detach()
        stats.unidentified += 1
        if provenance is not None:
            provenance.concept_event(doc_id, node_path, "unlabeled", text=text)
        return

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
        return

    _emit_split(token, matches, text, kb, stats, doc_id, node_path, provenance)


def _emit_single(token: Element, tag: str, text: str, stats: InstanceRuleStats) -> None:
    element = Element(tag)
    element.set_val(text)
    token.replace_with(element)
    stats.identified += 1
    stats.elements_created += 1
    _count(stats, tag)


def _merge_connected(matches: list[InstanceMatch], text: str) -> list[InstanceMatch]:
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
    matches: list[InstanceMatch],
    text: str,
    kb: KnowledgeBase,
    stats: InstanceRuleStats,
    doc_id: str | None = None,
    node_path: str = "",
    provenance: ProvenanceLog | None = None,
) -> None:
    parent = token.parent
    assert parent is not None
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
        return

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
        _count(stats, match.concept_tag)
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
    token.replace_with(*elements)
    stats.identified += 1
    stats.split_tokens += 1


# -- grouping (Section 2.3.2, structure rule 1) -----------------------------


def apply_grouping_rule_legacy(
    root: Element, config: ConversionConfig | None = None
) -> int:
    config = config or ConversionConfig()
    created = 0
    queue: list[Element] = [root]
    while queue:
        element = queue.pop(0)
        created += _group_children(element, config)
        queue.extend(element.element_children())
    return created


def _leader_tag(element: Element, config: ConversionConfig) -> str | None:
    counts: dict[str, int] = {}
    for child in element.element_children():
        if child.tag in config.group_tag_weights:
            counts[child.tag] = counts.get(child.tag, 0) + 1
    candidates = [
        tag for tag, count in counts.items() if count >= MIN_GROUP_LEADERS
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda tag: config.group_tag_weights[tag])


def _group_children(element: Element, config: ConversionConfig) -> int:
    tag = _leader_tag(element, config)
    if tag is None:
        return 0
    created = 0
    children = list(element.children)
    leaders = [
        child for child in children if isinstance(child, Element) and child.tag == tag
    ]
    # Partition the siblings after each leader (up to the next leader).
    leader_ids = {id(leader) for leader in leaders}
    current_leader: Element | None = None
    buckets: dict[int, list[Node]] = {id(leader): [] for leader in leaders}
    for child in children:
        if id(child) in leader_ids:
            current_leader = child  # type: ignore[assignment]
        elif current_leader is not None:
            buckets[id(current_leader)].append(child)
        # Siblings left of the first leader stay where they are.
    for leader in leaders:
        members = buckets[id(leader)]
        if not members:
            continue
        group = Element(GROUP_TAG)
        for member in members:
            group.append_child(member)
        leader.append_child(group)
        created += 1
    return created


# -- consolidation (Section 2.3.2, structure rule 2) ------------------------


def apply_consolidation_rule_legacy(root: Element, kb: KnowledgeBase) -> int:
    concept_tags = {concept.tag for concept in kb}
    eliminated = 0
    for node in list(iter_postorder(root)):
        if node is root or not isinstance(node, Element) or node.parent is None:
            continue
        if node.tag in concept_tags:
            continue
        _eliminate(node, concept_tags)
        eliminated += 1
    return eliminated


def _is_concept_node(node: Node, concept_tags: set[str]) -> bool:
    return isinstance(node, Element) and node.tag in concept_tags


def _children_push_up(node: Element) -> bool:
    if node.tag.lower() in DEFAULT_LIST_TAGS:
        return True
    element_children = node.element_children()
    if len(element_children) >= 2 and len(element_children) == len(node.children):
        first_tag = element_children[0].tag
        return all(child.tag == first_tag for child in element_children)
    return False


def _eliminate(node: Element, concept_tags: set[str]) -> None:
    parent = node.parent
    assert parent is not None

    if not node.children:
        parent.append_val(node.get_val())
        node.detach()
        return

    children = list(node.children)
    if _children_push_up(node):
        parent.append_val(node.get_val())
        node.replace_with(*children)
        return

    first_concept = next(
        (child for child in children if _is_concept_node(child, concept_tags)),
        None,
    )
    if first_concept is None:
        parent.append_val(node.get_val())
        node.replace_with(*children)
        return

    assert isinstance(first_concept, Element)
    first_concept.append_val(node.get_val())
    rest = [child for child in children if child is not first_concept]
    node.replace_with(first_concept)
    for sibling in rest:
        first_concept.append_child(sibling)
