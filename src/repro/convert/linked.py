"""Conversion of linked (multi-page) documents -- Section 5 future work.

"We are in particular interested in incorporating linkage structures
among HTML documents.  We hope that this will give our approach the
flexibility to integrate even more heterogeneous, multi-topic HTML
documents into XML repositories."

Personal sites of the paper's era often split a resume across pages
("Publications", "Technical Skills" as separate pages linked from the
main one).  :class:`LinkedDocumentConverter` recovers the logical whole:

1. convert the main page normally;
2. scan the main page's anchors; an anchor whose text matches a *title
   concept* (a section name) announces that the section lives behind the
   link;
3. fetch and convert each such page, and graft the section it contributes
   into the main document (merging with an existing same-concept section
   when the main page had a stub).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.concepts.concept import ConceptRole
from repro.concepts.matcher import SynonymMatcher
from repro.convert.pipeline import ConversionResult, DocumentConverter
from repro.dom.node import Element
from repro.dom.treeops import iter_elements
from repro.htmlparse.parser import parse_html

# A fetch function: URL -> HTML source, or None for a dead link.
FetchFn = Callable[[str], Optional[str]]
# Linked pages followed per document, at most.
MAX_LINKS = 8


@dataclass(frozen=True)
class TopicLink:
    """An anchor pointing at a section page."""

    href: str
    concept_tag: str


@dataclass
class LinkedConversionResult:
    """A merged conversion plus provenance of the grafted sections."""

    result: ConversionResult
    followed: list[TopicLink] = field(default_factory=list)
    grafted_sections: list[str] = field(default_factory=list)

    @property
    def root(self) -> Element:
        return self.result.root


def extract_topic_links(html: str, matcher: SynonymMatcher, kb) -> list[TopicLink]:
    """Anchors whose text names a title concept of the topic.

    Only title-role concepts qualify: a link reading "Stanford
    University" is a reference, not a section page.
    """
    title_tags = {concept.tag for concept in kb.by_role(ConceptRole.TITLE)}
    links: list[TopicLink] = []
    seen: set[str] = set()
    document = parse_html(html)
    for element in iter_elements(document):
        if element.tag != "a":
            continue
        href = element.attrs.get("href", "")
        text = element.inner_text()
        if not href or not text:
            continue
        best = matcher.find_best(text)
        if best is None or best.concept_tag not in title_tags:
            continue
        # The match must dominate the anchor text, not be incidental.
        if best.specificity < len(text.strip()) * 0.5:
            continue
        if href not in seen:
            seen.add(href)
            links.append(TopicLink(href, best.concept_tag))
    return links


@dataclass
class LinkedDocumentConverter:
    """Converts a page and the section pages it links to, as one document."""

    converter: DocumentConverter
    fetch: FetchFn

    def __post_init__(self) -> None:
        self._matcher = SynonymMatcher(self.converter.kb)

    def convert(self, html: str) -> LinkedConversionResult:
        """Convert ``html`` plus the topic-linked pages it references."""
        links = extract_topic_links(html, self._matcher, self.converter.kb)
        outcome = LinkedConversionResult(self.converter.convert(html))
        for link in links[:MAX_LINKS]:
            sub_html = self.fetch(link.href)
            if sub_html is None:
                continue
            sub_result = self.converter.convert(sub_html)
            grafted = self._graft(outcome.root, sub_result.root, link.concept_tag)
            if grafted:
                outcome.followed.append(link)
                outcome.grafted_sections.extend(grafted)
        return outcome

    def _graft(
        self, main_root: Element, sub_root: Element, concept_tag: str
    ) -> list[str]:
        """Move matching sections of ``sub_root`` into ``main_root``.

        Sections carrying ``concept_tag`` merge into the main document's
        same-tag section when one exists (content children appended),
        otherwise they are appended as new sections.  Returns the tags of
        the grafted sections.
        """
        sections = [
            child
            for child in sub_root.element_children()
            if child.tag == concept_tag
        ]
        if sections:
            # A single-topic sub-page often converts to section stubs
            # (page title, heading) followed by the section's content at
            # the same level -- no repeated markup means the grouping
            # rule had nothing to sink the content under.  Re-associate:
            # content follows its heading, so every non-section sibling
            # after a stub belongs to the most recent stub.
            current: Element | None = None
            for child in list(sub_root.children):
                if isinstance(child, Element) and child.tag == concept_tag:
                    current = child
                elif current is not None:
                    current.append_child(child)
        elif sub_root.tag == concept_tag:
            # The whole sub-document may BE the section (its root took
            # the concept's name during rootification).
            sections = [sub_root]
        else:
            return []
        grafted: list[str] = []
        existing = next(
            (
                child
                for child in main_root.element_children()
                if child.tag == concept_tag
            ),
            None,
        )
        for section in sections:
            section.detach()
            if existing is not None:
                existing.append_val(section.get_val())
                for child in list(section.children):
                    existing.append_child(child)
            else:
                main_root.append_child(section)
                existing = section
            grafted.append(concept_tag)
        return grafted
