"""The end-to-end document conversion pipeline (Section 2).

:class:`DocumentConverter` wires the four restructuring rules together:
parse (+ optional cleansing), tokenization, instance identification,
grouping, consolidation, and finally rooting of the result under the
topic's root concept element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concepts.bayes import MultinomialNaiveBayes
from repro.concepts.fastmatch import CachedBayes, FastSynonymMatcher
from repro.concepts.knowledge import KnowledgeBase
from repro.convert.config import ConversionConfig
from repro.convert.consolidation_rule import apply_consolidation_rule
from repro.convert.errors import InjectedFaultError, PipelineStageError
from repro.convert.grouping_rule import apply_grouping_rule
from repro.convert.instance_rule import InstanceRuleStats, apply_instance_rule
from repro.convert.tokenize_rule import apply_tokenization_rule
from repro.dom.node import Element
from repro.dom.serialize import to_xml_document
from repro.dom.treeops import clone_counted, count_elements
from repro.htmlparse.parser import body_of, parse_html_counted
from repro.htmlparse.tidy import tidy
from repro.obs.provenance import ProvenanceLog
from repro.obs.tracer import NullTracer, Tracer, resolve_tracer


@dataclass
class ConversionResult:
    """Outcome of converting one HTML document.

    ``root`` is the XML document root (a concept element); the counters
    feed the evaluation harness (e.g. concept nodes per document for the
    Figure 4/5 experiments).
    """

    root: Element
    instance_stats: InstanceRuleStats
    tokens_created: int = 0
    groups_created: int = 0
    nodes_eliminated: int = 0
    input_nodes: int = 0
    # Wall seconds per stage from the stage clock ("parse", "tidy",
    # "tokenize", "instance", "group", "consolidate", "root"; the engine
    # adds "to_xml" and "extract_paths") -- feeds EngineStats.
    rule_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def concept_node_count(self) -> int:
        """Number of concept elements in the output (root included)."""
        return count_elements(self.root)

    def to_xml(self) -> str:
        """The result as a serialized XML document."""
        return to_xml_document(self.root)


@dataclass
class DocumentConverter:
    """Converts topic-specific HTML documents into XML documents.

    Construct once per topic (the knowledge base and compiled synonym
    matcher are reused across documents) and call :meth:`convert` per
    document.
    """

    kb: KnowledgeBase
    config: ConversionConfig = field(default_factory=ConversionConfig)
    bayes: MultinomialNaiveBayes | None = None

    def __post_init__(self) -> None:
        # The tagger is built once per converter -- i.e. once per engine
        # worker process -- so the automaton construction and the
        # token-decision caches amortize over every document converted.
        self._matcher = FastSynonymMatcher(self.kb)
        self._tagger_bayes = (
            CachedBayes(self.bayes) if self.bayes is not None else None
        )
        self._root_tag = self._pick_root_tag()

    def tagger_cache_counters(self) -> dict[str, dict[str, int]]:
        """Hit/miss/eviction counters per token-decision cache.

        The engine snapshots this around each chunk and ships the delta
        home in :class:`~repro.runtime.stats.ChunkStats`.
        """
        counters: dict[str, dict[str, int]] = {}
        if self._matcher.cache is not None:
            counters["synonym"] = self._matcher.cache.counters()
        bayes = self._tagger_bayes
        if bayes is not None:
            counters["bayes"] = bayes.cache.counters()
        return counters

    def _pick_root_tag(self) -> str:
        """The element name for document roots: the topic's own concept
        when one exists, otherwise the upper-cased topic name."""
        if self.kb.topic in self.kb:
            return self.kb.get(self.kb.topic).tag
        return self.kb.topic.upper()

    # -- public API ----------------------------------------------------------

    def convert(
        self,
        html: str | Element,
        *,
        doc_id: str | None = None,
        tracer: Tracer | NullTracer | None = None,
        provenance: ProvenanceLog | None = None,
    ) -> ConversionResult:
        """Convert one HTML document (source text or pre-parsed tree).

        Conversion restructures its working tree in place, so a
        pre-parsed ``Element`` input is cloned first -- converting the
        same tree twice yields identical results.  String inputs are
        parsed fresh and need no clone.

        ``doc_id``/``tracer``/``provenance`` are the observability hooks:
        each stage's ``rule_seconds`` entry is also its span's duration
        (one stage clock reading), and with a provenance log each
        rule application plus every concept-instance decision is recorded
        as an event.  All three default to off and leave the hot path
        untouched.
        """
        tracer = resolve_tracer(tracer)
        timings: dict[str, float] = {}
        try:
            marker = self.config.chaos_fail_marker
            if marker and isinstance(html, str) and marker in html:
                raise InjectedFaultError(
                    f"chaos fault marker {marker!r} present in source"
                )
            with tracer.stage("parse", timings):
                if isinstance(html, str):
                    document, input_nodes = parse_html_counted(html)
                else:
                    document, input_nodes = clone_counted(html)
            work_root = self._content_root(document)
            if self.config.apply_tidy:
                with tracer.stage("tidy", timings):
                    tidy(work_root)

            with tracer.stage("tokenize", timings) as span:
                tokens = apply_tokenization_rule(work_root, self.config)
                span.set(tokens=tokens)
            with tracer.stage("instance", timings) as span:
                stats = apply_instance_rule(
                    work_root,
                    self.kb,
                    self.config,
                    matcher=self._matcher,
                    bayes=self._tagger_bayes,
                    doc_id=doc_id,
                    provenance=provenance,
                )
                span.set(
                    identified=stats.identified,
                    unidentified=stats.unidentified,
                )
            with tracer.stage("group", timings) as span:
                groups = apply_grouping_rule(work_root, self.config)
                span.set(groups=groups)
            with tracer.stage("consolidate", timings) as span:
                eliminated = apply_consolidation_rule(work_root, self.kb)
                span.set(eliminated=eliminated)
            with tracer.stage("root", timings):
                root = self._rootify(work_root)
        except PipelineStageError:
            raise
        except Exception as exc:
            # The clock records a stage even when it raises, so the last
            # one in ``timings`` is the stage underway (or just finished,
            # for the glue between stages): the failure's recorded stage.
            raise PipelineStageError(
                next(reversed(timings), "inject"), doc_id
            ) from exc

        if provenance is not None:
            provenance.rule_event(
                doc_id, "tokenize", timings["tokenize"], tokens_created=tokens
            )
            provenance.rule_event(
                doc_id,
                "instance",
                timings["instance"],
                identified=stats.identified,
                unidentified=stats.unidentified,
                split_tokens=stats.split_tokens,
                elements_created=stats.elements_created,
            )
            provenance.rule_event(
                doc_id, "group", timings["group"], groups_created=groups
            )
            provenance.rule_event(
                doc_id,
                "consolidate",
                timings["consolidate"],
                nodes_eliminated=eliminated,
            )
        return ConversionResult(
            root,
            stats,
            tokens_created=tokens,
            groups_created=groups,
            nodes_eliminated=eliminated,
            input_nodes=input_nodes,
            rule_seconds=timings,
        )

    def convert_many(self, documents: list[str]) -> list[ConversionResult]:
        """Convert a corpus of HTML source strings, serially.

        This is the plain reference the :class:`repro.runtime.CorpusEngine`
        is differentially tested against: the engine's XML equals these
        results', in order, and under a skip policy it equals
        ``convert_many`` of the surviving documents.  Error policies
        apply in the engine only; here the first failure raises.
        """
        return [self.convert(source) for source in documents]

    # -- internals -----------------------------------------------------------

    def _content_root(self, document: Element) -> Element:
        """The subtree tidy and the rules operate on: the body, with the
        document ``<title>`` (a group tag in the paper's annotation) moved
        from ``head`` to the front so its text participates in concept
        identification.

        The parser keeps head content under ``head`` (see
        :mod:`repro.htmlparse.parser`), so this is the one place a head
        child reaches the rules; the rest of the head (``style`` and
        ``script`` text, ``meta``, ``link``) is not rendered and is not
        converted.  A title that follows body content is already in the
        body and stays where it is."""
        body = body_of(document)
        for child in document.element_children():
            if child.tag == "head":
                for head_child in child.element_children():
                    if head_child.tag == "title":
                        head_child.detach()
                        body.insert_child(0, head_child)
                        break
                break
        return body

    def _rootify(self, work_root: Element) -> Element:
        """Wrap the consolidated content in the topic root element.

        When consolidation already produced a single root-concept child,
        that child *is* the document; otherwise a fresh root element
        adopts the remaining top-level nodes.
        """
        element_children = work_root.element_children()
        if (
            len(element_children) == 1
            and len(work_root.children) == 1
            and element_children[0].tag == self._root_tag
        ):
            root = element_children[0]
            root.detach()
            root.append_val(work_root.get_val())
            return root
        root = Element(self._root_tag)
        root.set_val(work_root.get_val())
        for child in list(work_root.children):
            if isinstance(child, Element) and child.tag == self._root_tag:
                # Top-level RESUME nodes (document/page titles) merge into
                # the root rather than nesting a resume inside a resume.
                root.append_val(child.get_val())
                child.detach()
                for grandchild in list(child.children):
                    root.append_child(grandchild)
            else:
                root.append_child(child)
        return root
