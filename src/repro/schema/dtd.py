"""DTD model, derivation from a majority schema, rendering, parsing.

Content models follow the paper's grammar (Section 3.3)::

    cm := e | cm1 | cm2 | cm1 , cm2 | cm? | cm* | cm+

restricted, as in the paper's output, to a sequence of uniquely named
child elements each carrying a multiplicity marker, preceded by
``(#PCDATA)`` (converted documents keep mixed text in ``val``
attributes, which the paper's DTD rendering shows as leading #PCDATA).

Derivation = ordering rule + repetition rule over the majority schema.
DTDs declare each element name once, so when the same concept appears
under several parents its content models are unified (children merged,
multiplicities OR-ed) -- the name-level counterpart of the component
unification the paper defers to [13].
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from repro.obs.tracer import NullTracer, Tracer, resolve_tracer
from repro.schema.accumulator import PathAccumulator
from repro.schema.majority import MajoritySchema, SchemaNode
from repro.schema.ordering import ordered_labels
from repro.schema.paths import DocumentPaths
from repro.schema.repetition import DEFAULT_REP_THRESHOLD, is_repetitive


class Multiplicity(enum.Enum):
    """Occurrence markers of DTD content particles."""

    ONE = ""
    OPTIONAL = "?"
    PLUS = "+"
    STAR = "*"

    def combine(self, other: "Multiplicity") -> "Multiplicity":
        """Least upper bound when unifying content models.

        Repetition from either side survives; optionality from either
        side survives; both together give ``*``.
        """
        repeats = self in (Multiplicity.PLUS, Multiplicity.STAR) or other in (
            Multiplicity.PLUS,
            Multiplicity.STAR,
        )
        optional = self in (Multiplicity.OPTIONAL, Multiplicity.STAR) or other in (
            Multiplicity.OPTIONAL,
            Multiplicity.STAR,
        )
        if repeats and optional:
            return Multiplicity.STAR
        if repeats:
            return Multiplicity.PLUS
        if optional:
            return Multiplicity.OPTIONAL
        return Multiplicity.ONE


@dataclass
class ContentParticle:
    """One ``name`` + multiplicity entry of a content model."""

    name: str
    multiplicity: Multiplicity = Multiplicity.ONE

    def render(self) -> str:
        return f"{self.name}{self.multiplicity.value}"


@dataclass
class DTDElement:
    """One ``<!ELEMENT ...>`` declaration."""

    name: str
    particles: list[ContentParticle] = field(default_factory=list)
    has_pcdata: bool = True

    def is_leaf(self) -> bool:
        """True for pure ``(#PCDATA)`` elements."""
        return not self.particles

    def particle_for(self, child_name: str) -> ContentParticle | None:
        """The particle declaring ``child_name``, or ``None``."""
        for particle in self.particles:
            if particle.name == child_name:
                return particle
        return None

    def render(self) -> str:
        if self.is_leaf():
            return f"<!ELEMENT {self.name} (#PCDATA)>"
        inner = ", ".join(particle.render() for particle in self.particles)
        if self.has_pcdata:
            return f"<!ELEMENT {self.name} ((#PCDATA), {inner})>"
        return f"<!ELEMENT {self.name} ({inner})>"


@dataclass
class DTD:
    """A document type definition: declarations + a root element name."""

    root_name: str
    elements: dict[str, DTDElement] = field(default_factory=dict)

    def element(self, name: str) -> DTDElement:
        """The declaration of ``name`` (KeyError when undeclared)."""
        return self.elements[name]

    def declare(self, element: DTDElement) -> DTDElement:
        """Add a declaration (unifying with an existing one by name)."""
        existing = self.elements.get(element.name)
        if existing is None:
            self.elements[element.name] = element
            return element
        for particle in element.particles:
            held = existing.particle_for(particle.name)
            if held is None:
                existing.particles.append(particle)
            else:
                held.multiplicity = held.multiplicity.combine(particle.multiplicity)
        return existing

    def element_count(self) -> int:
        """Number of declared elements."""
        return len(self.elements)

    def render(self) -> str:
        """The full DTD text, root declaration first, children next,
        breadth-first from the root (the order the paper prints)."""
        ordered: list[str] = []
        seen: set[str] = set()
        queue = [self.root_name]
        while queue:
            name = queue.pop(0)
            if name in seen or name not in self.elements:
                continue
            seen.add(name)
            ordered.append(name)
            queue.extend(p.name for p in self.elements[name].particles)
        # Any unreachable declarations render last, sorted.
        ordered.extend(sorted(set(self.elements) - seen))
        return "\n".join(self.elements[name].render() for name in ordered)

    # -- parsing (round-trip support) -------------------------------------

    # Content models never contain '>', so each declaration is matched
    # up to its closing angle bracket.
    _DECL_RE = re.compile(r"<!ELEMENT\s+([A-Za-z][\w.-]*)\s+\(([^>]*)\)\s*>")

    @classmethod
    def parse(cls, text: str, *, root_name: str | None = None) -> "DTD":
        """Parse DTD text produced by :meth:`render`.

        The first declaration is taken as the root unless ``root_name``
        is given.
        """
        elements: dict[str, DTDElement] = {}
        first: str | None = None
        for match in cls._DECL_RE.finditer(text):
            name, body = match.group(1), match.group(2)
            if first is None:
                first = name
            particles: list[ContentParticle] = []
            has_pcdata = False
            for raw in re.split(r"[,|]", body):
                token = raw.strip().strip("()").strip()
                if not token:
                    continue
                if token == "#PCDATA":
                    has_pcdata = True
                    continue
                multiplicity = Multiplicity.ONE
                if token[-1] in "?+*":
                    multiplicity = Multiplicity(token[-1])
                    token = token[:-1]
                particles.append(ContentParticle(token, multiplicity))
            elements[name] = DTDElement(name, particles, has_pcdata)
        if first is None:
            raise ValueError("no element declarations found")
        return cls(root_name or first, elements)


def derive_dtd(
    schema: MajoritySchema,
    documents: list[DocumentPaths] | PathAccumulator,
    *,
    rep_threshold: int = DEFAULT_REP_THRESHOLD,
    optional_threshold: float | None = None,
    tracer: "Tracer | NullTracer | None" = None,
) -> DTD:
    """Derive a DTD from a majority schema (Section 3.3).

    ``documents`` is a :class:`~repro.schema.accumulator.PathAccumulator`,
    or the materialized corpus path sets, accumulated once here; the
    ordering, repetition and presence statistics are all read from it.
    ``optional_threshold`` enables the optional-element extension the
    paper mentions: a child present in fewer than that fraction of its
    parent's documents is marked ``?`` (``*`` when also repetitive).  The
    default ``None`` reproduces the paper exactly: "no element should be
    optional".  Concept tags (upper-case in the XML documents) become
    the lower-case names the paper's DTD uses.
    ``tracer`` records the derivation as a ``discover.derive_dtd`` span
    with a nested ``discover.repetition_ordering`` span covering the
    per-node repetition/ordering rule work.
    """
    tracer = resolve_tracer(tracer)
    statistics = (
        documents
        if isinstance(documents, PathAccumulator)
        else PathAccumulator.from_documents(documents)
    )

    with tracer.span("discover.derive_dtd") as derive_span:
        dtd = DTD(schema.root.label.lower())
        with tracer.span("discover.repetition_ordering") as order_span:
            nodes_ordered = 0
            queue: list[SchemaNode] = [schema.root]
            while queue:
                node = queue.pop(0)
                particles: list[ContentParticle] = []
                for label in ordered_labels(
                    statistics, node.path, list(node.children)
                ):
                    child_path = node.path + (label,)
                    multiplicity = Multiplicity.ONE
                    if is_repetitive(
                        statistics, child_path, rep_threshold=rep_threshold
                    ):
                        multiplicity = Multiplicity.PLUS
                    if (
                        optional_threshold is not None
                        and statistics.presence_fraction(child_path)
                        < optional_threshold
                    ):
                        multiplicity = multiplicity.combine(Multiplicity.OPTIONAL)
                    particles.append(ContentParticle(label.lower(), multiplicity))
                dtd.declare(DTDElement(node.label.lower(), particles))
                queue.extend(node.children.values())
                nodes_ordered += 1
            order_span.set(schema_nodes=nodes_ordered)
        with tracer.span("discover.cycle_break"):
            _break_required_cycles(dtd)
        derive_span.set(elements=dtd.element_count())
    return dtd


def _break_required_cycles(dtd: DTD) -> None:
    """Demote back-edges in the required-particle graph to optional.

    Element declarations are unified by name across contexts, so two
    schema paths ``...A/B...`` and ``...B/A...`` produce mutually
    *required* children A <-> B -- a DTD no finite document can satisfy.
    Back edges are demoted to optional (``?``; ``*`` when also
    repetitive), which keeps the structure expressible while restoring
    satisfiability.  One DFS pass can miss cycles routed through nodes it
    already finished, so passes repeat -- each demotes one edge -- until
    the required graph is acyclic.
    """

    def find_back_edge() -> ContentParticle | None:
        visiting: set[str] = set()
        done: set[str] = set()

        def visit(name: str) -> ContentParticle | None:
            if name in done or name not in dtd.elements:
                return None
            visiting.add(name)
            for particle in dtd.elements[name].particles:
                if particle.multiplicity not in (Multiplicity.ONE, Multiplicity.PLUS):
                    continue
                if particle.name in visiting:
                    return particle
                found = visit(particle.name)
                if found is not None:
                    return found
            visiting.discard(name)
            done.add(name)
            return None

        for start in [dtd.root_name, *sorted(dtd.elements)]:
            found = visit(start)
            if found is not None:
                return found
        return None

    while (edge := find_back_edge()) is not None:
        edge.multiplicity = edge.multiplicity.combine(Multiplicity.OPTIONAL)
