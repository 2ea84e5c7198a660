"""DTD-guided document repair.

Transforms a converted XML document so it conforms exactly to the
derived DTD -- the paper's argument for the majority schema is precisely
that it makes this transformation reasonable ("Data Guides or lower
bound schemas do not suffice for this task", Section 5).

Repair operations, applied top-down per element:

1. *Unwrap/absorb undeclared children.*  A child whose name is not in
   the parent's content model is unwrapped (its children take its place,
   giving declared grandchildren a second chance); text accumulated in
   its ``val`` moves to the parent so no information is lost.
2. *Merge over-occurrences.*  Extra occurrences of a non-repetitive
   particle merge into the first occurrence (children appended, ``val``
   concatenated).
3. *Reorder.*  Declared children are stably rearranged into content-model
   order.
4. *Insert missing required elements.*  An empty element is created for
   a required particle with no occurrence.

Every operation is counted; the total is the *repair cost*, which the
benchmarks compare against the Zhang--Shasha edit distance and across
schema types (experiment E7/E9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dom.node import Element
from repro.mapping.validate import validate_document
from repro.schema.dtd import DTD, Multiplicity


@dataclass
class ConformResult:
    """A repaired document and the operations it took."""

    root: Element
    unwrapped: int = 0
    merged: int = 0
    reordered: int = 0
    inserted: int = 0
    dropped: int = 0

    @property
    def total_operations(self) -> int:
        """The repair cost."""
        return self.unwrapped + self.merged + self.reordered + self.inserted + self.dropped


def conform_document(root: Element, dtd: DTD) -> ConformResult:
    """Repair ``root`` in place until it conforms to ``dtd``.

    Upper-case concept tags match the lower-case DTD names.  The root
    element must already carry the DTD's root name (documents produced
    by the converter always do); a mismatched root is renamed and
    counted as one operation.
    """
    result = ConformResult(root)

    def name_of(element: Element) -> str:
        return element.tag.lower()

    if name_of(root) != dtd.root_name:
        root.tag = dtd.root_name.upper()
        result.merged += 1

    _conform_element(root, dtd, result, name_of, synth_chain=(), synthesized=set())
    return result


def repair(root: Element, dtd: DTD) -> ConformResult:
    """The document mapping step: make ``root`` conform to ``dtd``.

    A conforming document is left alone; any other is conformed in
    place and validated again.  Repair is designed to be complete, so
    residue raises :class:`AssertionError` -- it is a bug, not a
    skippable document.  Every repair operation changes the tree, so a
    result with zero operations means the document conformed on arrival.
    """
    if not validate_document(root, dtd):
        return ConformResult(root)
    result = conform_document(root, dtd)
    remaining = validate_document(root, dtd)
    if remaining:
        raise AssertionError(
            f"repair left violations: {[str(v) for v in remaining[:3]]}"
        )
    return result


def _conform_element(
    element: Element,
    dtd: DTD,
    result: ConformResult,
    name_of,
    synth_chain: tuple[str, ...],
    synthesized: set[int],
) -> None:
    declaration = dtd.elements.get(name_of(element))
    if declaration is None:
        return
    declared = [particle.name for particle in declaration.particles]
    declared_set = set(declared)

    # 1. Unwrap undeclared children (repeatedly: unwrapping may surface
    # new undeclared grandchildren).
    changed = True
    while changed:
        changed = False
        for child in list(element.element_children()):
            if name_of(child) in declared_set:
                continue
            element.append_val(child.get_val())
            grandchildren = list(child.children)
            if grandchildren:
                child.replace_with(*grandchildren)
                result.unwrapped += 1
            else:
                child.detach()
                result.dropped += 1
            changed = True

    # 2. Merge over-occurrences of non-repetitive particles.
    for particle in declaration.particles:
        if particle.multiplicity in (Multiplicity.PLUS, Multiplicity.STAR):
            continue
        occurrences = [
            child
            for child in element.element_children()
            if name_of(child) == particle.name
        ]
        if len(occurrences) <= 1:
            continue
        keeper = occurrences[0]
        for extra in occurrences[1:]:
            keeper.append_val(extra.get_val())
            for grandchild in list(extra.children):
                keeper.append_child(grandchild)
            extra.detach()
            result.merged += 1

    # 3. Reorder children into content-model order (stable).
    order_index = {name: i for i, name in enumerate(declared)}
    children = element.element_children()
    desired = sorted(
        children, key=lambda child: order_index.get(name_of(child), len(declared))
    )
    if [id(c) for c in children] != [id(c) for c in desired]:
        for child in children:
            child.detach()
        for child in desired:
            element.append_child(child)
        result.reordered += 1

    # 4. Insert missing required elements, at their declared position.
    # Document-driven recursion always terminates (documents are finite),
    # but chains of *synthesized* fillers could recurse forever on a DTD
    # whose required-child graph has a label cycle (derive_dtd breaks
    # such cycles, but hand-written or parsed DTDs may carry them) --
    # so a filler whose label already occurs among its synthesized
    # ancestors is not created.
    if id(element) in synthesized:
        own_chain = synth_chain + (name_of(element),)
    else:
        own_chain = (name_of(element),)
    for position, particle in enumerate(declaration.particles):
        if particle.multiplicity not in (Multiplicity.ONE, Multiplicity.PLUS):
            continue
        if particle.name in own_chain:
            continue
        present = any(
            name_of(child) == particle.name for child in element.element_children()
        )
        if present:
            continue
        tag = particle.name.upper() if name_of(element) != element.tag else particle.name
        filler = Element(tag)
        insert_at = _insertion_index(element, declaration, position, name_of)
        element.insert_child(insert_at, filler)
        synthesized.add(id(filler))
        result.inserted += 1

    for child in element.element_children():
        _conform_element(
            child, dtd, result, name_of,
            synth_chain=own_chain, synthesized=synthesized,
        )


def _insertion_index(element: Element, declaration, particle_position: int, name_of) -> int:
    """Index at which a filler for particle ``particle_position`` belongs."""
    earlier = {p.name for p in declaration.particles[:particle_position]}
    index = 0
    for i, child in enumerate(element.children):
        if isinstance(child, Element) and name_of(child) in earlier:
            index = i + 1
    return index
