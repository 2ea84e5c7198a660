"""DTD conformance checking.

A document conforms to a derived DTD when every element is declared and
every element's child sequence matches its declaration's content model
(a sequence of uniquely named particles with multiplicities, as produced
by :func:`repro.schema.dtd.derive_dtd`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.dom.node import Element
from repro.schema.dtd import DTD, Multiplicity


class ViolationKind(enum.Enum):
    """What went wrong at one tree position."""

    UNDECLARED_ELEMENT = "undeclared-element"
    UNEXPECTED_CHILD = "unexpected-child"
    MISSING_CHILD = "missing-child"
    TOO_MANY = "too-many-occurrences"
    WRONG_ORDER = "wrong-order"
    WRONG_ROOT = "wrong-root"


@dataclass(frozen=True)
class Violation:
    """One conformance violation, located by a label path."""

    kind: ViolationKind
    path: tuple[str, ...]
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.kind.value} at /{'/'.join(self.path)}: {self.detail}"


def validate_element(
    element: Element,
    dtd: DTD,
    path: tuple[str, ...],
    violations: list[Violation],
) -> None:
    name = element.tag.lower()
    declaration = dtd.elements.get(name)
    if declaration is None:
        violations.append(
            Violation(ViolationKind.UNDECLARED_ELEMENT, path, f"<{name}> not declared")
        )
        return

    children = element.element_children()
    child_names = [child.tag.lower() for child in children]
    declared_order = [particle.name for particle in declaration.particles]
    declared_set = set(declared_order)

    for child_name in child_names:
        if child_name not in declared_set:
            violations.append(
                Violation(
                    ViolationKind.UNEXPECTED_CHILD,
                    path,
                    f"<{child_name}> not in content model of <{name}>",
                )
            )

    counts = {part: child_names.count(part) for part in declared_order}
    for particle in declaration.particles:
        count = counts[particle.name]
        required = particle.multiplicity in (Multiplicity.ONE, Multiplicity.PLUS)
        single = particle.multiplicity in (Multiplicity.ONE, Multiplicity.OPTIONAL)
        if required and count == 0:
            violations.append(
                Violation(
                    ViolationKind.MISSING_CHILD,
                    path,
                    f"<{name}> requires <{particle.name}>",
                )
            )
        if single and count > 1:
            violations.append(
                Violation(
                    ViolationKind.TOO_MANY,
                    path,
                    f"<{particle.name}> occurs {count}x but is not repetitive",
                )
            )

    # Order check: the declared children present must appear in declared
    # order (runs of a repeated name count as one position).
    present_sequence = [n for n in child_names if n in declared_set]
    collapsed: list[str] = []
    for child_name in present_sequence:
        if not collapsed or collapsed[-1] != child_name:
            collapsed.append(child_name)
    expected = [n for n in declared_order if n in collapsed]
    if collapsed != expected and len(set(collapsed)) == len(collapsed):
        violations.append(
            Violation(
                ViolationKind.WRONG_ORDER,
                path,
                f"children of <{name}> are {collapsed}, declared order is {expected}",
            )
        )
    elif len(set(collapsed)) != len(collapsed):
        # A name reappears after other names intervened -- that can never
        # match a sequence content model.
        violations.append(
            Violation(
                ViolationKind.WRONG_ORDER,
                path,
                f"children of <{name}> interleave: {collapsed}",
            )
        )

    for child in children:
        child_name = child.tag.lower()
        if child_name in declared_set:
            validate_element(child, dtd, path + (child_name,), violations)


def validate_document(root: Element, dtd: DTD) -> list[Violation]:
    """All conformance violations of ``root`` against ``dtd``.

    The upper-case concept tags of converted documents map onto the
    lower-case DTD element names (the paper's convention).  An empty
    result means the document conforms.
    """
    violations: list[Violation] = []
    root_name = root.tag.lower()
    if root_name != dtd.root_name:
        violations.append(
            Violation(
                ViolationKind.WRONG_ROOT,
                (),
                f"root is <{root_name}>, DTD expects <{dtd.root_name}>",
            )
        )
        return violations
    validate_element(root, dtd, (root_name,), violations)
    return violations


def conforms(root: Element, dtd: DTD) -> bool:
    """True when the document has no violations."""
    return not validate_document(root, dtd)
