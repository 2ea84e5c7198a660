"""General repetitive structures: ``(e1, e2)+`` group patterns.

Section 3.3: "In the above description we do not consider repetitive
structures of more general types, e.g., of the form (e1,e2)*.  The
discovery of such patterns has been discussed in detail in [17] (XTRACT).
We recently included similar computations into our approach."

This module supplies that computation.  Given the child-label sequences
observed under a parent element across the corpus, it detects *tandem
repeats*: a unit of k consecutive labels (k >= 1) repeated m >= 2 times.
A unit that explains more than ``GROUP_THRESHOLD`` of the documents'
sequences is reported as a group pattern, which the DTD deriver can render as
``(e1, e2)+`` instead of ``e1+, e2+``.

The search follows XTRACT's spirit without its full MDL machinery:
candidate units are enumerated from the sequences themselves (at most
``MAX_UNIT`` labels long), each candidate is scored by how many documents' sequences
it *covers* (the sequence is, up to a prefix and suffix, an iteration of
the unit), and the best-covering candidate wins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.dom.node import Element
from repro.schema.paths import LabelPath

MAX_UNIT = 4
MIN_REPEATS = 2
GROUP_THRESHOLD = 0.5


@dataclass(frozen=True)
class GroupPattern:
    """A discovered ``(e1, ..., ek)+`` pattern under one parent path."""

    unit: tuple[str, ...]
    support: float  # fraction of parent-containing docs covered

    def render(self) -> str:
        """The content-model fragment, e.g. ``(date, degree)+``."""
        return f"({', '.join(label.lower() for label in self.unit)})+"


def child_sequences(root: Element, parent_path: LabelPath) -> list[list[str]]:
    """Child-label sequences of every node realizing ``parent_path``."""
    sequences: list[list[str]] = []
    stack: list[tuple[Element, LabelPath]] = [(root, (root.tag,))]
    while stack:
        element, path = stack.pop()
        if path == parent_path:
            sequences.append([c.tag for c in element.element_children()])
        if len(path) < len(parent_path):
            for child in element.element_children():
                if parent_path[: len(path) + 1] == path + (child.tag,):
                    stack.append((child, path + (child.tag,)))
    return sequences


def repeats_of(sequence: list[str], unit: tuple[str, ...]) -> int:
    """Maximum number of consecutive repetitions of ``unit`` in
    ``sequence`` (anywhere, not necessarily anchored)."""
    if not unit or len(unit) > len(sequence):
        return 0
    k = len(unit)
    best = 0
    for start in range(len(sequence) - k + 1):
        count = 0
        position = start
        while (
            position + k <= len(sequence)
            and tuple(sequence[position : position + k]) == unit
        ):
            count += 1
            position += k
        best = max(best, count)
    return best


def covers(sequence: list[str], unit: tuple[str, ...], *, min_repeats: int) -> bool:
    """Whether ``sequence`` is explained by iterating ``unit``.

    Coverage requires at least ``min_repeats`` consecutive iterations
    whose combined span accounts for all occurrences in the sequence of
    the labels that make up the unit (stray occurrences outside the
    repeat region mean the unit does not really structure the sequence).
    """
    count = repeats_of(sequence, unit)
    if count < min_repeats:
        return False
    unit_labels = set(unit)
    in_unit_occurrences = sum(1 for label in sequence if label in unit_labels)
    return count * len(unit) == in_unit_occurrences


def _candidate_units(
    sequences: list[list[str]], max_unit: int
) -> list[tuple[str, ...]]:
    """Units observed to actually repeat at least twice somewhere."""
    candidates: Counter[tuple[str, ...]] = Counter()
    for sequence in sequences:
        for k in range(1, min(max_unit, len(sequence) // 2) + 1):
            for start in range(len(sequence) - 2 * k + 1):
                unit = tuple(sequence[start : start + k])
                if tuple(sequence[start + k : start + 2 * k]) == unit:
                    if _is_primitive(unit):
                        candidates[unit] += 1
    return [unit for unit, _count in candidates.most_common()]


def _is_primitive(unit: tuple[str, ...]) -> bool:
    """True unless ``unit`` is itself an iteration of a shorter unit
    (('a','b','a','b') reduces to ('a','b'); keep only the short form)."""
    k = len(unit)
    for divisor in range(1, k):
        if k % divisor == 0 and unit == unit[:divisor] * (k // divisor):
            return False
    return True


def discover_group_patterns(
    corpus_roots: list[Element], parent_path: LabelPath
) -> list[GroupPattern]:
    """Find ``(e1, ..., ek)+`` patterns under ``parent_path``.

    Returns patterns sorted by (coverage, unit length) descending; the
    first entry, if any, is what the DTD deriver should use.  Unit-length
    1 candidates are excluded (plain ``e+`` already handles them).
    """
    all_sequences = [
        sequence
        for root in corpus_roots
        for sequence in child_sequences(root, parent_path)
    ]
    relevant = [s for s in all_sequences if len(s) >= 2 * 2]  # room for k>=2 twice
    if not all_sequences:
        return []

    patterns: list[GroupPattern] = []
    for unit in _candidate_units(relevant, MAX_UNIT):
        if len(unit) < 2:
            continue
        covered = [
            sequence
            for sequence in all_sequences
            if covers(sequence, unit, min_repeats=MIN_REPEATS)
        ]
        support = len(covered) / len(all_sequences)
        if support <= GROUP_THRESHOLD:
            continue
        patterns.append(GroupPattern(unit, support))
    patterns.sort(key=lambda p: (p.support, len(p.unit)), reverse=True)
    return patterns


def render_dtd_with_patterns(dtd, patterns: dict[LabelPath, GroupPattern]) -> str:
    """Render a DTD with group patterns substituted into content models.

    For each declaration whose element is the tail of a pattern's parent
    path, the particles that make up the pattern's unit are replaced by
    the grouped form, e.g. ``date+, degree`` becomes ``(date, degree)+``.
    The remaining particles keep their order around the group.
    """
    by_element: dict[str, GroupPattern] = {}
    for parent_path, pattern in patterns.items():
        by_element[parent_path[-1].lower()] = pattern

    lines: list[str] = []
    for line in dtd.render().splitlines():
        name = line.split()[1] if line.startswith("<!ELEMENT") else ""
        pattern = by_element.get(name)
        if pattern is None:
            lines.append(line)
            continue
        element = dtd.elements[name]
        unit_names = {label.lower() for label in pattern.unit}
        pieces: list[str] = []
        group_emitted = False
        for particle in element.particles:
            if particle.name in unit_names:
                if not group_emitted:
                    pieces.append(pattern.render())
                    group_emitted = True
                continue
            pieces.append(particle.render())
        if not group_emitted:
            lines.append(line)
            continue
        inner = ", ".join(pieces)
        body = f"((#PCDATA), {inner})" if element.has_pcdata else f"({inner})"
        lines.append(f"<!ELEMENT {name} {body}>")
    return "\n".join(lines)


def discover_all_group_patterns(
    corpus_roots: list[Element],
    parent_paths: list[LabelPath],
) -> dict[LabelPath, GroupPattern]:
    """Best group pattern per parent path (paths without one omitted)."""
    result: dict[LabelPath, GroupPattern] = {}
    for parent_path in parent_paths:
        found = discover_group_patterns(corpus_roots, parent_path)
        if found:
            result[parent_path] = found[0]
    return result
