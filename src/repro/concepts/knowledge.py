"""The knowledge base: concepts + constraints, with (de)serialization."""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional

from repro.concepts.concept import Concept, ConceptInstance, ConceptRole
from repro.concepts.constraints import (
    ConstraintSet,
    DepthConstraint,
    ParentConstraint,
    SiblingConstraint,
)


class KnowledgeBase:
    """All domain knowledge for one topic.

    "Concepts are provided by a single user initiating the document
    transformation process" (Section 2.2) -- in code, the user builds one
    of these (or loads it from JSON) and hands it to the converter.
    """

    def __init__(
        self,
        topic: str,
        concepts: Iterable[Concept] = (),
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        self.topic = topic
        self._concepts: dict[str, Concept] = {}
        for concept in concepts:
            self.add(concept)
        self.constraints = constraints if constraints is not None else ConstraintSet()

    # -- concept registry ---------------------------------------------------

    def add(self, concept: Concept) -> Concept:
        """Register a concept; duplicate names are an error."""
        key = concept.name.lower()
        if key in self._concepts:
            raise ValueError(f"duplicate concept: {concept.name}")
        self._concepts[key] = concept
        return concept

    def get(self, name: str) -> Concept:
        """Look up a concept by (case-insensitive) name."""
        return self._concepts[name.lower()]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._concepts

    def __iter__(self) -> Iterator[Concept]:
        return iter(self._concepts.values())

    def __len__(self) -> int:
        return len(self._concepts)

    def concept_tags(self) -> set[str]:
        """The XML element names contributed by this knowledge base."""
        return {c.tag for c in self._concepts.values()}

    def by_role(self, role: ConceptRole) -> list[Concept]:
        """Concepts with the given role (title vs content)."""
        return [c for c in self._concepts.values() if c.role is role]

    def total_instances(self) -> int:
        """Total number of concept instances across all concepts."""
        return sum(c.instance_count() for c in self._concepts.values())

    def concept_for_tag(self, tag: str) -> Optional[Concept]:
        """The concept whose element tag is ``tag``, or ``None``."""
        return self._concepts.get(tag.lower())

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form suitable for JSON round-tripping."""
        return {
            "topic": self.topic,
            "concepts": [
                {
                    "name": c.name,
                    "role": c.role.value,
                    "description": c.description,
                    "instances": [
                        {"pattern": i.pattern, "is_regex": i.is_regex}
                        for i in c.instances
                    ],
                }
                for c in self._concepts.values()
            ],
            "constraints": {
                "parents": [
                    {"parent": p.parent, "child": p.child, "negated": p.negated}
                    for p in self.constraints.parents
                ],
                "siblings": [
                    {"left": s.left, "right": s.right, "negated": s.negated}
                    for s in self.constraints.siblings
                ],
                "depths": [
                    {
                        "concept": d.concept,
                        "op": d.op,
                        "bound": d.bound,
                        "negated": d.negated,
                    }
                    for d in self.constraints.depths
                ],
                "no_repeat_on_path": self.constraints.no_repeat_on_path,
                "max_depth": self.constraints.max_depth,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KnowledgeBase":
        """Inverse of :meth:`to_dict`."""
        concepts = []
        for cdata in data.get("concepts", ()):
            instances = [
                ConceptInstance(i["pattern"], bool(i.get("is_regex", False)))
                for i in cdata.get("instances", ())
            ]
            concepts.append(
                Concept(
                    cdata["name"],
                    instances,
                    role=ConceptRole(cdata.get("role", "content")),
                    description=cdata.get("description", ""),
                )
            )
        raw = data.get("constraints", {})
        constraints = ConstraintSet(
            parents=[
                ParentConstraint(p["parent"], p["child"], bool(p.get("negated")))
                for p in raw.get("parents", ())
            ],
            siblings=[
                SiblingConstraint(s["left"], s["right"], bool(s.get("negated")))
                for s in raw.get("siblings", ())
            ],
            depths=[
                DepthConstraint(
                    d["concept"], d["op"], int(d["bound"]), bool(d.get("negated"))
                )
                for d in raw.get("depths", ())
            ],
            no_repeat_on_path=bool(raw.get("no_repeat_on_path", False)),
            max_depth=raw.get("max_depth"),
        )
        return cls(data.get("topic", "unknown"), concepts, constraints)

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "KnowledgeBase":
        """Load from a JSON string produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
