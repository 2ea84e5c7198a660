"""Topic-specific domain knowledge (Section 2.2).

The only mandatory user input to the conversion process is a set of
*topic concepts*, each with *concept instances* (keywords and text
patterns); *concept constraints* are optional and speed up schema
discovery (Section 4.2).

* :mod:`repro.concepts.concept` -- :class:`Concept`/:class:`ConceptInstance`.
* :mod:`repro.concepts.constraints` -- parent/sibling/depth constraints.
* :mod:`repro.concepts.knowledge` -- the :class:`KnowledgeBase` container.
* :mod:`repro.concepts.resume_kb` -- the paper's resume domain: 24
  concepts, 233 instances, 11 title / 13 content names.
* :mod:`repro.concepts.matcher` -- synonym-based instance identification.
* :mod:`repro.concepts.fastmatch` -- the Aho-Corasick tagging fast path
  (automaton + memoized token decisions), differentially equivalent to
  the naive matcher.
* :mod:`repro.concepts.bayes` -- the multinomial naive-Bayes classifier
  alternative ([12] in the paper).
"""

from repro import lazy_exports

lazy_exports(globals(), {
    ".bayes": ("MultinomialNaiveBayes",),
    ".concept": ("Concept", "ConceptInstance", "ConceptRole"),
    ".constraints": ("ConstraintSet", "ParentConstraint", "SiblingConstraint", "DepthConstraint"),
    ".discovery": ("InstanceProposal", "propose_instances", "augment_knowledge_base"),
    ".fastmatch": ("FastSynonymMatcher", "AhoCorasickAutomaton", "CachedBayes", "LRUCache"),
    ".knowledge": ("KnowledgeBase",),
    ".matcher": ("SynonymMatcher", "InstanceMatch"),
    ".resume_kb": ("build_resume_knowledge_base",),
})
