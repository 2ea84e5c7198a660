"""repro -- reproduction of Chung, Gertz & Sundaresan (ICDE 2002),
"Reverse Engineering for Web Data: From Visual to Semantic Structures".

The library converts topic-specific HTML documents into concept-tagged
XML documents (document restructuring rules driven by a small knowledge
base), discovers a *majority schema* over the result, derives a DTD from
it, and maps non-conforming documents onto that DTD for integration into
an XML repository.

Quickstart::

    from repro import (
        build_resume_knowledge_base, DocumentConverter,
        extract_paths, mine_frequent_paths, MajoritySchema, derive_dtd,
    )

    kb = build_resume_knowledge_base()
    converter = DocumentConverter(kb)
    results = [converter.convert(html) for html in corpus_html]

    docs = [extract_paths(r.root) for r in results]
    frequent = mine_frequent_paths(docs, sup_threshold=0.4)
    schema = MajoritySchema.from_frequent_paths(frequent)
    print(derive_dtd(schema, docs).render())

Subpackages: ``htmlparse`` (from-scratch HTML parser + Tidy-style
cleanser), ``dom`` (ordered-tree document model), ``concepts`` (domain
knowledge, synonym matcher, naive Bayes), ``convert`` (the four
restructuring rules), ``schema`` (frequent paths, majority schema, DTD,
baselines), ``mapping`` (tree edit distance, conformance, repository),
``corpus`` (synthetic resume corpus + simulated web/crawler),
``evaluation`` (the paper's experiments), ``runtime`` (the parallel
streaming corpus engine with mergeable path statistics), ``obs``
(span tracing, metrics registry, per-document provenance).

Every package exports its names lazily (PEP 562): importing a package
runs none of its submodules, and the first read of a name imports the
module that defines it.  So ``import repro.x.y`` runs ``x.y`` and what
it imports itself, and nothing more.
"""

from importlib import import_module

__version__ = "1.0.0"


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]) -> None:
    """Give the package whose globals are ``namespace`` a module
    ``__getattr__``, ``__dir__`` and ``__all__`` over ``table``, which
    maps a module path, relative to the package (``".node"``) or
    absolute, to the names it exports.  A name is cached in the package
    namespace on first read."""
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home[name], package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    namespace.update(__getattr__=__getattr__, __dir__=__dir__, __all__=list(home))
    for name, module in home.items():
        if module == f".{name}":
            # Importing a submodule binds it under its own name, over an
            # export of that name; so import it now and bind the export after.
            __getattr__(name)


lazy_exports(globals(), {
    ".concepts": (
        "Concept",
        "ConceptInstance",
        "ConceptRole",
        "ConstraintSet",
        "KnowledgeBase",
        "SynonymMatcher",
        "MultinomialNaiveBayes",
        "build_resume_knowledge_base",
    ),
    ".convert": ("DocumentConverter", "ConversionConfig", "ConversionResult"),
    ".dom": ("Element", "Text", "to_xml"),
    ".htmlparse": ("parse_html", "tidy"),
    ".schema": (
        "extract_paths",
        "mine_frequent_paths",
        "MajoritySchema",
        "derive_dtd",
        "DTD",
        "build_dataguide",
        "build_lower_bound_schema",
        "PathAccumulator",
    ),
    ".mapping": ("tree_edit_distance", "validate_document", "conform_document", "XMLRepository"),
    ".corpus": ("ResumeCorpusGenerator", "SimulatedWeb", "TopicCrawler"),
    ".runtime": ("CorpusEngine", "EngineConfig", "EngineStats"),
    ".obs": ("Tracer", "MetricsRegistry", "ProvenanceLog"),
})
__all__.append("__version__")
