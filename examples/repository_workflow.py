"""The repository lifecycle: integrate, publish, reload, migrate.

The durable half of the Quixote system [11]: a repository built from one
corpus snapshot is published as version 1 of a versioned store,
reloaded later, and -- when the web's authoring habits have drifted --
migrated onto a freshly re-discovered DTD, together with new-web
documents, as version 2, without losing any document.  Version 1 stays
on disk for rollback.

Run:  python examples/repository_workflow.py [directory]
"""

import sys
import tempfile

from repro import (
    DocumentConverter,
    MajoritySchema,
    ResumeCorpusGenerator,
    XMLRepository,
    build_resume_knowledge_base,
    derive_dtd,
    extract_paths,
    mine_frequent_paths,
)
from repro.corpus.styles import STYLES
from repro.dom.serialize import to_xml_document
from repro.mapping.versioned import VersionedRepository


def discover_dtd(kb, converter, docs):
    documents = [extract_paths(converter.convert(d.html).root) for d in docs]
    schema = MajoritySchema.from_frequent_paths(
        mine_frequent_paths(
            documents,
            sup_threshold=0.4,
            constraints=kb.constraints,
            candidate_labels=kb.concept_tags(),
        )
    )
    return derive_dtd(schema, documents, optional_threshold=0.9)


def main(directory: str) -> None:
    kb = build_resume_knowledge_base()
    converter = DocumentConverter(kb)

    # --- build and persist ------------------------------------------------
    old_mix = {s: (1.0 if s in ("heading-list", "center-hr") else 0.0) for s in STYLES}
    old_docs = ResumeCorpusGenerator(seed=1, style_weights=old_mix).generate(30)
    old_dtd = discover_dtd(kb, converter, old_docs)
    repository = XMLRepository(old_dtd)
    for doc in old_docs:
        repository.insert(converter.convert(doc.html).root)
    store = VersionedRepository(directory)
    version = store.publish(old_dtd, repository.export(), repository.stats)
    print(f"published {len(repository)} documents as v{version:04d} "
          f"in {directory}/")

    # --- reload -----------------------------------------------------------
    loaded = store.load()
    print(f"reloaded {len(loaded)} documents "
          f"({loaded.stats.repaired} had been repaired on arrival)")

    # --- the web drifts: re-discover, migrate, absorb new documents -------
    new_mix = {s: (1.0 if s in ("table", "font-soup") else 0.0) for s in STYLES}
    new_docs = ResumeCorpusGenerator(seed=2, style_weights=new_mix).generate(30)
    new_dtd = discover_dtd(kb, converter, new_docs)
    new_xml = [
        to_xml_document(converter.convert(doc.html).root) for doc in new_docs[:10]
    ]
    version, report = store.sync(new_dtd, new_xml)
    print(
        f"migrated onto the re-discovered DTD: "
        f"{report.migrated} documents changed "
        f"({report.total_operations} operations, avg tree-edit distance "
        f"{report.avg_edit_distance:.1f}), "
        f"{report.already_conforming} already conformed"
    )
    migrated = store.load()
    print(f"after absorbing new-web documents: {len(migrated)} total "
          f"in v{version:04d} (v0001 kept for rollback)")

    degrees = migrated.values("RESUME//DEGREE")
    print(f"query across old and new documents: {len(degrees)} degrees found")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as scratch:
            main(scratch + "/store")
