"""Repository persistence: save/load an XML repository to/from disk.

The Quixote prototype ([11]) the paper mentions builds durable "XML
repositories from topic specific Web documents"; this module provides
the storage layer: a directory holding the DTD, one XML file per
document, and a JSON manifest with the insertion statistics.

All files are read and written as UTF-8 explicitly -- repository
round-trips must not depend on the platform locale (PCDATA routinely
carries non-ASCII names and punctuation).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

from repro.dom.node import Element
from repro.dom.serialize import to_xml_document
from repro.dom.treeops import iter_elements
from repro.durable import fsync_dir, fsync_write, link_or_copy
from repro.htmlparse.parser import parse_fragment
from repro.mapping.repository import RepositoryStats, XMLRepository
from repro.schema.dtd import DTD

MANIFEST_NAME = "manifest.json"
DTD_NAME = "schema.dtd"

ENCODING = "utf-8"


def read_document(path: Path) -> str:
    """A stored document's XML text, byte for byte.

    ``Path.read_text`` would translate newlines and turn a carriage
    return in PCDATA or an attribute value into a line feed; the XML
    reader keeps a raw carriage return, so decoding the bytes keeps it
    too.
    """
    return path.read_bytes().decode(ENCODING)


def load_xml_document(text: str) -> Element:
    """Parse serialized converted-XML back into an element tree.

    This is the inverse of :func:`repro.dom.serialize.to_xml_document`
    for converted documents, whose element tags are upper-case concept
    names: the HTML parser accepts the XML subset the serializer emits
    but lower-cases every tag, so tags are restored by upper-casing.
    That is the pinned contract -- input whose original tags were not
    all upper-case comes back upper-cased, which is why this loader is
    only used for converted-document XML.

    A document with multiple top-level elements is a hard error: the
    serializer never produces one, so extra roots mean the file was
    corrupted or hand-edited, and silently keeping one root (and
    dropping the others) would lose data.

    Text that is only whitespace does not come back: the reader cannot
    tell it from the serializer's pretty-print padding, so an element
    whose one text child is ``" \t\r\n "`` loads with no text child.
    Attribute values, ``val`` included, keep their whitespace.
    Converted documents keep their text in ``val`` attributes and carry
    no text nodes, so no stored corpus loses anything to this.
    """
    fragment = parse_fragment(text)
    elements = fragment.element_children()
    if not elements:
        raise ValueError("no element found in XML text")
    if len(elements) > 1:
        tags = ", ".join(element.tag for element in elements)
        raise ValueError(
            f"expected exactly one root element, found {len(elements)} ({tags})"
        )
    root = elements[0]
    root.detach()
    for element in iter_elements(root):
        element.tag = element.tag.upper()
    return root


def write_repository_dir(
    directory: str | Path,
    dtd: DTD,
    xml_documents: list[str],
    stats: RepositoryStats,
    *,
    schema_version: int | None = None,
    carried: Sequence[Path] = (),
) -> Path:
    """Write one repository directory from already-serialized documents.

    The lower-level half of :func:`save_repository`, shared with the
    versioned layout (:mod:`repro.mapping.versioned`) whose parallel
    migration transports documents as XML text and should not re-build
    trees just to serialize them again.  The ``carried`` document files
    of another repository directory come first, hard-linked where the
    filesystem allows.  Every file, and the directory entry naming
    them, is flushed to stable storage before this returns.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    fsync_write(target / DTD_NAME, dtd.render().encode(ENCODING))
    count = len(carried) + len(xml_documents)
    names = [f"doc{index:05d}.xml" for index in range(count)]
    for source, name in zip(carried, names):
        link_or_copy(source, target / name)
    for xml, name in zip(xml_documents, names[len(carried):]):
        fsync_write(target / name, xml.encode(ENCODING))
    manifest = {
        "format": "repro-xml-repository/1",
        "root_name": dtd.root_name,
        "documents": names,
        "stats": {
            "documents": stats.documents,
            "conforming_on_arrival": stats.conforming_on_arrival,
            "repaired": stats.repaired,
            "rejected": stats.rejected,
            "total_repair_operations": stats.total_repair_operations,
        },
    }
    if schema_version is not None:
        manifest["schema_version"] = schema_version
    fsync_write(
        target / MANIFEST_NAME, json.dumps(manifest, indent=2).encode(ENCODING)
    )
    fsync_dir(target)
    return target


def save_repository(repository: XMLRepository, directory: str | Path) -> Path:
    """Write a repository to ``directory`` (created if needed)."""
    return write_repository_dir(
        directory,
        repository.dtd,
        [to_xml_document(document) for document in repository.documents],
        repository.stats,
        schema_version=repository.schema_version,
    )


def load_repository(directory: str | Path) -> XMLRepository:
    """Read a repository previously written by :func:`save_repository`.

    Loaded documents are re-validated against the stored DTD; a document
    that no longer conforms (external modification) raises
    :class:`ValueError` rather than silently repairing it.
    """
    source = Path(directory)
    manifest = json.loads((source / MANIFEST_NAME).read_text(encoding=ENCODING))
    if manifest.get("format") != "repro-xml-repository/1":
        raise ValueError(f"unrecognized repository format in {source}")
    dtd = DTD.parse(
        (source / DTD_NAME).read_text(encoding=ENCODING),
        root_name=manifest["root_name"],
    )
    repository = XMLRepository(dtd)
    repository.schema_version = manifest.get("schema_version")
    from repro.mapping.validate import validate_document

    for name in manifest["documents"]:
        document = load_xml_document(read_document(source / name))
        violations = validate_document(document, dtd)
        if violations:
            raise ValueError(
                f"{name} no longer conforms to the stored DTD: {violations[0]}"
            )
        repository.documents.append(document)
    stats = manifest.get("stats", {})
    rejected = stats.get("rejected", 0)
    repaired = stats.get("repaired", 0)
    # Rejected documents were never written to disk, so the on-disk
    # document count understates insertion attempts: the fallback for a
    # manifest without an explicit total is stored + rejected, and the
    # conforming-on-arrival fallback keeps repair_rate consistent
    # (accepted = conforming + repaired = stored documents).
    repository.stats.documents = stats.get(
        "documents", len(repository.documents) + rejected
    )
    repository.stats.conforming_on_arrival = stats.get(
        "conforming_on_arrival", len(repository.documents) - repaired
    )
    repository.stats.repaired = repaired
    repository.stats.rejected = rejected
    repository.stats.total_repair_operations = stats.get(
        "total_repair_operations", 0
    )
    return repository
