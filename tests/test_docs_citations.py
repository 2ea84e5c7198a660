"""Every repository path DESIGN.md and README.md cite still exists.

A citation is a word inside an inline code span that starts with one of
the top-level directories below, e.g. `src/repro/obs/runlog.py`,
`tests/golden/` or `python tests/test_golden_corpus.py --bless`.  A
citation may name something inside a Python file, as
`tests/test_x.py::TestClass::test_name` (a test node id) or
`tests/oracles/migrate.py:migrate_repository`; each such name must be a
class or function defined in that file.  Fenced code blocks are not
citations.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md")
CITED_ROOTS = ("src/", "tests/", "benchmarks/", "perfbench/", "examples/")

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_CODE_SPAN = re.compile(r"`([^`\n]+)`")


def citations(doc: str) -> list[str]:
    text = _FENCE.sub("", (REPO_ROOT / doc).read_text(encoding="utf-8"))
    return sorted({
        word
        for span in _CODE_SPAN.findall(text)
        for word in span.split()
        if word.startswith(CITED_ROOTS)
    })


def defined_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


def broken(citation: str) -> str | None:
    """Why ``citation`` does not resolve, or ``None`` when it does."""
    path_text, _, names = citation.partition("::")
    if not names:
        path_text, _, names = path_text.partition(":")
    path = REPO_ROOT / path_text
    if not path.exists():
        return f"{path_text} is missing"
    if not names:
        return None
    missing = set(names.split("::")) - defined_names(path)
    return f"{sorted(missing)} not defined in {path_text}" if missing else None


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    cited = citations(doc)
    assert cited, f"{doc} cites no repository path"
    problems = {citation: broken(citation) for citation in cited}
    assert {c: why for c, why in problems.items() if why} == {}


def test_node_ids_are_checked():
    """The docs cite test node ids, so the name check is exercised."""
    assert any("::" in c for doc in DOCS for c in citations(doc))
