"""Public-surface guard: every public name in ``repro`` is run by
something other than its own tests.

The scan parses every module under ``src/repro`` and lists its public
top-level functions and classes and the public methods of its top-level
classes.  It then looks for a use of each name in the code that runs the
package: ``src/`` (without the ``__init__.py`` re-exports),
``benchmarks/``, ``examples/``, ``perfbench/``, ``.github/`` and
``pyproject.toml``.  A name with no use is surface that only ``tests/``
reads; delete it with its tests, or put it on ``KEEP`` with the reason a
test needs it.

A Python file is read through its syntax tree.  An import, an attribute
or a word inside a string (a docstring, a ``getattr`` key) uses a name
anywhere; a bare name uses it only in the module that defines it, since
anywhere else it would need an import.  Other files are read word by
word.  Matching is by name, not by binding, so the scan under-reports:
any attribute ``x.run`` counts as a use of every method ``run``.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CONSUMERS = ("benchmarks", "examples", "perfbench", ".github", "pyproject.toml")
# A word, but not the prefix of a string literal such as f"..." or rb'...'.
WORD = re.compile(r"""\b(?![bBfFrRuU]{1,2}['"])[A-Za-z_]\w*""")

# Names that only tests read, kept because a test reads them to check
# other code or a paper figure.  Methods are ``Class.method``.
KEEP = {
    "squeeze_whitespace": "tests/oracles/rules.py builds the legacy rule oracle on it",
    "is_inline": "tests/oracles/tidy.py builds the legacy tidy oracle on it",
    "find_first": "the path query API's one-result form; conversion tests read output with it",
    "KnowledgeBase.total_instances": "pins the paper's 233 KB instances in test_paper_counts",
    "Element.text_children": "parser and tidy tests check decoded and merged text through it",
    "MajoritySchema.contains_path": "majority-schema tests check mined paths through it",
    "MultinomialNaiveBayes.log_posteriors": "tests check its scoring tables against the formula",
    "QuantileDigest.relative_error": "quantile tests check the digest's error bound against it",
    "Tracer.by_name": "stage-clock and discovery tests select recorded spans through it",
    "ProvenanceLog.by_kind": "fault-tolerance tests select recorded error events through it",
    "ConstraintSet.add_parent": "Section 2.2 constraint authoring API",
    "ConstraintSet.add_sibling": "Section 2.2 constraint authoring API",
    "ConstraintSet.is_empty": "Section 2.2 constraint authoring API",
    "Concept.add_pattern": "Section 2.2 concept authoring API",
}


def is_public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions() -> list[tuple[str, str, Path]]:
    """Each public top-level function or class, and each public method
    of a top-level class, as ``(qualified name, name, module path)``."""
    found: list[tuple[str, str, Path]] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not is_public(node.name):
                continue
            found.append((node.name, node.name, path))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    is_method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    if is_method and is_public(item.name):
                        found.append((f"{node.name}.{item.name}", item.name, path))
    return found


def is_reexport(node: ast.stmt) -> bool:
    """An ``__init__.py`` import or ``__all__``: it names, not uses."""
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
    )


def python_uses(path: Path) -> tuple[Counter[str], Counter[str]]:
    """The names a Python file uses from anywhere (imports, attributes,
    words in strings), and the bare names it loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    statements = [
        node for node in tree.body if not (path.name == "__init__.py" and is_reexport(node))
    ]
    anywhere: Counter[str] = Counter()
    bare: Counter[str] = Counter()
    for statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.alias):
                anywhere.update(WORD.findall(node.name))
            elif isinstance(node, ast.Attribute):
                anywhere[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                anywhere.update(WORD.findall(node.value))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare[node.id] += 1
    return anywhere, bare


def is_left_behind(path: Path, top: Path) -> bool:
    """Bytecode caches and dot-directories (benchmark and test output)
    are not code that runs the package."""
    parts = path.relative_to(top).parts
    return any(part == "__pycache__" or part.startswith(".") for part in parts)


def consumer_uses() -> tuple[Counter[str], dict[Path, Counter[str]]]:
    """Names used from anywhere, and per package module its bare loads."""
    anywhere: Counter[str] = Counter()
    bare_by_module: dict[Path, Counter[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        uses, bare_by_module[path] = python_uses(path)
        anywhere.update(uses)
    for name in CONSUMERS:
        top = ROOT / name
        files = [top] if top.is_file() else sorted(
            path for path in top.rglob("*") if path.is_file() and not is_left_behind(path, top)
        )
        for path in files:
            if path.suffix == ".py":
                uses, _bare = python_uses(path)
                anywhere.update(uses)
            else:
                anywhere.update(WORD.findall(path.read_text(encoding="utf-8", errors="replace")))
    return anywhere, bare_by_module


def test_every_public_name_is_run_outside_tests():
    anywhere, bare_by_module = consumer_uses()
    unused = sorted(
        qualified
        for qualified, name, module in public_definitions()
        if not anywhere[name] and not bare_by_module[module][name] and qualified not in KEEP
    )
    assert not unused, (
        "public names that nothing outside tests/ uses "
        "(delete them, or add each to KEEP with a reason): " + ", ".join(unused)
    )


def test_keep_list_names_exist():
    defined = {qualified for qualified, _name, _module in public_definitions()}
    missing = sorted(set(KEEP) - defined)
    assert not missing, "KEEP lists names that src/repro no longer defines: " + ", ".join(missing)
