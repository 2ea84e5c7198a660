"""Module privacy guard: no ``repro`` module reaches into another's
``_underscore`` names.

A private name is an implementation detail of the module that defines
it.  Importing one from elsewhere (``from repro.x import _helper``) or
reading it off an imported module (``x_module._STATE``) couples two
modules through a detail neither promises to keep; the shared thing
should be given a public name instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "repro").rglob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def is_repro_module(dotted: str) -> bool:
    path = SRC.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def absolute(module: str | None, level: int, path: Path) -> str:
    """The absolute module path of a (possibly relative) import."""
    if not level:
        return module or ""
    package = list(path.relative_to(SRC).parent.parts)
    base = package[: len(package) - (level - 1)]
    return ".".join(base + ([module] if module else []))


def dotted_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted_name(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def violations(source: str, path: Path) -> list[str]:
    """Cross-module private accesses in ``source``, the text of ``path``."""
    tree = ast.parse(source, filename=str(path))
    # Local names bound to repro modules, mapped to the module path.
    modules: dict[str, str] = {}
    found: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    continue
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    modules["repro"] = "repro"
        elif isinstance(node, ast.ImportFrom):
            module = absolute(node.module, node.level, path)
            if module.split(".")[0] != "repro":
                continue
            for alias in node.names:
                if is_private(alias.name):
                    found.append(
                        f"{path.name}:{node.lineno} imports {module}.{alias.name}"
                    )
                elif is_repro_module(f"{module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{module}.{alias.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not is_private(node.attr):
            continue
        owner = dotted_name(node.value)
        if owner is None:
            continue
        head, _, rest = owner.partition(".")
        if head not in modules:
            continue
        target = ".".join(filter(None, [modules[head], rest]))
        if is_repro_module(target):
            found.append(f"{path.name}:{node.lineno} reads {target}.{node.attr}")
    return found


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_no_cross_module_private_access(path):
    assert violations(path.read_text(encoding="utf-8"), path) == []


def test_guard_catches_both_forms():
    source = (
        "from repro.runtime.pool import _call\n"
        "from repro.runtime import engine as engine_runtime\n"
        "import repro.runtime.pool\n"
        "engine_runtime._convert_chunk\n"
        "repro.runtime.pool._STATE\n"
        "engine_runtime.CorpusEngine\n"
    )
    found = violations(source, SRC / "repro" / "service" / "probe.py")
    assert [line.split(" ", 1)[1] for line in found] == [
        "imports repro.runtime.pool._call",
        "reads repro.runtime.engine._convert_chunk",
        "reads repro.runtime.pool._STATE",
    ]

