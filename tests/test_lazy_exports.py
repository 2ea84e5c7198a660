"""Import contract: a package exports its names lazily, so importing a
module runs that module and what it imports itself, and nothing more.

The engine's set-up (``perfbench/batch_child.py``'s three imports) and
``repro.cli`` are checked in fresh interpreters against the modules a
corpus run never touches; every exported name is checked to resolve.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts) for path in SRC.rglob("__init__.py")
)

REPORT = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
ENGINE_IMPORTS = """
from repro.concepts.resume_kb import build_resume_knowledge_base
from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.schema.accumulator import PathAccumulator
"""


def loaded_after(code: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_engine_setup_loads_only_what_a_run_uses():
    loaded = loaded_after(ENGINE_IMPORTS)
    unused = ("repro.mapping", "repro.corpus", "repro.evaluation", "repro.service")
    assert "repro.runtime.engine" in loaded
    assert [name for name in loaded if name.startswith(unused)] == []
    assert "repro.schema.evolution" not in loaded


def test_cli_loads_no_corpus_module():
    loaded = loaded_after("import repro.cli")
    assert [name for name in loaded if name.startswith("repro.corpus")] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    assert module.__all__
    listed = dir(module)
    for name in module.__all__:
        assert name in listed
        # Never a submodule that shadows the export of its name.
        assert not isinstance(getattr(module, name), ModuleType), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    import repro

    assert set(repro.__all__) <= namespace.keys()
    assert namespace["tidy"] is importlib.import_module("repro.htmlparse.tidy").tidy


def test_unknown_name_is_an_attribute_error():
    import repro.schema

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.schema.nope  # noqa: B018
