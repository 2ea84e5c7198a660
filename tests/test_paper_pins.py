"""The paper's results, pinned exactly.

The benchmarks under ``benchmarks/`` regenerate the paper's figures but
assert only their shape, and tier-1 never runs them.  This module pins
the numbers themselves with ``==`` against goldens in
``tests/golden/paper/``, over a small auditable corpus with embedded
truth: 50 resumes generated in-test from seed 1966.

* Fig. 4 -- the per-document logical-error counts of
  :mod:`repro.evaluation.accuracy` against generator truth, and the
  corpus accuracy they give.
* Sec. 4.4 -- one DTD text, derived four ways that must agree: serial
  ``derive_dtd`` over the materialized path sets, :class:`CorpusEngine`
  at 1 and 2 workers, and an :class:`EvolvingSchema` fed the corpus as
  two folds.
* Fig. 3 -- the label paths of trees A, B and C, each with its support
  as an exact fraction.
* Sec. 4.2 -- the miner's accounting under the paper's constraints:
  candidates explored, candidates with non-zero support and frequent
  paths, both when only frequent prefixes are extended and in the
  ``extend_zero_support`` enumeration of the whole admissible space.

To re-bless the goldens after an *intentional* change of the paper's
figures::

    PYTHONPATH=src python tests/test_paper_pins.py --bless
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from repro.concepts.resume_kb import build_resume_knowledge_base
from repro.convert.pipeline import DocumentConverter
from repro.corpus.generator import ResumeCorpusGenerator
from repro.dom.node import Element
from repro.evaluation.accuracy import evaluate_accuracy
from repro.evaluation.searchspace import paper_constraints
from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.schema.accumulator import PathAccumulator
from repro.schema.dtd import derive_dtd
from repro.schema.evolution import EvolvingSchema
from repro.schema.frequent import mine_frequent_paths
from repro.schema.majority import MajoritySchema
from repro.schema.paths import extract_paths

PAPER_DIR = Path(__file__).parent / "golden" / "paper"
ACCURACY_GOLDEN = PAPER_DIR / "fig4_accuracy.json"
DTD_GOLDEN = PAPER_DIR / "sec44_dtd.txt"
PATHS_GOLDEN = PAPER_DIR / "fig3_paths.txt"

SEED = 1966
DOCS = 50
SUP_THRESHOLD = 0.4

# Figure 2's trees A, B and C as (tag, children) specs.
TREE_A = ("resume", [
    ("objective", []),
    ("contact", []),
    ("education", [
        ("degree", [("date", []), ("institution", [])]),
        ("degree", [("date", [])]),
    ]),
])
TREE_B = ("resume", [
    ("contact", []),
    ("education", [
        ("degree", [("date", []), ("institution", [])]),
        ("degree", [("institution", []), ("date", [])]),
    ]),
])
TREE_C = ("resume", [
    ("education", [
        ("institution", [("degree", []), ("date", [])]),
        ("institution", [("degree", []), ("date", [])]),
    ]),
])


def build_tree(spec) -> Element:
    tag, kids = spec
    element = Element(tag)
    for kid in kids:
        element.append_child(build_tree(kid))
    return element


def accuracy_record(converter, corpus) -> dict:
    """Per-document error counts and the corpus accuracy (Fig. 4)."""
    report = evaluate_accuracy(
        [(converter.convert(doc.html).root, doc.ground_truth) for doc in corpus]
    )
    return {
        "errors": [document.errors for document in report.documents],
        "accuracy": report.accuracy,
    }


def serial_dtd(kb, converter, corpus) -> str:
    """Mining and ``derive_dtd`` over the materialized path sets."""
    documents = [extract_paths(converter.convert(doc.html).root) for doc in corpus]
    frequent = mine_frequent_paths(
        documents,
        sup_threshold=SUP_THRESHOLD,
        constraints=kb.constraints,
        candidate_labels=kb.concept_tags(),
    )
    schema = MajoritySchema.from_frequent_paths(frequent)
    return derive_dtd(schema, documents).render()


def engine_dtd(kb, corpus, *, workers: int) -> str:
    engine = CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=workers, chunk_size=8)
    )
    run = engine.run([doc.html for doc in corpus], sup_threshold=SUP_THRESHOLD)
    return run.discovery.dtd.render()


def evolved_dtd(kb, converter, corpus, directory: Path) -> str:
    """The DTD of an evolving schema fed the corpus as two folds."""
    evolving = EvolvingSchema(directory, kb, sup_threshold=SUP_THRESHOLD)
    half = len(corpus) // 2
    for part in (corpus[:half], corpus[half:]):
        evolving.fold(
            PathAccumulator.from_trees(
                [converter.convert(doc.html).root for doc in part]
            )
        )
    return evolving.dtd_text


def figure3_lines() -> list[str]:
    """``label/path support`` per path of trees A, B, C, sorted."""
    statistics = PathAccumulator.from_documents(
        [extract_paths(build_tree(spec)) for spec in (TREE_A, TREE_B, TREE_C)]
    )
    return [
        f"{'/'.join(path)} "
        f"{Fraction(statistics.doc_frequency[path], statistics.document_count)}"
        for path in sorted(statistics.doc_frequency)
    ]


@pytest.fixture(scope="module")
def corpus():
    return ResumeCorpusGenerator(seed=SEED).generate(DOCS)


def test_figure4_error_counts_and_accuracy(converter, corpus):
    expected = json.loads(ACCURACY_GOLDEN.read_text())
    actual = accuracy_record(converter, corpus)
    assert actual["errors"] == expected["errors"]
    assert actual["accuracy"] == expected["accuracy"]
    assert len(actual["errors"]) == DOCS


def test_section44_dtd_from_materialized_paths(kb, converter, corpus):
    assert serial_dtd(kb, converter, corpus) == DTD_GOLDEN.read_text()


@pytest.mark.parametrize("workers", [1, 2])
def test_section44_dtd_from_engine(kb, corpus, workers):
    assert engine_dtd(kb, corpus, workers=workers) == DTD_GOLDEN.read_text()


def test_section44_dtd_from_two_folds(tmp_path, kb, converter, corpus):
    assert (
        evolved_dtd(kb, converter, corpus, tmp_path / "state")
        == DTD_GOLDEN.read_text()
    )


def test_figure3_paths_with_exact_support():
    assert figure3_lines() == PATHS_GOLDEN.read_text().splitlines()


@pytest.mark.parametrize(
    "extend_zero_support, explored, counted",
    [(False, 189, 43), (True, 1_871, 68)],
    ids=["frequent-prefixes", "zero-support-enumeration"],
)
def test_section42_miner_accounting(
    kb, converter, corpus, extend_zero_support, explored, counted
):
    documents = [extract_paths(converter.convert(doc.html).root) for doc in corpus]
    mined = mine_frequent_paths(
        documents,
        sup_threshold=SUP_THRESHOLD,
        constraints=paper_constraints(kb),
        candidate_labels=kb.concept_tags(),
        extend_zero_support=extend_zero_support,
    )
    assert mined.nodes_explored == explored
    assert mined.nodes_counted == counted
    assert len(mined.paths) == 24


def _bless() -> None:  # pragma: no cover - maintenance entry point
    kb = build_resume_knowledge_base()
    converter = DocumentConverter(kb)
    corpus = ResumeCorpusGenerator(seed=SEED).generate(DOCS)
    PAPER_DIR.mkdir(parents=True, exist_ok=True)
    ACCURACY_GOLDEN.write_text(
        json.dumps(accuracy_record(converter, corpus), indent=1) + "\n"
    )
    DTD_GOLDEN.write_text(serial_dtd(kb, converter, corpus))
    PATHS_GOLDEN.write_text("\n".join(figure3_lines()) + "\n")
    with tempfile.TemporaryDirectory() as scratch:
        ways = {
            "engine, 1 worker": engine_dtd(kb, corpus, workers=1),
            "engine, 2 workers": engine_dtd(kb, corpus, workers=2),
            "two folds": evolved_dtd(kb, converter, corpus, Path(scratch)),
        }
    for way, text in ways.items():
        if text != DTD_GOLDEN.read_text():
            print(f"warning: the DTD from {way} differs from the serial one")
    print(f"blessed {ACCURACY_GOLDEN.name}, {DTD_GOLDEN.name}, {PATHS_GOLDEN.name}")


if __name__ == "__main__":  # pragma: no cover
    if "--bless" in sys.argv:
        _bless()
    else:
        print(__doc__)
