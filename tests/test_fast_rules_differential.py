"""Differential tests: the one-pass conversion rules against their
oracle, byte for byte.

Same guarantee discipline as the parser, tidy and tagger harnesses:
over the golden corpus, one generated resume per authoring style, a
generated resume corpus, portal pages and noisy markup, the four rules
the pipeline runs and the node-at-a-time rules swapped in from
``tests/oracles/rules.py`` must produce

* byte-identical serialized XML, document for document;
* the same four counters (``tokens_created``, ``groups_created``,
  ``nodes_eliminated`` and the ``InstanceRuleStats``);
* the same provenance events, apart from their ``seconds``; and
* through the engine at 1 and 2 workers, the same XML and rendered DTD.

Every oracle run asserts the swap served four rule calls per document,
also from forked engine workers.  The tree-level equivalence lives in
test_rules_properties.py.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.convert.pipeline import DocumentConverter
from repro.corpus.generator import ResumeCorpusGenerator
from repro.corpus.noise import NoiseConfig
from repro.corpus.styles import STYLES
from repro.obs.provenance import ProvenanceLog
from repro.runtime.engine import CorpusEngine, EngineConfig
from tests.oracles import swapped
from tests.oracles.convert import main as oracle_main

GOLDEN_DIR = Path(__file__).parent / "golden"
WORKER_COUNTS = [1, 2]
RULES_PER_DOCUMENT = 4


def portal_page(rng: random.Random, body: str) -> str:
    """A resume body inside table-layout portal chrome: navigation
    tables, script and style blocks, unquoted attributes."""
    nav = "".join(
        f"<tr><td class=nav><a href=/s{row}>Section {row}</a></td>"
        f"<td><b>News</b> item {rng.randint(1, 99)}, updated {row}:30</td></tr>"
        for row in range(rng.randint(3, 6))
    )
    return (
        "<html><head><title>Portal</title>"
        "<style>td { color: red; }</style><script>var x = 1;</script></head>"
        f"<body><table width=100%>{nav}</table>"
        f"<table><tr><td>{body}</td></tr></table>"
        "<p>Contact: webmaster@example.org; Terms, Privacy</p></body></html>"
    )


def body_of(page: str) -> str:
    lower = page.lower()
    start = page.find(">", lower.find("<body")) + 1
    end = lower.rfind("</body>")
    return page[start:end]


@pytest.fixture(scope="module")
def corpus():
    documents = [path.read_text() for path in sorted(GOLDEN_DIR.glob("*.html"))]
    assert documents, "golden corpus went missing"
    for name in sorted(STYLES):
        documents += ResumeCorpusGenerator(
            seed=24, styles={name: STYLES[name]}
        ).generate_html(2)
    documents += ResumeCorpusGenerator(seed=1966).generate_html(12)
    rng = random.Random(61)
    documents += [
        portal_page(rng, body_of(page))
        for page in ResumeCorpusGenerator(seed=61).generate_html(6)
    ]
    documents += ResumeCorpusGenerator(seed=9, noise=NoiseConfig()).generate_html(6)
    return documents


def convert_all(converter: DocumentConverter, documents: list[str]) -> list[tuple]:
    """Per document: XML, the four counters and the provenance events
    without their timings."""
    out = []
    for index, html in enumerate(documents):
        log = ProvenanceLog()
        result = converter.convert(html, doc_id=f"doc{index:04d}", provenance=log)
        events = [
            {key: value for key, value in event.items() if key != "seconds"}
            for event in log.events
        ]
        out.append(
            (
                result.to_xml(),
                result.tokens_created,
                result.groups_created,
                result.nodes_eliminated,
                result.instance_stats,
                events,
            )
        )
    return out


@pytest.fixture(scope="module")
def oracle_results(kb, corpus):
    with swapped("rules") as calls:
        results = convert_all(DocumentConverter(kb), corpus)
    assert calls["rules"] == RULES_PER_DOCUMENT * len(corpus)
    return results


def engine(kb, workers: int) -> CorpusEngine:
    return CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=workers, chunk_size=5)
    )


@pytest.fixture(scope="module")
def oracle_engine_run(kb, corpus):
    """XML + DTD with the oracle rules, through two forked workers."""
    with swapped("rules") as calls:
        oracle = engine(kb, 2)
        result = oracle.convert_corpus(corpus)
    assert calls["rules"] == RULES_PER_DOCUMENT * len(corpus)
    return result.xml_documents, oracle.discover(result.accumulator).dtd.render()


class TestConverterDifferential:
    def test_xml_counters_and_provenance_identical(
        self, kb, corpus, oracle_results
    ):
        fast = convert_all(DocumentConverter(kb), corpus)
        assert len(fast) == len(oracle_results)
        for index, (mine, theirs) in enumerate(zip(fast, oracle_results)):
            assert mine == theirs, index

    def test_every_style_is_covered(self, corpus):
        # Two per style, plus the golden pages, resumes, portals and noise.
        assert len(corpus) > 2 * len(STYLES)


class TestEngineDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_xml_and_dtd_identical(self, kb, corpus, oracle_engine_run, workers):
        oracle_xml, oracle_dtd = oracle_engine_run
        fast = engine(kb, workers)
        result = fast.convert_corpus(corpus)
        assert result.xml_documents == oracle_xml
        assert fast.discover(result.accumulator).dtd.render() == oracle_dtd

    def test_engine_matches_serial_oracle(self, oracle_results, oracle_engine_run):
        oracle_xml, _ = oracle_engine_run
        assert oracle_xml == [result[0] for result in oracle_results]


def test_every_oracle_at_once(kb, corpus, oracle_results):
    """All four oracles swapped in together still convert identically
    (no hidden coupling between the rules and the other fast paths)."""
    with swapped("parser", "tidy", "tagger", "rules") as calls:
        legacy = convert_all(DocumentConverter(kb), corpus)
    assert calls["rules"] == RULES_PER_DOCUMENT * len(corpus)
    assert calls["parser"] == calls["tidy"] == len(corpus)
    assert [result[0] for result in legacy] == [
        result[0] for result in oracle_results
    ]


class TestOracleCli:
    """``python -m tests.oracles.convert --oracle rules``, the command
    the CI ``oracle-smoke`` job diffs against a production run."""

    def test_served_run_writes_production_bytes(self, tmp_path, capsys):
        common = ["--generate", "3", "--seed", "5", "--max-workers", "1", "--quiet"]
        assert oracle_main(
            ["--oracle", "rules", "--", "convert-corpus", *common,
             "--out", str(tmp_path / "oracle")]
        ) == 0
        assert "oracle rules served 12 call(s)" in capsys.readouterr().err
        assert cli_main(["convert-corpus", *common, "--out", str(tmp_path / "fast")]) == 0
        oracle = sorted((tmp_path / "oracle").glob("*.xml"))
        fast = sorted((tmp_path / "fast").glob("*.xml"))
        assert [p.name for p in oracle] == [p.name for p in fast] != []
        assert [p.read_bytes() for p in oracle] == [p.read_bytes() for p in fast]

    def test_unserved_run_exits_3(self, tmp_path):
        assert oracle_main(
            ["--oracle", "rules", "--", "gen-corpus", "--count", "1",
             "--out", str(tmp_path / "corpus")]
        ) == 3
