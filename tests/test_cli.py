"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import load_metrics
from repro.runtime.pool import CHUNK_SIZE
from tests.obscheck.__main__ import main as obscheck_main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gen_corpus_defaults(self):
        args = build_parser().parse_args(["gen-corpus"])
        assert args.count == 50
        assert args.seed == 1966

    def test_discover_thresholds(self):
        args = build_parser().parse_args(["discover", "a.xml", "--sup", "0.7"])
        assert args.sup == 0.7
        assert args.files == ["a.xml"]

    def test_convert_corpus_defaults(self):
        args = build_parser().parse_args(["convert-corpus", "--generate", "10"])
        assert args.generate == 10
        assert args.max_workers == 0
        assert args.chunk_size == 0  # 0 = adaptive sizing
        assert not args.discover


THRESHOLD_OPTIONS = [
    (["convert-corpus", "--generate", "2"], "--sup"),
    (["convert-corpus", "--generate", "2"], "--ratio"),
    (["discover", "a.xml"], "--sup"),
    (["discover", "a.xml"], "--ratio"),
    (["integrate", "a.xml"], "--sup"),
    (["integrate", "a.xml"], "--ratio"),
    (["integrate", "a.xml"], "--optional"),
    (["evolve", "init", "state"], "--sup"),
    (["evolve", "init", "state"], "--ratio"),
    (["evolve", "init", "state"], "--optional"),
]


class TestThresholdOptions:
    @pytest.mark.parametrize("command,option", THRESHOLD_OPTIONS)
    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_outside_unit_interval_rejected(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, f"{option}={value}"])
        assert exit_info.value.code == 2
        assert f"argument {option}: {value} is not within [0, 1]" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command,option", THRESHOLD_OPTIONS)
    def test_unit_interval_bounds_accepted(self, command, option):
        for value in ("0", "1"):
            args = build_parser().parse_args([*command, option, value])
            assert getattr(args, option[2:]) == float(value)


class TestRemovedCommands:
    """The ledger's regression detector and the artifact checker are not
    part of the CLI: ``runs`` only lists, and the checks run as
    ``python -m tests.obscheck``."""

    @pytest.mark.parametrize("argv", [
        ["validate-obs", "--runlog", "runs.jsonl"],
        ["runs", "runs.jsonl", "--check"],
        ["runs", "runs.jsonl", "--threshold", "0.35"],
    ])
    def test_unknown(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


COUNT_OPTIONS = [
    (["convert-corpus", "--generate", "2"], "--max-workers"),
    (["convert-corpus", "--generate", "2"], "--chunk-size"),
    (["evolve", "fold", "state"], "--max-workers"),
    (["evolve", "fold", "state"], "--chunk-size"),
    (["evolve", "migrate", "state", "--repository", "repo"], "--max-workers"),
    (["serve"], "--max-workers"),
]


class TestCountOptions:
    @pytest.mark.parametrize("command,option", COUNT_OPTIONS)
    @pytest.mark.parametrize("value", ["-1", "-3"])
    def test_negative_rejected(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, f"{option}={value}"])
        assert exit_info.value.code == 2
        assert f"argument {option}: {value} is negative" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command,option", COUNT_OPTIONS)
    def test_zero_and_positive_accepted(self, command, option):
        for value in ("0", "3"):
            args = build_parser().parse_args([*command, option, value])
            assert getattr(args, option[2:].replace("-", "_")) == int(value)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_row_limit_below_one_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["runs", "runs.jsonl", f"--limit={value}"])
        assert exit_info.value.code == 2
        assert f"argument --limit: {value} is less than 1" in (
            capsys.readouterr().err
        )

    def test_row_limit_accepted(self):
        args = build_parser().parse_args(["runs", "runs.jsonl", "--limit", "1"])
        assert args.limit == 1


def write_two_rooted_corpus(directory):
    """Two XML documents with different roots: at ``--sup 0.6`` neither
    root is frequent, so no path clears the thresholds."""
    files = []
    for name, root in (("a", "RESUME"), ("b", "CATALOG")):
        path = directory / f"{name}.xml"
        path.write_text(f"<{root}><NAME/></{root}>")
        files.append(str(path))
    return files


class TestNoSchemaDerivable:
    def test_discover_reports_and_fails(self, tmp_path, capsys):
        files = write_two_rooted_corpus(tmp_path)
        assert main(["discover", *files, "--sup", "0.6"]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == "no schema derivable"
        assert "<!ELEMENT" not in captured.out

    def test_integrate_reports_and_fails(self, tmp_path, capsys):
        files = write_two_rooted_corpus(tmp_path)
        store = tmp_path / "store"
        assert main(["integrate", *files, "--sup", "0.6",
                     "--out", str(store)]) == 1
        assert capsys.readouterr().err.strip() == "no schema derivable"
        assert not store.exists()

    def test_convert_corpus_prints_it_in_place_of_the_dtd(self, tmp_path, capsys):
        """Every converted resume is rooted at RESUME, so some path always
        clears a threshold within [0, 1]; what remains is a corpus whose
        every document failed."""
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "2", "--out", str(corpus)])
        files = sorted(corpus.glob("*.html"))
        for path in files:
            path.write_text(path.read_text() + "<!-- POISON -->")
        assert main(["convert-corpus", *map(str, files), "--discover",
                     "--quiet", "--max-workers", "1", "--on-error", "skip",
                     "--chaos-fail-marker", "POISON"]) == 0
        out = capsys.readouterr().out
        assert "Failed documents (2)" in out
        assert out.rstrip().endswith("no schema derivable")
        assert "<!ELEMENT" not in out


class TestCommands:
    def test_gen_corpus_writes_files(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["gen-corpus", "--count", "3", "--out", str(out)]) == 0
        files = sorted(out.glob("*.html"))
        assert len(files) == 3
        assert "<html>" in files[0].read_text()

    def test_html2xml_converts(self, tmp_path):
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "2", "--out", str(corpus)])
        xml_out = tmp_path / "xml"
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        assert main(["html2xml", *files, "--out", str(xml_out)]) == 0
        xml_files = sorted(xml_out.glob("*.xml"))
        assert len(xml_files) == 2
        assert "<RESUME" in xml_files[0].read_text()

    def test_convert_corpus_without_input_fails(self, capsys):
        assert main(["convert-corpus"]) == 2

    def test_convert_corpus_generated(self, tmp_path, capsys):
        out = tmp_path / "xml"
        assert (
            main(
                ["convert-corpus", "--generate", "6", "--out", str(out),
                 "--max-workers", "2", "--chunk-size", "3", "--discover"]
            )
            == 0
        )
        assert len(sorted(out.glob("*.xml"))) == 6
        printed = capsys.readouterr().out
        assert "docs/sec" in printed
        assert "instance" in printed  # per-rule timing table
        assert "<!ELEMENT resume" in printed

    def test_convert_corpus_matches_html2xml(self, tmp_path, capsys):
        """The engine subcommand writes the same XML as the serial one."""
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "4", "--out", str(corpus)])
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        serial_out, engine_out = tmp_path / "serial", tmp_path / "engine"
        main(["html2xml", *files, "--out", str(serial_out)])
        assert main(
            ["convert-corpus", *files, "--out", str(engine_out),
             "--max-workers", "2", "--chunk-size", "2"]
        ) == 0
        serial_files = sorted(serial_out.glob("*.xml"))
        engine_files = sorted(engine_out.glob("*.xml"))
        assert [p.name for p in serial_files] == [p.name for p in engine_files]
        for serial_file, engine_file in zip(serial_files, engine_files):
            assert serial_file.read_text() == engine_file.read_text()

    def test_discover_pipeline(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "8", "--out", str(corpus)])
        xml_out = tmp_path / "xml"
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        main(["html2xml", *files, "--out", str(xml_out)])
        capsys.readouterr()
        xml_files = [str(p) for p in sorted(xml_out.glob("*.xml"))]
        assert main(["discover", *xml_files, "--sup", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "<!ELEMENT resume" in out
        assert "RESUME" in out

    def test_discover_empty_input_fails(self, tmp_path):
        empty = tmp_path / "empty.xml"
        empty.write_text("")
        assert main(["discover", str(empty)]) == 1

    def test_evaluate_prints_paper_table(self, capsys):
        assert main(["evaluate", "--docs", "10"]) == 0
        out = capsys.readouterr().out
        assert "accuracy %" in out
        assert "90.8" in out  # the paper column

    def test_discover_with_patterns_flag(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "6", "--out", str(corpus)])
        xml_out = tmp_path / "xml"
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        main(["html2xml", *files, "--out", str(xml_out)])
        capsys.readouterr()
        xml_files = [str(p) for p in sorted(xml_out.glob("*.xml"))]
        assert main(["discover", *xml_files, "--patterns"]) == 0
        assert "<!ELEMENT resume" in capsys.readouterr().out

    def test_integrate_and_inspect(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "8", "--out", str(corpus)])
        xml_out = tmp_path / "xml"
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        main(["html2xml", *files, "--out", str(xml_out)])
        xml_files = [str(p) for p in sorted(xml_out.glob("*.xml"))]
        store = tmp_path / "store"
        assert main(["integrate", *xml_files, "--out", str(store)]) == 0
        assert (store / "manifest.json").exists()
        capsys.readouterr()
        assert main(["inspect", str(store), "--query", "RESUME//DEGREE"]) == 0
        out = capsys.readouterr().out
        assert "8 documents" in out
        assert "<!ELEMENT resume" in out

    def test_convert_corpus_prints_quantile_tables(self, capsys):
        assert main(["convert-corpus", "--generate", "5", "--quiet",
                     "--max-workers", "1", "--chunk-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "Per-stage latency quantiles" in out
        assert "p95 ms" in out
        assert "Slowest documents" in out

    def test_run_intelligence_artifacts_round_trip(self, tmp_path, capsys):
        """convert-corpus writes a Chrome trace and a ledger record,
        both of which the obscheck entry point accepts and report/runs
        render."""
        chrome = tmp_path / "trace-chrome.json"
        ledger = tmp_path / "runs.jsonl"
        assert main(
            ["convert-corpus", "--generate", "6", "--max-workers", "2",
             "--chunk-size", "3", "--quiet",
             "--trace-chrome", str(chrome), "--runlog", str(ledger)]
        ) == 0
        assert obscheck_main(
            ["--chrome", str(chrome), "--runlog", str(ledger)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "Run report" in out
        assert "Per-stage latency quantiles" in out
        assert main(["runs", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "Run ledger (1 records" in out

    def test_report_renders_each_record_by_kind(self, tmp_path, capsys):
        """A fold appends a ``kind: "evolution"`` record to the ledger
        convert-corpus writes: report renders it with the fold's own
        fields, not as an empty run report, and runs names each kind."""
        ledger = tmp_path / "runs.jsonl"
        state = tmp_path / "state"
        assert main(["convert-corpus", "--generate", "4", "--quiet",
                     "--max-workers", "1", "--runlog", str(ledger)]) == 0
        main(["evolve", "init", str(state)])
        assert main(["evolve", "fold", str(state), "--generate", "6",
                     "--seed", "5", "--max-workers", "1",
                     "--repository", str(tmp_path / "repo"),
                     "--runlog", str(ledger)]) == 0
        run_id, fold_id = (
            json.loads(line)["run_id"]
            for line in ledger.read_text().splitlines()
        )
        capsys.readouterr()
        assert main(["report", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "Evolution report" in out and "Run report" not in out
        rows = dict(
            line.rsplit(None, 1) for line in out.splitlines()
            if line.startswith(("documents folded", "total documents",
                                "schema version", "bumped",
                                "repository version"))
        )
        assert {key.strip(): value for key, value in rows.items()} == {
            "documents folded": "6", "total documents": "6",
            "schema version": "1", "bumped": "True", "repository version": "1",
        }
        assert main(["report", str(ledger), "--run", run_id]) == 0
        out = capsys.readouterr().out
        assert "Run report" in out and "Evolution report" not in out
        assert main(["runs", str(ledger)]) == 0
        kinds = {
            line.split()[0]: line.split()[1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("run-")
        }
        assert kinds == {run_id: "run", fold_id: "evolution"}

    def test_report_missing_run_fails(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text("")
        assert main(["report", str(ledger)]) == 1

    def test_runs_without_ledger_or_bench_fails(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["runs"])
        assert exit_info.value.code == 2
        assert "required: ledger" in capsys.readouterr().err

    def test_runs_limit_shows_most_recent_rows(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text("".join(
            json.dumps({"run_id": run_id, "docs_per_second": 100.0}) + "\n"
            for run_id in ("run-first", "run-second", "run-latest")
        ))
        assert main(["runs", str(ledger), "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "Run ledger (3 records" in out
        assert "run-latest" in out
        assert "run-first" not in out and "run-second" not in out

    def test_crawl_reports_metrics(self, capsys, tmp_path):
        out_dir = tmp_path / "crawled"
        assert (
            main(
                [
                    "crawl",
                    "--resumes", "5",
                    "--noise", "15",
                    "--out", str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "precision" in out
        assert len(list(out_dir.glob("*.xml"))) == 5


class TestEvolve:
    def test_parser_nested_subcommands(self):
        args = build_parser().parse_args(
            ["evolve", "fold", "state", "--generate", "5",
             "--style", "table", "--repository", "repo"]
        )
        assert args.evolve_command == "fold"
        assert args.state == "state"
        assert args.generate == 5
        assert args.style == ["table"]
        assert args.repository == "repo"

    def test_init_then_status(self, tmp_path, capsys):
        state = tmp_path / "state"
        assert main(["evolve", "init", str(state), "--sup", "0.5"]) == 0
        assert main(["evolve", "init", str(state)]) == 1  # already there
        assert main(["evolve", "status", str(state)]) == 0
        out = capsys.readouterr().out
        assert "schema version" in out
        assert "sup=0.5" in out

    def test_fold_chunk_size_zero_means_default(self, tmp_path):
        """``--chunk-size 0`` folds in chunks of CHUNK_SIZE, as it does
        on convert-corpus, not one document per chunk."""
        state = tmp_path / "state"
        metrics = tmp_path / "m.json"
        main(["evolve", "init", str(state)])
        assert main(
            ["evolve", "fold", str(state), "--generate", "20",
             "--max-workers", "1", "--chunk-size", "0",
             "--metrics-out", str(metrics)]
        ) == 0
        registry = load_metrics(metrics)
        assert registry.value("repro_engine_chunks_total") == 2
        assert registry.value("repro_engine_chunk_size") == CHUNK_SIZE

    def test_fold_requires_init(self, tmp_path, capsys):
        assert main(
            ["evolve", "fold", str(tmp_path / "none"), "--generate", "2"]
        ) == 1

    def test_fold_without_input_fails(self, tmp_path):
        state = tmp_path / "state"
        main(["evolve", "init", str(state)])
        assert main(["evolve", "fold", str(state)]) == 2

    def test_unknown_style_rejected(self, tmp_path):
        state = tmp_path / "state"
        main(["evolve", "init", str(state)])
        with pytest.raises(SystemExit):
            main(["evolve", "fold", str(state), "--generate", "2",
                  "--style", "no-such-style"])

    def test_fold_publish_rollback_cycle(self, tmp_path, capsys):
        state = tmp_path / "state"
        repo = tmp_path / "repo"
        ledger = tmp_path / "runs.jsonl"
        main(["evolve", "init", str(state)])
        assert main(
            ["evolve", "fold", str(state), "--generate", "6",
             "--seed", "5", "--max-workers", "1",
             "--repository", str(repo), "--runlog", str(ledger)]
        ) == 0
        out = capsys.readouterr().out
        assert "version bumped to 1" in out
        assert "published repository version v0001" in out
        # Refolding the same corpus: no bump, but a new repository
        # version is still published with the extra documents.
        assert main(
            ["evolve", "fold", str(state), "--generate", "6",
             "--seed", "5", "--max-workers", "1",
             "--repository", str(repo)]
        ) == 0
        out = capsys.readouterr().out
        assert "version unchanged at 1" in out
        assert main(["evolve", "rollback", "--repository", str(repo)]) == 0
        assert "v0001" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in ledger.read_text().splitlines() if line
        ]
        assert records[0]["kind"] == "evolution"
        assert records[0]["schema_version"] == 1
        assert records[0]["bumped"] is True

    def test_rollback_without_history_fails(self, tmp_path, capsys):
        assert main(
            ["evolve", "rollback", "--repository", str(tmp_path / "repo")]
        ) == 1

    def test_migrate_noop_when_current(self, tmp_path, capsys):
        state = tmp_path / "state"
        repo = tmp_path / "repo"
        main(["evolve", "init", str(state)])
        main(["evolve", "fold", str(state), "--generate", "4",
              "--max-workers", "1", "--repository", str(repo)])
        capsys.readouterr()
        assert main(
            ["evolve", "migrate", str(state), "--repository", str(repo),
             "--max-workers", "1"]
        ) == 0
        assert "nothing to migrate" in capsys.readouterr().out

    def test_gen_corpus_single_style(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(
            ["gen-corpus", "--count", "3", "--out", str(out),
             "--style", "table"]
        ) == 0
        for page in out.glob("*.html"):
            assert "<table" in page.read_text().lower()
