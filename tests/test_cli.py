"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.obs import load_metrics
from repro.runtime.pool import CHUNK_SIZE
from tests.obscheck.__main__ import main as obscheck_main


RUN_TABLES = (
    "Corpus engine run",
    "Per-rule time (summed over workers)",
    "Per-stage latency quantiles",
    "Chunk duration quantiles",
    "Slowest documents (top 10)",
)


def run_tables(out: str) -> dict[str, list[str]]:
    """Each run table in ``out``, title line through its last row,
    keyed by its title."""
    lines = out.splitlines()
    tables = {}
    for title in RUN_TABLES:
        if title in lines:
            start = lines.index(title)
            end = next((i for i in range(start, len(lines)) if not lines[i]), len(lines))
            tables[title] = lines[start:end]
    return tables


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
        assert args.chunk_size == 0  # 0 = CHUNK_SIZE
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
    ``python -m tests.obscheck``.  ``report`` renders saved metrics, so
    there is no ``stats``.  ``serve`` has no tuning options: it batches
    by the engine's chunk size, and its queue, linger and drain bounds
    are constants."""

    @pytest.mark.parametrize("argv", [
        ["validate-obs", "--runlog", "runs.jsonl"],
        ["runs", "runs.jsonl", "--check"],
        ["runs", "runs.jsonl", "--threshold", "0.35"],
        ["serve", "--max-batch", "4"],
        ["serve", "--batch-wait", "0.01"],
        ["serve", "--max-queue", "64"],
        ["serve", "--drain-timeout", "5"],
        ["stats", "m.json"],
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

    @pytest.mark.parametrize("command,option,value,reason", [
        (["gen-corpus"], "--count", "-3", "is negative"),
        (["convert-corpus"], "--generate", "-2", "is negative"),
        (["evolve", "fold", "state"], "--generate", "-1", "is negative"),
        (["crawl"], "--resumes", "-1", "is negative"),
        (["crawl"], "--noise", "-1", "is negative"),
        (["evaluate"], "--docs", "0", "is less than 1"),
    ])
    def test_out_of_range_document_counts_rejected(
        self, capsys, tmp_path, monkeypatch, command, option, value, reason
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*command, f"{option}={value}"])
        assert exit_info.value.code == 2
        assert f"argument {option}: {value} {reason}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# What one minimal argv per subcommand parses to (``func`` by name).
# Each option's name and default are pinned here, so defining an option
# once for several subcommands cannot change what any of them parses.
PARSED_DEFAULTS = [
    (["gen-corpus"], {
        "command": "gen-corpus", "count": 50, "seed": 1966, "out": "corpus",
        "style": None, "func": "_cmd_gen_corpus",
    }),
    (["convert-corpus"], {
        "command": "convert-corpus", "files": [], "generate": 0, "seed": 1966,
        "style": None, "out": "", "max_workers": 0, "chunk_size": 0,
        "discover": False, "sup": 0.4, "ratio": 0.0, "trace_out": "",
        "trace_chrome": "", "runlog": "", "progress": False, "quiet": False,
        "metrics_out": None, "on_error": "fail-fast",
        "quarantine_dir": "quarantine", "chaos_fail_marker": "",
        "chaos_kill_marker": "", "func": "_cmd_convert_corpus",
    }),
    (["discover", "a.xml"], {
        "command": "discover", "files": ["a.xml"], "sup": 0.4, "ratio": 0.0,
        "patterns": False, "func": "_cmd_discover",
    }),
    (["integrate", "a.xml"], {
        "command": "integrate", "files": ["a.xml"], "sup": 0.4, "ratio": 0.0,
        "optional": 0.9, "out": "repository", "func": "_cmd_integrate",
    }),
    (["inspect", "store"], {
        "command": "inspect", "store": "store", "query": "",
        "func": "_cmd_inspect",
    }),
    (["report", "runs.jsonl"], {
        "command": "report", "ledger": "runs.jsonl", "run": "",
        "func": "_cmd_report",
    }),
    (["runs", "runs.jsonl"], {
        "command": "runs", "ledger": "runs.jsonl", "limit": 20,
        "func": "_cmd_runs",
    }),
    (["evaluate"], {
        "command": "evaluate", "docs": 50, "seed": 1966, "func": "_cmd_evaluate",
    }),
    (["evolve", "init", "state"], {
        "command": "evolve", "evolve_command": "init", "state": "state",
        "sup": 0.4, "ratio": 0.0, "optional": None, "func": "_cmd_evolve_init",
    }),
    (["evolve", "status", "state"], {
        "command": "evolve", "evolve_command": "status", "state": "state",
        "func": "_cmd_evolve_status",
    }),
    (["evolve", "fold", "state"], {
        "command": "evolve", "evolve_command": "fold", "state": "state",
        "files": [], "generate": 0, "seed": 1966, "style": None,
        "max_workers": 0, "chunk_size": 0, "repository": "", "runlog": "",
        "metrics_out": None, "func": "_cmd_evolve_fold",
    }),
    (["evolve", "migrate", "state", "--repository", "repo"], {
        "command": "evolve", "evolve_command": "migrate", "state": "state",
        "repository": "repo", "max_workers": 0, "func": "_cmd_evolve_migrate",
    }),
    (["evolve", "rollback", "--repository", "repo"], {
        "command": "evolve", "evolve_command": "rollback", "repository": "repo",
        "func": "_cmd_evolve_rollback",
    }),
    (["crawl"], {
        "command": "crawl", "resumes": 30, "noise": 100, "seed": 7, "out": "",
        "func": "_cmd_crawl",
    }),
    (["serve"], {
        "command": "serve", "host": "127.0.0.1", "port": 8080,
        "state_dir": "service-state", "max_workers": 0, "publish": False,
        "func": "_cmd_serve",
    }),
]


class TestParsedOptions:
    @pytest.mark.parametrize(
        "argv,expected", PARSED_DEFAULTS,
        ids=[" ".join(argv[:2]) for argv, _ in PARSED_DEFAULTS],
    )
    def test_minimal_argv_parses_to_pinned_defaults(self, argv, expected):
        parsed = vars(build_parser().parse_args(argv))
        parsed["func"] = parsed["func"].__name__
        assert parsed == expected

    def test_every_subcommand_is_pinned(self):
        def commands(parser):
            (action,) = [
                action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)
            ]
            return action.choices

        listed = set()
        for name, child in commands(build_parser()).items():
            if name == "evolve":
                listed |= {(name, step) for step in commands(child)}
            else:
                listed.add((name, None))
        assert listed == {
            (expected["command"], expected.get("evolve_command"))
            for _, expected in PARSED_DEFAULTS
        }

    @pytest.mark.parametrize("command", [
        ["convert-corpus"], ["evolve", "fold", "state"],
    ])
    def test_shared_engine_run_options_parse_alike(self, command):
        args = build_parser().parse_args(
            [*command, "--generate", "3", "--seed", "5", "--style", "table",
             "--chunk-size", "2", "--metrics-out", "m.json",
             "--runlog", "runs.jsonl"]
        )
        assert (args.generate, args.seed, args.style, args.chunk_size,
                args.metrics_out, args.runlog) == (
            3, 5, ["table"], 2, ["m.json"], "runs.jsonl"
        )


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

    def test_convert_corpus_one_worker_converts(self, tmp_path):
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "2", "--out", str(corpus)])
        xml_out = tmp_path / "xml"
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        assert main(["convert-corpus", *files, "--out", str(xml_out),
                     "--max-workers", "1", "--quiet"]) == 0
        xml_files = sorted(xml_out.glob("*.xml"))
        assert [p.name for p in xml_files] == ["resume0000.xml", "resume0001.xml"]
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

    def test_convert_corpus_one_and_two_workers_write_same_files(
        self, tmp_path, capsys
    ):
        """The serial in-process run and a two-worker run write
        byte-identical files under the same names."""
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "4", "--out", str(corpus)])
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        written = {}
        for workers in ("1", "2"):
            out = tmp_path / f"xml-{workers}"
            assert main(
                ["convert-corpus", *files, "--out", str(out), "--quiet",
                 "--max-workers", workers, "--chunk-size", "2"]
            ) == 0
            written[workers] = {
                path.name: path.read_bytes() for path in out.glob("*.xml")
            }
        assert len(written["1"]) == 4
        assert written["1"] == written["2"]

    def test_discover_pipeline(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "8", "--out", str(corpus)])
        xml_out = tmp_path / "xml"
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        main(["convert-corpus", *files, "--out", str(xml_out),
              "--max-workers", "1", "--quiet"])
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
        main(["convert-corpus", *files, "--out", str(xml_out),
              "--max-workers", "1", "--quiet"])
        capsys.readouterr()
        xml_files = [str(p) for p in sorted(xml_out.glob("*.xml"))]
        assert main(["discover", *xml_files, "--patterns"]) == 0
        assert "<!ELEMENT resume" in capsys.readouterr().out

    def test_integrate_and_inspect(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "8", "--out", str(corpus)])
        xml_out = tmp_path / "xml"
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        main(["convert-corpus", *files, "--out", str(xml_out),
              "--max-workers", "1", "--quiet"])
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

    def test_one_renderer_for_live_ledger_and_snapshot(self, tmp_path, capsys):
        """A run's tables print the same from the live run, from its
        ledger record and from its --metrics-out snapshot: all three
        render one registry through one function."""
        ledger, snapshot = tmp_path / "runs.jsonl", tmp_path / "m.json"
        assert main(["convert-corpus", "--generate", "12", "--quiet",
                     "--max-workers", "2", "--chunk-size", "4",
                     "--runlog", str(ledger), "--metrics-out", str(snapshot)]) == 0
        live = run_tables(capsys.readouterr().out)
        assert main(["report", str(ledger)]) == 0
        from_ledger = run_tables(capsys.readouterr().out)
        assert main(["report", str(snapshot)]) == 0
        from_snapshot = run_tables(capsys.readouterr().out)
        assert set(live) == set(RUN_TABLES)
        assert live == from_ledger
        # A snapshot holds the registry alone: no slowest documents.
        del live["Slowest documents (top 10)"]
        assert live == from_snapshot

    def test_version_one_run_record_refused(self, tmp_path, capsys):
        """A version-1 run record copied fields out of the registry and
        does not hold it: report refuses it, runs lists it blank."""
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text(json.dumps({
            "kind": "run", "version": 1, "run_id": "run-old",
            "time_iso": "2026-01-01T00:00:00Z", "workers": 2,
            "documents": 30, "documents_failed": 0, "docs_per_second": 120.0,
        }) + "\n")
        assert main(["report", str(ledger)]) == 1
        err = capsys.readouterr().err
        assert "version-1 record" in err and "--runlog" in err
        assert main(["runs", str(ledger)]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("run-old"))
        assert row.split() == ["run-old", "run", "2026-01-01T00:00:00Z"]

    def test_corrupted_embedded_registry_is_one_message(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        assert main(["convert-corpus", "--generate", "2", "--quiet",
                     "--max-workers", "1", "--runlog", str(ledger)]) == 0
        record = json.loads(ledger.read_text())
        counter = next(e for e in record["metrics"]["metrics"] if e["kind"] == "counter")
        counter["value"] = "abc"
        ledger.write_text(json.dumps(record) + "\n")
        capsys.readouterr()
        for command in ("report", "runs"):
            assert main([command, str(ledger)]) == 2
            err = capsys.readouterr().err
            assert "non-numeric value 'abc'" in err and err.count("\n") == 1

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

    def test_cut_short_ledger_names_its_skipped_lines(self, tmp_path, capsys):
        """A ledger whose last append was cut short: report does not pass
        the run before it off as the latest (exit 1), --run still reads
        an intact record, and both commands name the skipped line."""
        ledger = tmp_path / "runs.jsonl"
        assert main(["convert-corpus", "--generate", "2", "--quiet",
                     "--max-workers", "1", "--runlog", str(ledger)]) == 0
        run_id = json.loads(ledger.read_text())["run_id"]
        with ledger.open("a") as handle:
            handle.write('{"kind": "run", "run_id": "run-cut", "metr')
        capsys.readouterr()
        assert main(["report", str(ledger)]) == 1
        err = capsys.readouterr().err
        assert "skipped unparseable line(s) 2" in err and "--run" in err
        assert main(["report", str(ledger), "--run", run_id]) == 0
        assert "skipped unparseable line(s) 2" in capsys.readouterr().err
        assert main(["runs", str(ledger)]) == 0
        assert "skipped unparseable line(s) 2" in capsys.readouterr().err

    def test_report_snapshot_refuses_run(self, tmp_path, capsys):
        snapshot = tmp_path / "m.json"
        assert main(["convert-corpus", "--generate", "2", "--quiet",
                     "--max-workers", "1", "--metrics-out", str(snapshot)]) == 0
        capsys.readouterr()
        assert main(["report", str(snapshot), "--run", "run-x"]) == 1
        err = capsys.readouterr().err
        assert "--run" in err and err.count("\n") == 1

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
