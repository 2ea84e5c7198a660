"""Command-line interface.

Subcommands mirror the pipeline stages::

    repro-web gen-corpus   --count 50 --out corpus/          # synthesize HTML
    repro-web convert-corpus corpus/*.html --out xml/ \\
              --max-workers 4 --discover \\
              --trace-out trace.jsonl --metrics-out m.prom   # convert (engine)
    repro-web discover     xml/*.xml --sup 0.4               # schema + DTD
    repro-web report       runs.jsonl                        # render a ledger record
    repro-web report       metrics.json                      # ... or saved metrics
    repro-web runs         runs.jsonl                        # list the ledger
    repro-web evaluate     --docs 50                         # Figure 4 numbers
    repro-web crawl        --resumes 30 --noise 100          # simulated crawl
    repro-web evolve init state/                             # online evolution
    repro-web evolve fold state/ --generate 40 --repository repo/
    repro-web evolve status state/
    repro-web evolve rollback --repository repo/

(Converted XML is re-loaded with the HTML parser, which accepts the XML
subset the converter emits.)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.concepts.resume_kb import build_resume_knowledge_base
from repro.convert.pipeline import DocumentConverter
from repro.dom.serialize import to_xml_document
from repro.evaluation.report import format_histogram, format_table
from repro.htmlparse.parser import parse_fragment
from repro.obs import (
    MetricsRegistry,
    ProgressReporter,
    ProvenanceLog,
    RunLedger,
    Tracer,
    build_run_record,
    config_fingerprint,
    load_metrics,
    write_chrome_trace,
    write_metrics,
    write_trace_jsonl,
)
from repro.obs.export import PROMETHEUS_SUFFIXES
from repro.obs.runlog import RUNLOG_VERSION
from repro.runtime.pool import CHUNK_SIZE
from repro.schema.accumulator import PathAccumulator
from repro.schema.discovery import discover_schema


# Printed in place of the DTD when no path clears the thresholds.
NO_SCHEMA = "no schema derivable"


def _fraction(text: str) -> float:
    """argparse type of the discovery thresholds: a number in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not within [0, 1]")
    return value


def _count(text: str) -> int:
    """argparse type of counts (documents, workers, chunk sizes): an
    integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _limit(text: str) -> int:
    """argparse type of row limits: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is less than 1")
    return value


def _style_weights(styles: list[str] | None) -> dict[str, float] | None:
    """Turn repeated ``--style`` flags into generator style weights.

    Selected styles get weight 1, every other known style gets an
    explicit 0 (the generator defaults unlisted styles to 1, so merely
    listing the chosen ones would not exclude the rest).
    """
    if not styles:
        return None
    from repro.corpus.styles import STYLES

    unknown = sorted(set(styles) - set(STYLES))
    if unknown:
        raise SystemExit(
            f"unknown style(s): {', '.join(unknown)} "
            f"(available: {', '.join(sorted(STYLES))})"
        )
    return {name: (1.0 if name in styles else 0.0) for name in STYLES}


def _generator(args: argparse.Namespace) -> "ResumeCorpusGenerator":
    """The corpus generator that ``--seed`` and ``--style`` select."""
    from repro.corpus.generator import ResumeCorpusGenerator

    return ResumeCorpusGenerator(seed=args.seed, style_weights=_style_weights(args.style))


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for doc in _generator(args).generate(args.count):
        (out / f"resume{doc.doc_id:04d}.html").write_text(doc.html, encoding="utf-8")
    print(f"wrote {args.count} resumes to {out}/")
    return 0


def _engine_config(args: argparse.Namespace, **options) -> "EngineConfig":
    """The engine settings ``convert-corpus`` and ``evolve fold`` share:
    ``--max-workers 0`` means one per CPU, ``--chunk-size 0`` means
    :data:`CHUNK_SIZE`."""
    from repro.runtime.engine import EngineConfig

    return EngineConfig(
        max_workers=args.max_workers or None,
        chunk_size=args.chunk_size or CHUNK_SIZE,
        **options,
    )


def _read_corpus(args: argparse.Namespace, command: str) -> list[str] | None:
    """The HTML sources a converting command runs over: its input files,
    else ``--generate N`` synthesized resumes.  With neither, say so on
    stderr and return ``None`` (the command exits 2)."""
    if args.files:
        return [Path(name).read_text(encoding="utf-8") for name in args.files]
    if args.generate:
        return _generator(args).generate_html(args.generate)
    print(f"{command} needs input files or --generate N", file=sys.stderr)
    return None


def _write_metrics_out(args: argparse.Namespace, registry) -> None:
    """Write ``registry`` to every ``--metrics-out`` target."""
    for target_name in args.metrics_out or []:
        write_metrics(registry, target_name)
        print(f"wrote metrics to {target_name}")


def _cmd_convert_corpus(args: argparse.Namespace) -> int:
    from repro.convert.config import ConversionConfig
    from repro.runtime.engine import CorpusEngine

    sources = _read_corpus(args, "convert-corpus")
    if sources is None:
        return 2
    engine = CorpusEngine(
        build_resume_knowledge_base(),
        ConversionConfig(
            chaos_fail_marker=args.chaos_fail_marker or None,
            chaos_kill_marker=args.chaos_kill_marker or None,
        ),
        engine_config=_engine_config(
            args, error_policy=args.on_error, quarantine_dir=args.quarantine_dir
        ),
    )
    tracing = bool(args.trace_out or args.trace_chrome)
    tracer = Tracer() if tracing else None
    provenance = ProvenanceLog() if tracing else None
    # --progress forces the live line on (CI logs), --quiet forces it
    # off; by default it follows whether stderr is a terminal.
    progress_enabled = True if args.progress else (False if args.quiet else None)
    reporter = ProgressReporter(total=len(sources), enabled=progress_enabled)
    # XML never rides the chunk pickles home: with --out the workers
    # write survivor files directly (named by original corpus position,
    # so failures leave holes, not shifted names); without it nobody
    # needs the serialized documents at all.
    if args.files:
        names = [Path(name).stem for name in args.files]
    else:
        names = [f"doc{position:04d}" for position in range(len(sources))]
    # The finally terminates the in-place progress line even when the
    # run raises (Ctrl-C, fail-fast error): without it, the next stderr
    # write would land mid-line in non-TTY captures.
    try:
        run = engine.run(sources, sup_threshold=args.sup, ratio_threshold=args.ratio,
                         discover=args.discover, tracer=tracer, provenance=provenance,
                         progress=reporter, collect_xml=False,
                         xml_sink=args.out or None, names=names)
        result = run.corpus
        reporter.finish(result.stats)
    finally:
        reporter.finish()
    if tracer is not None and args.trace_out:
        lines = write_trace_jsonl(args.trace_out, tracer, provenance)
        print(f"wrote {lines} trace records to {args.trace_out}")
    if tracer is not None and args.trace_chrome:
        spans = list(tracer.iter_dicts())
        write_chrome_trace(args.trace_chrome, spans)
        print(f"wrote Chrome trace ({len(spans)} spans) to {args.trace_chrome}")
    stats = result.stats
    _write_metrics_out(args, stats.registry)
    if args.runlog:
        record = RunLedger(args.runlog).append(build_run_record(
            stats, corpus_size=len(sources), topic="resume",
            fingerprint=config_fingerprint(engine.config, engine.engine_config),
        ))
        print(f"appended run {record['run_id']} to {args.runlog}")
    if args.out:
        print(f"wrote {stats.documents} XML documents to {Path(args.out)}/")
    if result.failures:
        rows = [
            [failure.doc_id, failure.stage, failure.error_type,
             failure.message[:60]]
            for failure in result.failures
        ]
        print(format_table(["document", "stage", "error", "message"], rows,
                           title=f"Failed documents ({len(rows)})"))
        if args.on_error == "quarantine":
            print(f"quarantined sources + error JSONs in {args.quarantine_dir}/")
        print()
    _print_run(stats)
    if run.discovery is not None:
        print()
        print(run.discovery.schema.describe())
        print()
        print(run.discovery.dtd.render())
    elif args.discover:
        print()
        print(NO_SCHEMA)
    return 0


def _discover_files(args: argparse.Namespace, **options) -> tuple | None:
    """Parse the converted-XML files back into element trees and run
    discovery over them: ``(roots, discovery)``, or ``None`` after
    saying on stderr why there is nothing to report."""
    from repro.mapping.persistence import load_xml_document

    roots = []
    for name in args.files:
        text = Path(name).read_text(encoding="utf-8")
        if parse_fragment(text).element_children():
            roots.append(load_xml_document(text))
    if not roots:
        print("no XML documents parsed", file=sys.stderr)
        return None
    discovery = discover_schema(
        PathAccumulator.from_trees(roots), build_resume_knowledge_base(),
        sup_threshold=args.sup, ratio_threshold=args.ratio, **options,
    )
    if discovery is None:
        print(NO_SCHEMA, file=sys.stderr)
        return None
    return roots, discovery


def _cmd_discover(args: argparse.Namespace) -> int:
    found = _discover_files(args)
    if found is None:
        return 1
    roots, discovery = found
    schema, dtd = discovery.schema, discovery.dtd
    print(schema.describe())
    print()
    if args.patterns:
        from repro.schema.patterns import (
            discover_all_group_patterns,
            render_dtd_with_patterns,
        )

        parents = [
            node.path for node in schema.root.iter_nodes() if node.children
        ]
        patterns = discover_all_group_patterns(roots, parents)
        print(render_dtd_with_patterns(dtd, patterns))
    else:
        print(dtd.render())
    return 0


def _cmd_integrate(args: argparse.Namespace) -> int:
    from repro.mapping.persistence import save_repository
    from repro.mapping.repository import XMLRepository

    found = _discover_files(args, optional_threshold=args.optional)
    if found is None:
        return 1
    roots, discovery = found
    repository = XMLRepository(discovery.dtd)
    for root in roots:
        repository.insert(root)
    target = save_repository(repository, args.out)
    print(
        f"integrated {len(repository)} documents into {target}/ "
        f"({repository.stats.repaired} repaired, "
        f"{repository.stats.total_repair_operations} repair operations)"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.mapping.persistence import load_repository

    repository = load_repository(args.store)
    print(f"repository at {args.store}: {len(repository)} documents")
    stats = repository.stats
    print(
        format_table(
            ["documents", "conforming on arrival", "repaired", "repair ops"],
            [[stats.documents, stats.conforming_on_arrival, stats.repaired,
              stats.total_repair_operations]],
        )
    )
    print()
    print(repository.dtd.render())
    if args.query:
        values = repository.values(args.query)
        print(f"\n{len(values)} values for {args.query!r}:")
        for value in values[:20]:
            print(f"  {value}")
    return 0


def _print_run(stats: "EngineStats") -> None:
    """The one rendering of an engine run's books, live or saved: the
    engine summary, then the per-rule time, per-stage latency,
    chunk-duration and slowest-documents tables, each only when it has
    rows."""
    from repro.runtime.stats import stage_quantile_rows

    print(format_table(["engine", "value"], stats.summary_rows(),
                       title="Corpus engine run"))
    p50, p95 = stats.chunk_seconds_quantile(0.5), stats.chunk_seconds_quantile(0.95)
    slowest = [
        [
            str(entry.get("doc", "?")),
            f"{float(entry.get('seconds', 0.0)) * 1e3:.2f}",
            str(entry.get("label_paths", "")),
            str(entry.get("input_nodes", "")),
        ]
        for entry in stats.slowest_docs
    ]
    tables = [
        (["rule", "seconds", "share"], stats.rule_rows(),
         "Per-rule time (summed over workers)"),
        (["stage", "count", "p50 ms", "p95 ms", "p99 ms"],
         stage_quantile_rows(stats.stage_summaries()),
         "Per-stage latency quantiles"),
        (["p50 s", "p95 s"], [[f"{p50:.3f}", f"{p95:.3f}"]] if p95 > 0 else [],
         "Chunk duration quantiles"),
        (["document", "ms", "label paths", "input nodes"], slowest,
         f"Slowest documents (top {len(slowest)})"),
    ]
    for headers, rows, title in tables:
        if rows:
            print()
            print(format_table(headers, rows, title=title))


def _record_stats(record: dict) -> "EngineStats":
    """The engine books a run record stores: its registry, viewed as
    :class:`EngineStats`, and its slowest documents.  A malformed
    registry is a ``ValueError``."""
    from repro.runtime.stats import EngineStats

    stats = EngineStats.from_registry(MetricsRegistry.from_json(record.get("metrics")))
    stats.slowest_docs = list(record.get("slowest_documents") or [])
    return stats


def _render_evolution_record(record: dict) -> None:
    """Print one ``kind: "evolution"`` ledger record (a schema fold)."""
    summary = [
        ["run id", record.get("run_id", "?")],
        ["time", record.get("time_iso", "?")],
        ["topic", record.get("topic", "")],
        ["documents folded", record.get("documents_folded", "")],
        ["total documents", record.get("total_documents", "")],
        ["schema version", record.get("schema_version", "")],
        ["bumped", record.get("bumped", "")],
        ["paths added", record.get("paths_added", "")],
        ["paths removed", record.get("paths_removed", "")],
        ["repository version", record.get("repository_version") or ""],
    ]
    print(format_table(["fold", "value"], [[k, str(v)] for k, v in summary],
                       title="Evolution report"))
    migration = record.get("migration") or {}
    if migration:
        print()
        print(format_table(
            ["migration", "value"],
            [
                [key.replace("_", " "),
                 f"{value:.2f}" if isinstance(value, float) else str(value)]
                for key, value in migration.items()
            ],
            title="Repository migration",
        ))


def _is_metrics_snapshot(path: Path, text: str) -> bool:
    """Whether ``report`` reads ``path`` as a ``--metrics-out`` file: a
    Prometheus file, or one JSON document that is not a ledger record.
    A ledger of several records (or none) is not one JSON document."""
    if path.suffix in PROMETHEUS_SUFFIXES:
        return True
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        return False
    return not (isinstance(document, dict) and "kind" in document)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.runtime.stats import EngineStats

    path = Path(args.ledger)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    record = None
    try:
        if _is_metrics_snapshot(path, text):
            if args.run:
                print(f"{path}: --run selects a ledger record, and this is "
                      "a metrics snapshot of one run", file=sys.stderr)
                return 1
            stats = EngineStats.from_registry(load_metrics(path))
        else:
            records, tail_skipped = _read_ledger(path)
            if args.run:
                record = RunLedger(path).find(args.run)
            elif tail_skipped:
                print(f"{path}: the last line does not parse, so the latest "
                      "record is unknown; name one with --run", file=sys.stderr)
                return 1
            else:
                record = records[-1] if records else None
            if record is None:
                which = f"run {args.run!r}" if args.run else "record"
                print(f"{path}: no {which} found", file=sys.stderr)
                return 1
            if record.get("kind") == "evolution":
                _render_evolution_record(record)
                return 0
            if record.get("version") != RUNLOG_VERSION:
                print(
                    f"{path}: run {record.get('run_id', '?')} is a version-"
                    f"{record.get('version', '?')} record, which does not hold "
                    "the run's registry; re-run the conversion with --runlog "
                    "to record it again",
                    file=sys.stderr,
                )
                return 1
            stats = _record_stats(record)
    except ValueError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 2
    if record is not None:
        identity = [
            ["run id", record.get("run_id", "?")],
            ["time", record.get("time_iso", "?")],
            ["topic", record.get("topic", "")],
            ["config", record.get("config_fingerprint", "")],
            ["corpus size", record.get("corpus_size", "")],
        ]
        print(format_table(["run", "value"], [[k, str(v)] for k, v in identity],
                           title="Run report"))
        print()
    _print_run(stats)
    return 0


def _read_ledger(path: str | Path) -> tuple[list[dict], bool]:
    """A ledger's records, and whether its last non-blank line was
    skipped.  Each skipped line number is named on stderr."""
    lines = RunLedger(path).lines()
    skipped = [str(number) for number, record in lines if record is None]
    if skipped:
        print(f"{path}: skipped unparseable line(s) {', '.join(skipped)}",
              file=sys.stderr)
    records = [record for _, record in lines if record is not None]
    return records, bool(lines) and lines[-1][1] is None


def _cmd_runs(args: argparse.Namespace) -> int:
    records, _ = _read_ledger(args.ledger)
    if not records:
        print(f"{args.ledger}: no run records", file=sys.stderr)
        return 1
    rows = []
    for record in records[-args.limit:]:
        row = [record.get("run_id", "?"), record.get("kind", ""),
               record.get("time_iso", "?")]
        if record.get("kind") == "evolution":
            # A fold's documents are the ones it folded.
            row += ["", str(record.get("documents_folded", "")), "", ""]
        elif record.get("version") == RUNLOG_VERSION:
            try:
                stats = _record_stats(record)
            except ValueError as exc:
                print(f"{args.ledger}: run {row[0]}: {exc}", file=sys.stderr)
                return 2
            row += [str(stats.workers), str(stats.documents),
                    str(stats.documents_failed), f"{stats.docs_per_second:.1f}"]
        else:
            row += ["", "", "", ""]
        rows.append(row)
    print(format_table(
        ["run id", "kind", "time", "workers", "docs", "failed", "docs/s"],
        rows,
        title=f"Run ledger ({len(records)} records, {args.ledger})",
    ))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.corpus.generator import ResumeCorpusGenerator
    from repro.evaluation.accuracy import evaluate_accuracy

    kb = build_resume_knowledge_base()
    converter = DocumentConverter(kb)
    generator = ResumeCorpusGenerator(seed=args.seed)
    docs = generator.generate(args.docs)
    pairs = [(converter.convert(d.html).root, d.ground_truth) for d in docs]
    report = evaluate_accuracy(pairs)
    print(
        format_table(
            ["metric", "measured", "paper"],
            [
                ["avg errors/document", f"{report.avg_errors_per_document:.1f}", "3.9"],
                [
                    "avg concept nodes/document",
                    f"{report.avg_concept_nodes_per_document:.1f}",
                    "53.7",
                ],
                ["avg error %", f"{report.avg_error_percentage:.1f}", "9.2"],
                ["accuracy %", f"{report.accuracy:.1f}", "90.8"],
            ],
            title="Data extraction accuracy (Figure 4)",
        )
    )
    print()
    print(format_histogram(report.histogram(), title="documents per error band"))
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.corpus.crawler import TopicCrawler
    from repro.corpus.web import SimulatedWeb

    web = SimulatedWeb(
        resume_count=args.resumes, noise_count=args.noise, seed=args.seed
    )
    crawler = TopicCrawler(web)
    report = crawler.crawl()
    print(
        format_table(
            ["visited", "collected", "precision", "recall"],
            [[report.visited, len(report.collected_urls),
              f"{report.precision:.2f}", f"{report.recall:.2f}"]],
            title="Topic crawl over the simulated web",
        )
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        converter = DocumentConverter(build_resume_knowledge_base())
        for resume in report.collected:
            result = converter.convert(resume.html)
            (out / f"crawled{resume.doc_id:04d}.xml").write_text(
                to_xml_document(result.root), encoding="utf-8"
            )
        print(f"converted {len(report.collected)} crawled resumes into {out}/")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ConversionService

    service = ConversionService(
        build_resume_knowledge_base(),
        state_dir=args.state_dir,
        max_workers=args.max_workers or None,
        publish=args.publish,
    )

    def ready(host: str, port: int) -> None:
        # Flushed immediately so supervisors (and the smoke tests) can
        # scrape the bound port even when --port 0 picked an ephemeral one.
        print(f"listening on http://{host}:{port}", flush=True)
        print(
            f"workers={service.workers} "
            f"max_batch={CHUNK_SIZE} state_dir={args.state_dir}",
            flush=True,
        )

    try:
        asyncio.run(service.run(args.host, args.port, ready=ready))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    print("drained cleanly", flush=True)
    return 0


def _cmd_evolve_init(args: argparse.Namespace) -> int:
    from repro.schema.evolution import EvolvingSchema

    evolving = EvolvingSchema(
        args.state,
        build_resume_knowledge_base(),
        sup_threshold=args.sup,
        ratio_threshold=args.ratio,
        optional_threshold=args.optional,
    )
    if evolving.exists():
        print(
            f"{args.state}: evolution state already initialized "
            f"(schema version {evolving.version})",
            file=sys.stderr,
        )
        return 1
    evolving.save_state()
    print(
        f"initialized evolution state in {args.state}/ "
        f"(sup={evolving.sup_threshold}, ratio={evolving.ratio_threshold}, "
        f"optional={evolving.optional_threshold})"
    )
    return 0


def _cmd_evolve_status(args: argparse.Namespace) -> int:
    from repro.schema.evolution import EvolvingSchema

    evolving = EvolvingSchema(args.state, build_resume_knowledge_base())
    if not evolving.exists():
        print(f"{args.state}: no evolution state (run 'evolve init' first)",
              file=sys.stderr)
        return 1
    print(format_table(["evolution", "value"], evolving.status_rows(),
                       title=f"Evolution state ({args.state})"))
    history = evolving.history
    if history:
        print()
        print(format_table(
            ["version", "documents", "delta"],
            [
                [str(entry["version"]), str(entry["documents"]),
                 entry["summary"]]
                for entry in history
            ],
            title="Version history",
        ))
    if evolving.dtd_text:
        print()
        print(evolving.dtd_text)
    return 0


def _print_sync(
    repository: str, version: int, report, schema_version: int
) -> None:
    """Report one ``VersionedRepository.sync``: the migration table when
    documents were migrated, then the published version."""
    if report is not None:
        print(format_table(["migration", "value"], report.rows(),
                           title="Parallel repository migration"))
    print(
        f"published repository version v{version:04d} "
        f"(schema version {schema_version}) in {repository}/"
    )


def _cmd_evolve_fold(args: argparse.Namespace) -> int:
    from repro.mapping.versioned import VersionedRepository
    from repro.runtime.engine import CorpusEngine
    from repro.schema.evolution import EvolvingSchema

    kb = build_resume_knowledge_base()
    evolving_probe = EvolvingSchema(args.state, kb)
    if not evolving_probe.exists():
        print(f"{args.state}: no evolution state (run 'evolve init' first)",
              file=sys.stderr)
        return 1
    sources = _read_corpus(args, "evolve fold")
    if sources is None:
        return 2
    engine = CorpusEngine(kb, engine_config=_engine_config(args))
    # Discovery-only folds never read the XML back, so keep it out of
    # the chunk payloads; only repository syncs need the documents.
    run = engine.run(sources, discover=False, collect_xml=bool(args.repository))
    result = run.corpus
    # Re-open against the engine's registry so fold counters and the
    # schema-version gauge land next to the conversion metrics.
    evolving = EvolvingSchema(args.state, kb, registry=result.stats.registry)
    outcome = evolving.fold(result.accumulator)
    print(outcome.summary())
    repository_version = None
    migration = None
    if args.repository:
        dtd = evolving.dtd
        if dtd is None:
            print("no schema derivable yet; repository left untouched",
                  file=sys.stderr)
        else:
            repository_version, migration = VersionedRepository(
                args.repository
            ).sync(
                dtd, result.xml_documents, schema_version=evolving.version,
                max_workers=args.max_workers or None,
            )
            _print_sync(args.repository, repository_version, migration,
                        evolving.version)
    _write_metrics_out(args, result.stats.registry)
    if args.runlog:
        from repro.obs import build_evolution_record

        ledger = RunLedger(args.runlog)
        record = ledger.append(
            build_evolution_record(
                outcome,
                topic="resume",
                migration=None if migration is None else migration.to_json(),
                repository_version=repository_version,
            )
        )
        print(f"appended evolution record {record['run_id']} to {args.runlog}")
    return 0


def _cmd_evolve_migrate(args: argparse.Namespace) -> int:
    from repro.mapping.versioned import VersionedRepository
    from repro.schema.evolution import EvolvingSchema

    evolving = EvolvingSchema(args.state, build_resume_knowledge_base())
    dtd = evolving.dtd
    if dtd is None:
        print(f"{args.state}: no schema derived yet", file=sys.stderr)
        return 1
    vrepo = VersionedRepository(args.repository)
    if not vrepo.exists():
        print(f"{args.repository}: no versioned repository", file=sys.stderr)
        return 1
    if vrepo.dtd_text() == dtd.render():
        print(
            f"{args.repository}: already at schema version "
            f"{evolving.version}; nothing to migrate"
        )
        return 0
    version, report = vrepo.sync(
        dtd, [], schema_version=evolving.version,
        max_workers=args.max_workers or None,
    )
    _print_sync(args.repository, version, report, evolving.version)
    return 0


def _cmd_evolve_rollback(args: argparse.Namespace) -> int:
    from repro.mapping.versioned import VersionedRepository

    vrepo = VersionedRepository(args.repository)
    try:
        previous = vrepo.rollback()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(
        f"{args.repository}: CURRENT rolled back to v{previous:04d} "
        f"(superseded versions kept on disk; 'evolve fold' or 'evolve "
        f"migrate' publishes forward again)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-web",
        description="HTML-to-XML conversion and majority-schema discovery "
        "(ICDE 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options several subcommands share, each defined once here.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=1966,
                        help="corpus generator seed")
    styled = argparse.ArgumentParser(add_help=False, parents=[seeded])
    styled.add_argument(
        "--style",
        action="append",
        metavar="NAME",
        help="restrict generated resumes to this rendering style "
        "(repeatable; default: all styles uniformly)",
    )
    engine_run = argparse.ArgumentParser(add_help=False, parents=[styled])
    engine_run.add_argument(
        "--generate",
        type=_count,
        default=0,
        metavar="N",
        help="generate N synthetic resumes instead of reading files",
    )
    engine_run.add_argument(
        "--chunk-size",
        type=_count,
        default=0,
        help=f"documents per worker chunk (0 = {CHUNK_SIZE}); the output "
        "does not depend on it",
    )
    engine_run.add_argument(
        "--metrics-out",
        action="append",
        metavar="PATH",
        help="write the run's metrics registry (.prom/.txt for Prometheus "
        "text, anything else for JSON; repeatable)",
    )
    engine_run.add_argument(
        "--runlog",
        default="",
        metavar="PATH",
        help="append the run's record to this JSONL ledger; see "
        "'report'/'runs'",
    )
    thresholds = argparse.ArgumentParser(add_help=False)
    thresholds.add_argument("--sup", type=_fraction, default=0.4)
    thresholds.add_argument("--ratio", type=_fraction, default=0.0)

    gen = sub.add_parser("gen-corpus", parents=[styled],
                         help="generate synthetic resume HTML")
    gen.add_argument("--count", type=_count, default=50)
    gen.add_argument("--out", default="corpus")
    gen.set_defaults(func=_cmd_gen_corpus)

    engine = sub.add_parser(
        "convert-corpus",
        parents=[engine_run, thresholds],
        help="convert a corpus with the parallel streaming engine",
    )
    engine.add_argument("files", nargs="*")
    engine.add_argument("--out", default="", help="directory for converted XML")
    engine.add_argument(
        "--max-workers",
        type=_count,
        default=0,
        help="worker processes (0 = one per CPU, 1 = serial in-process)",
    )
    engine.add_argument(
        "--discover",
        action="store_true",
        help="also mine the majority schema and print the DTD",
    )
    engine.add_argument(
        "--trace-out",
        default="",
        metavar="PATH",
        help="record spans + provenance events and write them as JSONL",
    )
    engine.add_argument(
        "--trace-chrome",
        default="",
        metavar="PATH",
        help="also export the span tree as Chrome trace-event JSON "
        "(open in Perfetto / chrome://tracing; worker spans re-based "
        "onto the parent timeline)",
    )
    engine.add_argument(
        "--progress",
        action="store_true",
        help="force the live progress/ETA line on stderr even off-TTY "
        "(default: auto-enabled only on a terminal)",
    )
    engine.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live progress line even on a terminal",
    )
    engine.add_argument(
        "--on-error",
        choices=["fail-fast", "skip", "quarantine"],
        default="fail-fast",
        help="what to do with documents that fail to convert: abort the "
        "run (default), skip them (failures are counted and reported), "
        "or skip + save source and error JSON to --quarantine-dir; "
        "skip/quarantine also recover crashed worker processes by "
        "rebuilding the pool and bisecting the failed chunk",
    )
    engine.add_argument(
        "--quarantine-dir",
        default="quarantine",
        metavar="DIR",
        help="directory for quarantined documents (--on-error=quarantine)",
    )
    engine.add_argument(
        "--chaos-fail-marker",
        default="",
        metavar="TEXT",
        help="fault injection: documents containing TEXT raise inside "
        "the pipeline (chaos testing; see the chaos-smoke CI job)",
    )
    engine.add_argument(
        "--chaos-kill-marker",
        default="",
        metavar="TEXT",
        help="fault injection: a worker that receives a document "
        "containing TEXT hard-exits, simulating an OOM/segfault kill",
    )
    engine.set_defaults(func=_cmd_convert_corpus)

    disc = sub.add_parser("discover", parents=[thresholds],
                          help="discover majority schema + DTD")
    disc.add_argument("files", nargs="+")
    disc.add_argument(
        "--patterns",
        action="store_true",
        help="render (e1, e2)+ group patterns in the DTD",
    )
    disc.set_defaults(func=_cmd_discover)

    integ = sub.add_parser(
        "integrate", parents=[thresholds],
        help="discover a DTD, conform documents, save a repository",
    )
    integ.add_argument("files", nargs="+")
    integ.add_argument("--optional", type=_fraction, default=0.9)
    integ.add_argument("--out", default="repository")
    integ.set_defaults(func=_cmd_integrate)

    insp = sub.add_parser("inspect", help="inspect a saved repository")
    insp.add_argument("store")
    insp.add_argument("--query", default="", help="slash path to evaluate")
    insp.set_defaults(func=_cmd_inspect)

    report = sub.add_parser(
        "report",
        help="render a run-ledger record or a saved metrics JSON as report tables",
    )
    report.add_argument(
        "ledger",
        help="run-ledger JSONL written by --runlog, or metrics JSON written "
        "by --metrics-out",
    )
    report.add_argument(
        "--run", default="", metavar="RUN_ID",
        help="render this run id (default: the latest record)",
    )
    report.set_defaults(func=_cmd_report)

    runs = sub.add_parser("runs", help="list the run ledger")
    runs.add_argument("ledger", help="run-ledger JSONL written by --runlog")
    runs.add_argument(
        "--limit", type=_limit, default=20,
        help="show at most this many most-recent ledger rows",
    )
    runs.set_defaults(func=_cmd_runs)

    ev = sub.add_parser("evaluate", parents=[seeded],
                        help="run the Figure 4 accuracy experiment")
    ev.add_argument("--docs", type=_limit, default=50)
    ev.set_defaults(func=_cmd_evaluate)

    evolve = sub.add_parser(
        "evolve",
        help="online schema evolution: durable incremental discovery "
        "with a versioned repository",
    )
    evolve_sub = evolve.add_subparsers(dest="evolve_command", required=True)

    einit = evolve_sub.add_parser(
        "init", parents=[thresholds], help="create an evolution state directory"
    )
    einit.add_argument("state", help="state directory to create")
    einit.add_argument("--optional", type=_fraction, default=None)
    einit.set_defaults(func=_cmd_evolve_init)

    estatus = evolve_sub.add_parser(
        "status", help="show schema version, history, and checkpoint sizes"
    )
    estatus.add_argument("state")
    estatus.set_defaults(func=_cmd_evolve_status)

    efold = evolve_sub.add_parser(
        "fold",
        parents=[engine_run],
        help="convert new documents and fold them into the schema "
        "(bumps the version only on real change)",
    )
    efold.add_argument("state")
    efold.add_argument("files", nargs="*")
    efold.add_argument(
        "--max-workers", type=_count, default=0,
        help="worker processes for conversion and migration "
        "(0 = one per CPU, 1 = serial in-process)",
    )
    efold.add_argument(
        "--repository", default="", metavar="DIR",
        help="versioned repository to keep in step: on a version bump "
        "its documents are migrated in parallel, then the new documents "
        "are inserted and the combined store is published as the next "
        "repository version",
    )
    efold.set_defaults(func=_cmd_evolve_fold)

    emigrate = evolve_sub.add_parser(
        "migrate",
        help="migrate a versioned repository onto the state's current DTD",
    )
    emigrate.add_argument("state")
    emigrate.add_argument("--repository", required=True, metavar="DIR")
    emigrate.add_argument(
        "--max-workers", type=_count, default=0,
        help="migration worker processes (0 = one per CPU, 1 = serial)",
    )
    emigrate.set_defaults(func=_cmd_evolve_migrate)

    erollback = evolve_sub.add_parser(
        "rollback",
        help="repoint a versioned repository at its previous version",
    )
    erollback.add_argument("--repository", required=True, metavar="DIR")
    erollback.set_defaults(func=_cmd_evolve_rollback)

    crawl = sub.add_parser("crawl", help="crawl the simulated web for resumes")
    crawl.add_argument("--resumes", type=_count, default=30)
    crawl.add_argument("--noise", type=_count, default=100)
    crawl.add_argument("--seed", type=int, default=7)
    crawl.add_argument("--out", default="")
    crawl.set_defaults(func=_cmd_crawl)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived conversion service over HTTP "
             "(POST /convert, /convert/batch; GET /schemas, /metrics, /healthz)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--state-dir", default="service-state", metavar="DIR",
                       help="schema/repository state root (the topic's state "
                            "goes under DIR/<topic>/)")
    serve.add_argument("--max-workers", type=_count, default=0,
                       help="engine worker processes "
                            "(0 = min(4, CPUs); 1 = inline)")
    serve.add_argument("--publish", action="store_true",
                       help="publish folded documents into a versioned "
                            "repository under the state dir")
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
