"""Command-line interface.

Subcommands mirror the pipeline stages::

    repro-web gen-corpus   --count 50 --out corpus/          # synthesize HTML
    repro-web html2xml     corpus/*.html --out xml/          # convert (serial)
    repro-web convert-corpus corpus/*.html --out xml/ \\
              --max-workers 4 --discover \\
              --trace-out trace.jsonl --metrics-out m.prom   # parallel engine
    repro-web discover     xml/*.xml --sup 0.4               # schema + DTD
    repro-web stats        metrics.json                      # re-render metrics
    repro-web report       runs.jsonl                        # render a run record
    repro-web runs         runs.jsonl --check                # ledger + regressions
    repro-web validate-obs --trace trace.jsonl --metrics m.prom
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
import sys
from pathlib import Path

from repro.concepts.resume_kb import build_resume_knowledge_base
from repro.convert.pipeline import DocumentConverter
from repro.corpus.crawler import TopicCrawler
from repro.corpus.generator import ResumeCorpusGenerator
from repro.corpus.web import SimulatedWeb
from repro.dom.serialize import to_xml_document
from repro.evaluation.accuracy import evaluate_accuracy
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
from repro.schema.dtd import derive_dtd
from repro.schema.frequent import mine_frequent_paths
from repro.schema.majority import MajoritySchema
from repro.schema.paths import extract_paths


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


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    generator = ResumeCorpusGenerator(
        seed=args.seed, style_weights=_style_weights(args.style)
    )
    for doc in generator.generate(args.count):
        (out / f"resume{doc.doc_id:04d}.html").write_text(doc.html, encoding="utf-8")
    print(f"wrote {args.count} resumes to {out}/")
    return 0


def _conversion_config(args: argparse.Namespace) -> "ConversionConfig":
    from repro.convert.config import ConversionConfig

    return ConversionConfig(
        chaos_fail_marker=getattr(args, "chaos_fail_marker", "") or None,
        chaos_kill_marker=getattr(args, "chaos_kill_marker", "") or None,
    )


def _cmd_html2xml(args: argparse.Namespace) -> int:
    from repro.runtime.stats import STAGE_SECONDS, rule_rows_from_registry

    converter = DocumentConverter(
        build_resume_knowledge_base(), _conversion_config(args)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Same per-stage histograms the parallel engine reports, so the
    # serial path answers "where does the time go" with the same table.
    registry = MetricsRegistry()
    for name in args.files:
        source = Path(name)
        result = converter.convert(source.read_text(encoding="utf-8"))
        target = out / (source.stem + ".xml")
        target.write_text(result.to_xml(), encoding="utf-8")
        for stage, seconds in result.rule_seconds.items():
            registry.histogram(STAGE_SECONDS, stage=stage).observe(seconds)
        print(
            f"{source.name}: {result.concept_node_count} concept nodes, "
            f"{result.instance_stats.unidentified_ratio:.0%} unidentified"
        )
    rows = rule_rows_from_registry(registry)
    if rows:
        print()
        print(format_table(["rule", "seconds", "share"], rows,
                           title="Per-rule time"))
    for target_name in args.metrics_out or []:
        write_metrics(registry, target_name)
        print(f"wrote metrics to {target_name}")
    return 0


def _cmd_convert_corpus(args: argparse.Namespace) -> int:
    from repro.runtime.engine import CorpusEngine, EngineConfig

    if args.files:
        sources = [Path(name).read_text(encoding="utf-8") for name in args.files]
    elif args.generate:
        sources = ResumeCorpusGenerator(
            seed=args.seed, style_weights=_style_weights(args.style)
        ).generate_html(args.generate)
    else:
        print("convert-corpus needs input files or --generate N", file=sys.stderr)
        return 2
    kb = build_resume_knowledge_base()
    engine = CorpusEngine(
        kb,
        _conversion_config(args),
        engine_config=EngineConfig(
            max_workers=args.max_workers or None,
            chunk_size=args.chunk_size or None,
            error_policy=args.on_error,
            quarantine_dir=args.quarantine_dir,
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
    for target_name in args.metrics_out or []:
        write_metrics(result.stats.registry, target_name)
        print(f"wrote metrics to {target_name}")
    if args.out:
        print(f"wrote {result.stats.documents} XML documents to {Path(args.out)}/")
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
    stats = result.stats
    print(format_table(["engine", "value"], stats.summary_rows(),
                       title="Corpus engine run"))
    if stats.rule_seconds:
        print()
        print(format_table(["rule", "seconds", "share"], stats.rule_rows(),
                           title="Per-rule time (summed over workers)"))
    _print_stage_quantiles(stats.stage_summaries())
    slowest = stats.slowest_rows()
    if slowest:
        print()
        print(format_table(
            ["document", "ms", "label paths", "input nodes"], slowest,
            title=f"Slowest documents (top {len(slowest)})",
        ))
    if args.runlog:
        ledger = RunLedger(args.runlog)
        record = ledger.append(
            build_run_record(
                stats,
                fingerprint=config_fingerprint(
                    engine.config, engine.engine_config
                ),
                topic="resume",
                corpus_size=len(sources),
            )
        )
        print(f"appended run {record['run_id']} to {args.runlog}")
    if args.checkpoint_dir:
        from repro.schema.evolution import AccumulatorCheckpoint

        checkpoint = AccumulatorCheckpoint(args.checkpoint_dir)
        sequence = checkpoint.append_delta(result.accumulator)
        compacted = checkpoint.maybe_compact()
        info = checkpoint.info()
        print(
            f"checkpointed delta #{sequence} to {args.checkpoint_dir}/ "
            f"({info.document_count} documents accumulated"
            + (", log compacted)" if compacted else ")")
        )
    if args.fold_into:
        from repro.schema.evolution import EvolvingSchema

        evolving = EvolvingSchema(args.fold_into, kb)
        outcome = evolving.fold(result.accumulator)
        print(f"fold into {args.fold_into}: {outcome.summary()}")
    if run.discovery is not None:
        print()
        print(run.discovery.schema.describe())
        print()
        print(run.discovery.dtd.render())
    return 0


def _load_xml_roots(files: list[str]) -> list:
    """Parse converted-XML files back into element trees."""
    from repro.mapping.persistence import load_xml_document

    roots = []
    for name in files:
        text = Path(name).read_text(encoding="utf-8")
        if not parse_fragment(text).element_children():
            continue
        roots.append(load_xml_document(text))
    return roots


def _discover_schema(roots, kb, sup: float, ratio: float):
    documents = [extract_paths(root) for root in roots]
    frequent = mine_frequent_paths(
        documents,
        sup_threshold=sup,
        ratio_threshold=ratio,
        constraints=kb.constraints,
        candidate_labels=kb.concept_tags(),
    )
    return MajoritySchema.from_frequent_paths(frequent), documents


def _cmd_discover(args: argparse.Namespace) -> int:
    kb = build_resume_knowledge_base()
    roots = _load_xml_roots(args.files)
    if not roots:
        print("no XML documents parsed", file=sys.stderr)
        return 1
    schema, documents = _discover_schema(roots, kb, args.sup, args.ratio)
    print(schema.describe())
    print()
    dtd = derive_dtd(schema, documents)
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

    kb = build_resume_knowledge_base()
    roots = _load_xml_roots(args.files)
    if not roots:
        print("no XML documents parsed", file=sys.stderr)
        return 1
    schema, documents = _discover_schema(roots, kb, args.sup, args.ratio)
    dtd = derive_dtd(schema, documents, optional_threshold=args.optional)
    repository = XMLRepository(dtd)
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


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.runtime.stats import EngineStats

    try:
        registry = load_metrics(args.metrics)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    stats = EngineStats.from_registry(registry)
    print(format_table(["engine", "value"], stats.summary_rows(),
                       title=f"Saved engine metrics ({args.metrics})"))
    if stats.rule_seconds:
        print()
        print(format_table(["rule", "seconds", "share"], stats.rule_rows(),
                           title="Per-rule time (summed over workers)"))
    _print_stage_quantiles(stats.stage_summaries())
    p50, p95 = stats.chunk_seconds_quantile(0.5), stats.chunk_seconds_quantile(0.95)
    if p95 > 0:
        print()
        print(format_table(
            ["p50 s", "p95 s"], [[f"{p50:.3f}", f"{p95:.3f}"]],
            title="Chunk duration quantiles",
        ))
    return 0


def _print_stage_quantiles(summaries: dict) -> None:
    """The per-stage latency table from ``{stage: digest summary}``."""
    from repro.runtime.stats import stage_quantile_rows

    rows = stage_quantile_rows(summaries)
    if rows:
        print()
        print(format_table(
            ["stage", "count", "p50 ms", "p95 ms", "p99 ms"], rows,
            title="Per-stage latency quantiles",
        ))


def _render_run_record(record: dict) -> None:
    """Print one ledger record as report tables."""
    summary = [
        ["run id", record.get("run_id", "?")],
        ["time", record.get("time_iso", "?")],
        ["topic", record.get("topic", "")],
        ["config", record.get("config_fingerprint", "")],
        ["workers", record.get("workers", "")],
        ["chunk size", record.get("chunk_size", "")],
        ["corpus size", record.get("corpus_size", "")],
        ["documents", record.get("documents", "")],
        ["failed", record.get("documents_failed", "")],
        ["wall seconds", record.get("wall_seconds", "")],
        ["docs/second", record.get("docs_per_second", "")],
        ["pool rebuilds", record.get("pool_rebuilds", "")],
        ["cache hit rate", (record.get("cache") or {}).get("hit_rate", "")],
    ]
    print(format_table(["run", "value"], [[k, str(v)] for k, v in summary],
                       title="Run report"))
    failures = record.get("failures_by_stage") or {}
    if failures:
        print()
        print(format_table(
            ["stage", "failures"],
            [[stage, str(count)] for stage, count in failures.items()],
            title="Failures by stage",
        ))
    _print_stage_quantiles(record.get("stage_quantiles") or {})
    slowest = record.get("slowest_documents") or []
    if slowest:
        print()
        print(format_table(
            ["document", "ms", "label paths", "input nodes"],
            [
                [
                    str(entry.get("doc", "?")),
                    f"{float(entry.get('seconds', 0.0)) * 1e3:.2f}",
                    str(entry.get("label_paths", "")),
                    str(entry.get("input_nodes", "")),
                ]
                for entry in slowest
            ],
            title=f"Slowest documents (top {len(slowest)})",
        ))


def _cmd_report(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger)
    record = ledger.find(args.run) if args.run else ledger.latest()
    if record is None:
        which = f"run {args.run!r}" if args.run else "any run record"
        print(f"{args.ledger}: no {which} found", file=sys.stderr)
        return 1
    _render_run_record(record)
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import bench_regressions, detect_history_regressions

    # Benchmark mode: diff two benchmark JSON documents.
    if args.bench_current or args.bench_baseline:
        if not (args.bench_current and args.bench_baseline):
            print("runs needs both --bench-current and --bench-baseline",
                  file=sys.stderr)
            return 2
        current = _json.loads(Path(args.bench_current).read_text(encoding="utf-8"))
        baseline = _json.loads(Path(args.bench_baseline).read_text(encoding="utf-8"))
        regressions = bench_regressions(
            current, baseline, threshold=args.threshold
        )
        for regression in regressions:
            print(f"REGRESSION: {regression.message}", file=sys.stderr)
        if regressions:
            print(f"{len(regressions)} benchmark regression(s) beyond "
                  f"{args.threshold:.0%}", file=sys.stderr)
            return 1 if args.check else 0
        print(f"no benchmark regressions beyond {args.threshold:.0%} "
              f"({args.bench_current} vs {args.bench_baseline})")
        return 0

    # Ledger mode: list runs, then diff the latest against its history.
    if not args.ledger:
        print("runs needs a ledger path (or --bench-current/--bench-baseline)",
              file=sys.stderr)
        return 2
    ledger = RunLedger(args.ledger)
    records = ledger.records()
    if not records:
        print(f"{args.ledger}: no run records", file=sys.stderr)
        return 1
    rows = [
        [
            record.get("run_id", "?"),
            record.get("time_iso", "?"),
            str(record.get("workers", "")),
            str(record.get("documents", "")),
            str(record.get("documents_failed", "")),
            str(record.get("docs_per_second", "")),
        ]
        for record in records[-args.limit:]
    ]
    print(format_table(
        ["run id", "time", "workers", "docs", "failed", "docs/s"], rows,
        title=f"Run ledger ({len(records)} records, {args.ledger})",
    ))
    baseline, regressions = detect_history_regressions(
        records, threshold=args.threshold
    )
    print()
    if baseline is None:
        print("no comparable history for the latest run "
              "(need earlier records with the same config and workers)")
        return 0
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression.message}", file=sys.stderr)
        print(f"{len(regressions)} regression(s) vs {baseline['run_id']} "
              f"beyond {args.threshold:.0%}", file=sys.stderr)
        return 1 if args.check else 0
    print(f"latest run within {args.threshold:.0%} of {baseline['run_id']}")
    return 0


def _cmd_validate_obs(args: argparse.Namespace) -> int:
    from repro.obs.chrometrace import validate_chrome_trace_file
    from repro.obs.validate import (
        validate_metrics_file,
        validate_runlog_file,
        validate_trace_file,
    )

    if not (args.trace or args.metrics or args.chrome or args.runlog):
        print("validate-obs needs --trace, --metrics, --chrome and/or --runlog",
              file=sys.stderr)
        return 2
    errors: list[str] = []
    if args.trace:
        errors.extend(
            f"{args.trace}: {error}"
            for error in validate_trace_file(
                args.trace, require_coverage=args.require_coverage
            )
        )
    for metrics in args.metrics or []:
        errors.extend(
            f"{metrics}: {error}" for error in validate_metrics_file(metrics)
        )
    if args.chrome:
        errors.extend(
            f"{args.chrome}: {error}"
            for error in validate_chrome_trace_file(args.chrome)
        )
    if args.runlog:
        errors.extend(
            f"{args.runlog}: {error}"
            for error in validate_runlog_file(args.runlog)
        )
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"{len(errors)} validation error(s)", file=sys.stderr)
        return 1
    print("observability artifacts valid")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
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

    from repro.service import ConversionService, ServiceConfig

    config = ServiceConfig(
        max_workers=args.max_workers or None,
        max_batch=args.max_batch,
        batch_wait=args.batch_wait,
        max_queue=args.max_queue,
        publish=args.publish,
        drain_timeout=args.drain_timeout,
    )
    service = ConversionService(
        build_resume_knowledge_base(),
        state_dir=args.state_dir,
        config=config,
    )

    def ready(host: str, port: int) -> None:
        # Flushed immediately so supervisors (and the smoke tests) can
        # scrape the bound port even when --port 0 picked an ephemeral one.
        print(f"listening on http://{host}:{port}", flush=True)
        print(
            f"workers={config.resolved_workers()} "
            f"max_batch={config.max_batch} state_dir={args.state_dir}",
            flush=True,
        )

    try:
        asyncio.run(service.run(args.host, args.port, ready=ready))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    print("drained cleanly", flush=True)
    return 0


def _migration_rows(report) -> list[list[str]]:
    return [
        ["documents", str(report.documents)],
        ["already conforming", str(report.already_conforming)],
        ["migrated", str(report.migrated)],
        ["repair operations", str(report.total_operations)],
        ["avg edit distance", f"{report.avg_edit_distance:.2f}"],
    ]


def _cmd_evolve_init(args: argparse.Namespace) -> int:
    from repro.schema.evolution import EvolvingSchema

    evolving = EvolvingSchema(
        args.state,
        build_resume_knowledge_base(),
        sup_threshold=args.sup,
        ratio_threshold=args.ratio,
        optional_threshold=args.optional,
        compaction_ratio=args.compaction_ratio,
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


def _evolve_publish(
    vrepo,
    evolving,
    new_xml: list[str],
    *,
    max_workers: int | None,
    chunk_size: int,
) -> tuple[int, dict | None]:
    """Bring a versioned repository up to the evolving schema.

    Thin CLI wrapper over :func:`repro.service.state.sync_repository`
    (the conversion service's fold lane runs the same publish step):
    delegates the migrate-if-stale + insert + publish work and prints
    the migration table when existing documents needed migrating.
    """
    from repro.service.state import sync_repository

    version, migration = sync_repository(
        vrepo, evolving, new_xml,
        max_workers=max_workers, chunk_size=chunk_size,
    )
    if migration is not None:
        rows = [
            ["documents", str(migration["documents"])],
            ["already conforming", str(migration["already_conforming"])],
            ["migrated", str(migration["migrated"])],
            ["repair operations", str(migration["total_operations"])],
            ["avg edit distance", f"{migration['avg_edit_distance']:.2f}"],
        ]
        print(format_table(["migration", "value"], rows,
                           title="Parallel repository migration"))
    return version, migration


def _cmd_evolve_fold(args: argparse.Namespace) -> int:
    from repro.mapping.versioned import VersionedRepository
    from repro.runtime.engine import CorpusEngine, EngineConfig
    from repro.schema.evolution import EvolvingSchema

    kb = build_resume_knowledge_base()
    evolving_probe = EvolvingSchema(args.state, kb)
    if not evolving_probe.exists():
        print(f"{args.state}: no evolution state (run 'evolve init' first)",
              file=sys.stderr)
        return 1
    if args.files:
        sources = [Path(name).read_text(encoding="utf-8") for name in args.files]
    elif args.generate:
        sources = ResumeCorpusGenerator(
            seed=args.seed, style_weights=_style_weights(args.style)
        ).generate_html(args.generate)
    else:
        print("evolve fold needs input files or --generate N", file=sys.stderr)
        return 2
    engine = CorpusEngine(
        kb,
        engine_config=EngineConfig(
            max_workers=args.max_workers or None,
            chunk_size=args.chunk_size,
        ),
    )
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
        if evolving.dtd is None:
            print("no schema derivable yet; repository left untouched",
                  file=sys.stderr)
        else:
            vrepo = VersionedRepository(args.repository)
            repository_version, migration = _evolve_publish(
                vrepo, evolving, result.xml_documents,
                max_workers=args.max_workers or None,
                chunk_size=args.chunk_size,
            )
            print(
                f"published repository version v{repository_version:04d} "
                f"(schema version {evolving.version}) in {args.repository}/"
            )
    for target_name in args.metrics_out or []:
        write_metrics(result.stats.registry, target_name)
        print(f"wrote metrics to {target_name}")
    if args.runlog:
        from repro.obs import build_evolution_record

        ledger = RunLedger(args.runlog)
        record = ledger.append(
            build_evolution_record(
                outcome,
                topic="resume",
                migration=migration,
                repository_version=repository_version,
            )
        )
        print(f"appended evolution record {record['run_id']} to {args.runlog}")
    return 0


def _cmd_evolve_migrate(args: argparse.Namespace) -> int:
    from repro.mapping.persistence import DTD_NAME
    from repro.mapping.versioned import VersionedRepository
    from repro.schema.evolution import EvolvingSchema

    evolving = EvolvingSchema(args.state, build_resume_knowledge_base())
    if evolving.dtd is None:
        print(f"{args.state}: no schema derived yet", file=sys.stderr)
        return 1
    vrepo = VersionedRepository(args.repository)
    if not vrepo.exists():
        print(f"{args.repository}: no versioned repository", file=sys.stderr)
        return 1
    stored_dtd = (
        vrepo.version_dir(vrepo.current_version()) / DTD_NAME
    ).read_text(encoding="utf-8")
    if stored_dtd == evolving.dtd_text:
        print(
            f"{args.repository}: already at schema version "
            f"{evolving.version}; nothing to migrate"
        )
        return 0
    version, report = vrepo.migrate(
        evolving.dtd,
        schema_version=evolving.version,
        max_workers=args.max_workers or None,
        chunk_size=args.chunk_size,
    )
    print(format_table(["migration", "value"], _migration_rows(report),
                       title="Parallel repository migration"))
    print(
        f"published repository version v{version:04d} "
        f"(schema version {evolving.version}) in {args.repository}/"
    )
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

    gen = sub.add_parser("gen-corpus", help="generate synthetic resume HTML")
    gen.add_argument("--count", type=int, default=50)
    gen.add_argument("--seed", type=int, default=1966)
    gen.add_argument("--out", default="corpus")
    gen.add_argument(
        "--style",
        action="append",
        metavar="NAME",
        help="restrict generation to this rendering style (repeatable; "
        "default: all styles uniformly)",
    )
    gen.set_defaults(func=_cmd_gen_corpus)

    conv = sub.add_parser("html2xml", help="convert HTML files to XML")
    conv.add_argument("files", nargs="+")
    conv.add_argument("--out", default="xml")
    conv.add_argument(
        "--metrics-out",
        action="append",
        metavar="PATH",
        help="write the per-rule timing registry (.prom/.txt for "
        "Prometheus text, anything else for JSON; repeatable)",
    )
    conv.set_defaults(func=_cmd_html2xml)

    engine = sub.add_parser(
        "convert-corpus",
        help="convert a corpus with the parallel streaming engine",
    )
    engine.add_argument("files", nargs="*")
    engine.add_argument(
        "--generate",
        type=int,
        default=0,
        metavar="N",
        help="generate N synthetic resumes instead of reading files",
    )
    engine.add_argument("--seed", type=int, default=1966)
    engine.add_argument(
        "--style",
        action="append",
        metavar="NAME",
        help="restrict --generate to this rendering style (repeatable)",
    )
    engine.add_argument("--out", default="", help="directory for converted XML")
    engine.add_argument(
        "--max-workers",
        type=int,
        default=0,
        help="worker processes (0 = one per CPU, 1 = serial in-process)",
    )
    engine.add_argument(
        "--chunk-size",
        type=int,
        default=0,
        help="documents per worker chunk (0 = adaptive: start small and "
        "grow until per-chunk overhead is amortized)",
    )
    engine.add_argument(
        "--discover",
        action="store_true",
        help="also mine the majority schema and print the DTD",
    )
    engine.add_argument("--sup", type=float, default=0.4)
    engine.add_argument("--ratio", type=float, default=0.0)
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
        "--runlog",
        default="",
        metavar="PATH",
        help="append one run record (quantiles, throughput, failures, "
        "slowest documents) to this JSONL ledger; see 'report'/'runs'",
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
        "--metrics-out",
        action="append",
        metavar="PATH",
        help="write the run's metrics registry (.prom/.txt for Prometheus "
        "text, anything else for JSON; repeatable)",
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
    engine.add_argument(
        "--checkpoint-dir",
        default="",
        metavar="DIR",
        help="durably append this run's path statistics to an "
        "accumulator checkpoint (snapshot + delta log; crash-safe, "
        "compacted automatically) for sharded merge-later discovery",
    )
    engine.add_argument(
        "--fold-into",
        default="",
        metavar="STATE",
        help="fold this run's path statistics into an 'evolve init' "
        "state directory and re-derive the schema online",
    )
    engine.set_defaults(func=_cmd_convert_corpus)

    disc = sub.add_parser("discover", help="discover majority schema + DTD")
    disc.add_argument("files", nargs="+")
    disc.add_argument("--sup", type=float, default=0.4)
    disc.add_argument("--ratio", type=float, default=0.0)
    disc.add_argument(
        "--patterns",
        action="store_true",
        help="render (e1, e2)+ group patterns in the DTD",
    )
    disc.set_defaults(func=_cmd_discover)

    integ = sub.add_parser(
        "integrate", help="discover a DTD, conform documents, save a repository"
    )
    integ.add_argument("files", nargs="+")
    integ.add_argument("--sup", type=float, default=0.4)
    integ.add_argument("--ratio", type=float, default=0.0)
    integ.add_argument("--optional", type=float, default=0.9)
    integ.add_argument("--out", default="repository")
    integ.set_defaults(func=_cmd_integrate)

    insp = sub.add_parser("inspect", help="inspect a saved repository")
    insp.add_argument("store")
    insp.add_argument("--query", default="", help="slash path to evaluate")
    insp.set_defaults(func=_cmd_inspect)

    stats = sub.add_parser(
        "stats", help="re-render saved engine metrics (JSON) as report tables"
    )
    stats.add_argument("metrics", help="metrics JSON written by --metrics-out")
    stats.set_defaults(func=_cmd_stats)

    vobs = sub.add_parser(
        "validate-obs",
        help="validate trace JSONL / metrics files against the checked-in schema",
    )
    vobs.add_argument("--trace", default="", help="trace JSONL to validate")
    vobs.add_argument(
        "--metrics",
        action="append",
        metavar="PATH",
        help="metrics file to validate (.prom/.txt exposition or JSON; repeatable)",
    )
    vobs.add_argument(
        "--chrome",
        default="",
        metavar="PATH",
        help="Chrome trace-event JSON (--trace-chrome output) to validate",
    )
    vobs.add_argument(
        "--runlog",
        default="",
        metavar="PATH",
        help="run-ledger JSONL (--runlog output) to validate",
    )
    vobs.add_argument(
        "--require-coverage",
        action="store_true",
        help="also require every schema-listed span name and event kind",
    )
    vobs.set_defaults(func=_cmd_validate_obs)

    report = sub.add_parser(
        "report", help="render one run-ledger record as report tables"
    )
    report.add_argument("ledger", help="run-ledger JSONL written by --runlog")
    report.add_argument(
        "--run", default="", metavar="RUN_ID",
        help="render this run id (default: the latest record)",
    )
    report.set_defaults(func=_cmd_report)

    runs = sub.add_parser(
        "runs",
        help="list the run ledger and flag regressions (or diff benchmark JSONs)",
    )
    runs.add_argument(
        "ledger", nargs="?", default="",
        help="run-ledger JSONL written by --runlog",
    )
    runs.add_argument(
        "--threshold", type=float, default=0.2,
        help="relative change that counts as a regression (default 0.2)",
    )
    runs.add_argument(
        "--check", action="store_true",
        help="exit 1 when a regression is flagged (CI gate)",
    )
    runs.add_argument(
        "--limit", type=int, default=20,
        help="show at most this many most-recent ledger rows",
    )
    runs.add_argument(
        "--bench-current", default="", metavar="PATH",
        help="benchmark JSON to check (with --bench-baseline; skips the ledger)",
    )
    runs.add_argument(
        "--bench-baseline", default="", metavar="PATH",
        help="committed benchmark baseline JSON (e.g. BENCH_engine.json)",
    )
    runs.set_defaults(func=_cmd_runs)

    ev = sub.add_parser("evaluate", help="run the Figure 4 accuracy experiment")
    ev.add_argument("--docs", type=int, default=50)
    ev.add_argument("--seed", type=int, default=1966)
    ev.set_defaults(func=_cmd_evaluate)

    evolve = sub.add_parser(
        "evolve",
        help="online schema evolution: durable incremental discovery "
        "with a versioned repository",
    )
    evolve_sub = evolve.add_subparsers(dest="evolve_command", required=True)

    einit = evolve_sub.add_parser(
        "init", help="create an evolution state directory"
    )
    einit.add_argument("state", help="state directory to create")
    einit.add_argument("--sup", type=float, default=0.4)
    einit.add_argument("--ratio", type=float, default=0.0)
    einit.add_argument("--optional", type=float, default=None)
    einit.add_argument(
        "--compaction-ratio",
        type=float,
        default=1.0,
        help="compact the delta log once it reaches this multiple of "
        "the snapshot size (default 1.0)",
    )
    einit.set_defaults(func=_cmd_evolve_init)

    estatus = evolve_sub.add_parser(
        "status", help="show schema version, history, and checkpoint sizes"
    )
    estatus.add_argument("state")
    estatus.set_defaults(func=_cmd_evolve_status)

    efold = evolve_sub.add_parser(
        "fold",
        help="convert new documents and fold them into the schema "
        "(bumps the version only on real change)",
    )
    efold.add_argument("state")
    efold.add_argument("files", nargs="*")
    efold.add_argument(
        "--generate", type=int, default=0, metavar="N",
        help="generate N synthetic resumes instead of reading files",
    )
    efold.add_argument("--seed", type=int, default=1966)
    efold.add_argument(
        "--style",
        action="append",
        metavar="NAME",
        help="restrict --generate to this rendering style (repeatable)",
    )
    efold.add_argument(
        "--max-workers", type=int, default=0,
        help="worker processes for conversion and migration "
        "(0 = one per CPU, 1 = serial in-process)",
    )
    efold.add_argument("--chunk-size", type=int, default=16)
    efold.add_argument(
        "--repository", default="", metavar="DIR",
        help="versioned repository to keep in step: on a version bump "
        "its documents are migrated in parallel, then the new documents "
        "are inserted and the combined store is published as the next "
        "repository version",
    )
    efold.add_argument(
        "--runlog", default="", metavar="PATH",
        help="append one evolution record to this JSONL ledger",
    )
    efold.add_argument(
        "--metrics-out",
        action="append",
        metavar="PATH",
        help="write conversion + evolution metrics (.prom/.txt for "
        "Prometheus text, anything else for JSON; repeatable)",
    )
    efold.set_defaults(func=_cmd_evolve_fold)

    emigrate = evolve_sub.add_parser(
        "migrate",
        help="migrate a versioned repository onto the state's current DTD",
    )
    emigrate.add_argument("state")
    emigrate.add_argument("--repository", required=True, metavar="DIR")
    emigrate.add_argument(
        "--max-workers", type=int, default=0,
        help="migration worker processes (0 = one per CPU, 1 = serial)",
    )
    emigrate.add_argument("--chunk-size", type=int, default=16)
    emigrate.set_defaults(func=_cmd_evolve_migrate)

    erollback = evolve_sub.add_parser(
        "rollback",
        help="repoint a versioned repository at its previous version",
    )
    erollback.add_argument("--repository", required=True, metavar="DIR")
    erollback.set_defaults(func=_cmd_evolve_rollback)

    crawl = sub.add_parser("crawl", help="crawl the simulated web for resumes")
    crawl.add_argument("--resumes", type=int, default=30)
    crawl.add_argument("--noise", type=int, default=100)
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
                       help="per-topic schema/repository state root")
    serve.add_argument("--max-workers", type=int, default=0,
                       help="engine worker processes per topic "
                            "(0 = min(4, CPUs); 1 = inline)")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="documents per micro-batched engine chunk")
    serve.add_argument("--batch-wait", type=float, default=0.005,
                       help="seconds to linger for batch companions "
                            "when all dispatch slots are busy")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="queued documents per lane before submits "
                            "block (backpressure bound)")
    serve.add_argument("--publish", action="store_true",
                       help="publish folded documents into a versioned "
                            "repository under the state dir")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to wait for in-flight requests on "
                            "SIGTERM/SIGINT before forcing the drain")
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
