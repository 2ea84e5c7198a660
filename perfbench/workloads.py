"""The three workloads and the metrics each run reports.

``batch-resume`` and ``batch-portal`` time ``CorpusEngine.run`` in fresh
interpreters; ``serve-mixed`` times ``repro-web serve`` under a mix of
single-document reads and folding batch writes.  Every workload also
replays its documents serially (``DocumentConverter.convert`` +
``to_xml``) and through ``EvolvingSchema.fold`` in-process: those
replays are the correctness references, and on the batch workloads
they also give the single-document and fold latencies.  README.md says
what each metric means on each workload.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    SUP_THRESHOLD,
    BenchError,
    Speed,
    TreeMemorySampler,
    child_env,
    corrupt,
    digest,
    median,
    percentile,
    portal_sources,
    read_json,
    read_line,
    resume_sources,
    scaled,
    stop_process,
    write_json,
)
from serve import (
    Connection,
    RequestClass,
    Server,
    closed_loop,
    histogram_quantile,
    metrics_diff,
    open_loop,
    parse_metrics,
    request_bytes,
)
from spans import SpanLog, self_times

HERE = Path(__file__).resolve().parent

# Documents per workload run (the smoke test passes far fewer).
DOCS = {"batch-resume": 2000, "batch-portal": 1200, "serve-mixed": 1200}
FOLD_BATCH = 16
# A batch run makes --seconds / ROUND_SECONDS rounds (at least
# MIN_ROUNDS); each round is one engine run in a fresh interpreter, one
# slice of the serial replay and FOLD_SAMPLES_PER_ROUND fold samples.
ROUND_SECONDS = 5.0
MIN_ROUNDS = 3
FOLD_SAMPLES_PER_ROUND = 32
# Batch fold samples fold the run's documents into a live schema that
# holds FOLD_BASE_DOCS documents of the workload's kind generated from
# FOLD_BASE_SEED: a fold's cost depends on the state it folds into, and
# a fixed state keeps that cost from varying with the run's seed.
FOLD_BASE_SEED = 0
FOLD_BASE_DOCS = 300
# The speed probe runs after every REPLAY_CHUNK serial conversions and
# every FOLD_CHUNK fold samples (see common.Speed).
REPLAY_CHUNK = 40
FOLD_CHUNK = 4
CHILD_TIMEOUT = 120.0
# serve-mixed nominal rates: fixed constants at 40-45% of each class's
# capacity-phase rate measured on the seed commit (2 CPUs, 2 workers:
# about 150 /convert/s and 11 fold requests/s).  They are not re-derived
# per run.  Each class has one connection, so the rate is also that
# connection's utilization; slightly under half keeps a slow spell of
# the shared machine from tipping the nominal phase into queueing.
CONVERT_RATE = 60.0  # single-document /convert requests per second
FOLD_RATE = 5.0  # 16-document folding /convert/batch requests per second
# Each nominal request is due at its slot's centre plus up to this share
# of the interval either way.
JITTER = 0.25
# A serve run spends NOMINAL_SHARE of --seconds in the nominal phase and
# the rest in the capacity phase, each cut into blocks of about
# BLOCK_SECONDS (at least one per phase).
BLOCK_SECONDS = 2.5
NOMINAL_SHARE = 0.8
BOOTS = 7  # server boots per untraced run; setup_s is their median
# The nominal phase kept up when at most BACKLOG_LIMIT requests per
# class and block were due but unsent at its end, and the generator's own
# wake-up lateness stayed under LATE_LIMIT_S at the 99th percentile.
BACKLOG_LIMIT = 2
LATE_LIMIT_S = 0.010
# Length of the batch workloads' service phase (traced runs only).
SERVICE_SECONDS = 2.0


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    corrupt: int
    docs: int
    workers: int
    work: Path
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            mismatches = self.report.setdefault("mismatches", [])
            if len(mismatches) < 20:
                mismatches.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def end_to_end(self, compute, speed: Speed) -> None:
        """The end-to-end metrics from ``compute(calibrated)``, calibrated
        to the reference machine speed; the report keeps the figures as
        measured beside them."""
        for name, (value, unit) in compute(True).items():
            self.metric(name, value, unit)
        self.report["uncalibrated"] = {name: value for name, (value, _) in compute(False).items()}
        self.report["speed"] = speed.report()


def sources_for(workload: str, seed: int, count: int) -> list[str]:
    if workload == "batch-portal":
        return portal_sources(seed, count)
    return resume_sources(seed, count)


# -- serial and fold replays (the references) ---------------------------------


def _kb():
    from repro.concepts.resume_kb import build_resume_knowledge_base

    return build_resume_knowledge_base()


class SerialReplay:
    """Serial ``DocumentConverter.convert`` + ``to_xml`` of every source,
    timed per document: the reference outputs, and the single-document
    latency on the batch workloads.  ``run`` may be called slice by
    slice, so the timed work can be spread over a whole run."""

    def __init__(self, sources: list[str]) -> None:
        from repro.convert.pipeline import DocumentConverter

        self.sources = sources
        self.kb = _kb()
        self.converter = DocumentConverter(self.kb)
        self.digests: list[str | None] = [None] * len(sources)
        self.doc_paths: list = [None] * len(sources)

    def run(self, indices: range, log: SpanLog | None = None,
            speed: Speed | None = None) -> list[tuple[float, float]]:
        """Convert ``indices``; returns their ``(latency, slowdown)``.
        With ``speed``, the speed probe runs every REPLAY_CHUNK documents
        (the slowdown is 1 without it)."""
        from repro.schema import extract_paths

        converter = self.converter
        clock = time.perf_counter
        samples, chunk = [], []
        for index in indices:
            started = clock()
            result = converter.convert(self.sources[index])
            converted = clock()
            xml = result.to_xml()
            serialized = clock()
            chunk.append(serialized - started)
            self.doc_paths[index] = extract_paths(result.root)
            if log is not None:
                rid = f"doc{index}"
                log.add("convert.document", started, converted, rid)
                log.add("dom.to_xml", converted, serialized, rid)
                log.add("schema.extract_paths", serialized, clock(), rid)
            self.digests[index] = digest(xml)
            if len(chunk) == REPLAY_CHUNK or index == indices[-1]:
                factor = speed.probe() if speed is not None else 1.0
                samples += [(latency, factor) for latency in chunk]
                chunk = []
        # The reference data kept so far is the harness's, not the
        # program's: keep the collector from rescanning it inside later
        # timed conversions and folds.
        gc.freeze()
        return samples

    def dtd(self) -> str:
        """The serial discovery reference: mining and ``derive_dtd`` over
        the materialized per-document paths, with no accumulator merging."""
        from repro.schema import MajoritySchema, derive_dtd, mine_frequent_paths

        frequent = mine_frequent_paths(
            self.doc_paths, sup_threshold=SUP_THRESHOLD, ratio_threshold=0.0,
            constraints=self.kb.constraints, candidate_labels=self.kb.concept_tags(),
        )
        schema = MajoritySchema.from_frequent_paths(frequent)
        return derive_dtd(schema, self.doc_paths).render()


def replay_all(sources: list[str],
               log: SpanLog | None = None) -> tuple[SerialReplay, list[tuple[float, float]]]:
    replay = SerialReplay(sources)
    return replay, replay.run(range(len(sources)), log)


def new_schema(directory: Path):
    from repro.schema import EvolvingSchema

    evolving = EvolvingSchema(directory, _kb(), sup_threshold=SUP_THRESHOLD)
    evolving.save_state()
    return evolving


def delta_of(doc_paths: list, indices):
    from repro.schema import PathAccumulator

    return PathAccumulator.from_documents([doc_paths[i] for i in indices])


def checkpoint_bytes(evolving) -> int:
    info = evolving.checkpoint.info()
    return info.snapshot_bytes + info.delta_bytes


def timed_fold(evolving, delta, log: SpanLog | None, rid: str) -> float:
    started = time.perf_counter()
    evolving.fold(delta)
    ended = time.perf_counter()
    if log is not None:
        log.add("schema.evolution.fold", started, ended, rid)
    return ended - started


def fold_replay(doc_paths: list, batches: list[list[int]], state_dir: Path,
                log: SpanLog | None = None):
    """``EvolvingSchema.fold`` each batch, in order, into a fresh state
    directory; returns the schema."""
    evolving = new_schema(state_dir)
    for number, batch in enumerate(batches):
        timed_fold(evolving, delta_of(doc_paths, batch), log, f"fold{number}")
    return evolving


def fold_samples(base: Path, doc_paths: list, batches: list[list[int]], work: Path,
                 speed: Speed | None = None,
                 log: SpanLog | None = None) -> list[tuple[float, float]]:
    """``(latency, slowdown)`` of folding each batch into its own copy of
    the live schema at ``base``: every sample sees the same state, so the
    figure does not depend on where the delta log's compaction cycle
    happens to be.  With ``speed``, the speed probe runs every FOLD_CHUNK
    samples (the slowdown is 1 without it)."""
    from repro.schema import EvolvingSchema

    samples, chunk = [], []
    for number, batch in enumerate(batches):
        target = work / "fold-sample"
        shutil.copytree(base, target)
        # Make the copy durable first, so the timed fold's own fsyncs do
        # not also write back the copied snapshot.
        for path in [target, *target.rglob("*")]:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        evolving = EvolvingSchema(target, _kb())
        chunk.append(timed_fold(evolving, delta_of(doc_paths, batch), log, f"sample{number}"))
        shutil.rmtree(target)
        if len(chunk) == FOLD_CHUNK or number == len(batches) - 1:
            factor = speed.probe() if speed is not None else 1.0
            samples += [(latency, factor) for latency in chunk]
            chunk = []
    return samples


# -- engine repetitions (batch workloads) -------------------------------------


def engine_rep(ctx: Context, sources_path: Path, traced: bool, rep: int) -> dict:
    """One ``CorpusEngine`` run in a fresh interpreter; adds the set-up
    time (spawn to "ready") and the peak RSS of the child and its pool."""
    out_path = ctx.work / f"engine-{rep}.json"
    command = [
        sys.executable, str(HERE / "batch_child.py"), "--sources", str(sources_path),
        "--workers", str(ctx.workers), "--out", str(out_path),
        "--corrupt", str(ctx.corrupt),
    ]
    if traced:
        command.append("--trace")
    log_path = ctx.work / f"engine-{rep}.log"
    with open(log_path, "wb") as log:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, text=True,
            env=child_env(), cwd=HERE,
        )
        try:
            with TreeMemorySampler(proc.pid) as memory:
                line = read_line(proc, time.monotonic() + CHILD_TIMEOUT, "engine ready")
                setup = time.perf_counter() - spawned
                if line.strip() != "ready":
                    raise BenchError(f"unexpected line from engine child: {line!r}")
                code = proc.wait(timeout=CHILD_TIMEOUT)
                if code != 0:
                    raise BenchError(f"engine child exited with {code}")
        except BaseException as exc:
            stop_process(proc)
            if isinstance(exc, BenchError):
                tail = log_path.read_text(errors="replace")[-2000:]
                raise BenchError(f"{exc}; engine child log: {tail}") from exc
            raise
    out = read_json(out_path)
    out["setup_s"] = setup
    out["rss_mb"] = memory.total_mb
    out["processes"] = len(memory.peaks)
    return out


def check_engine(ctx: Context, out: dict, replay: SerialReplay, dtd: str) -> None:
    for index, (got, want) in enumerate(zip(out["digests"], replay.digests)):
        ctx.check(got == want, f"engine document {index} differs from serial")
    ctx.check(out["dtd"] == dtd, "engine DTD differs from the serial derive_dtd reference")


def slices(count: int, parts: int) -> list[range]:
    bounds = [round(count * k / parts) for k in range(parts + 1)]
    return [range(bounds[k], bounds[k + 1]) for k in range(parts)]


def sample_batches(part: range, count: int) -> list[list[int]]:
    """``count`` batches of FOLD_BATCH consecutive documents of ``part``,
    wrapping around it, so every round takes as many fold samples."""
    size = min(FOLD_BATCH, len(part))
    return [
        [part[(start + k) % len(part)] for k in range(size)]
        for start in range(0, count * size, size)
    ]


def check_live_schema(ctx: Context, evolving, replay: SerialReplay, parts: list[range],
                      dtd: str) -> None:
    """Fold the parts not yet in the live schema, in order; its DTD must
    then equal the serial reference (the schema may not depend on how
    the corpus was split into folds)."""
    for part in parts:
        evolving.fold(delta_of(replay.doc_paths, part))
    ctx.check(evolving.dtd_text == dtd, "folded DTD differs from the serial reference")


# -- batch workloads ------------------------------------------------------------


def run_batch(ctx: Context) -> None:
    """``rounds`` rounds, each one engine run in a fresh interpreter, one
    slice of the serial replay and the slice's 16-document batches, each
    folded into a copy of the fixed live schema.  Every metric thus
    samples the whole run."""
    sources = sources_for(ctx.workload, ctx.seed, ctx.docs)
    sources_path = ctx.work / "sources.json"
    write_json(sources_path, sources)
    ctx.report["source_bytes_mean"] = sum(map(len, sources)) / len(sources)
    if ctx.trace:
        traced_run(ctx, sources, sources_path)
        return

    rounds = max(MIN_ROUNDS, round(ctx.seconds / ROUND_SECONDS))
    parts = slices(len(sources), rounds)
    replay = SerialReplay(sources)
    base = ctx.work / "fold-base"
    base_docs, _ = replay_all(sources_for(ctx.workload, FOLD_BASE_SEED, FOLD_BASE_DOCS))
    new_schema(base).fold(delta_of(base_docs.doc_paths, range(FOLD_BASE_DOCS)))
    speed = Speed()
    reps, converts, folds, fold_docs = [], [], [], 0
    for number, part in enumerate(parts):
        speed.probe()
        reps.append(engine_rep(ctx, sources_path, traced=False, rep=number))
        speed.probe()
        converts += replay.run(part, speed=speed)
        batches = sample_batches(part, FOLD_SAMPLES_PER_ROUND)
        folds += fold_samples(base, replay.doc_paths, batches, ctx.work, speed)
        fold_docs += sum(map(len, batches))
    dtd = replay.dtd()
    for out in reps:
        check_engine(ctx, out, replay, dtd)
    check_live_schema(ctx, new_schema(ctx.work / "live-schema"), replay, parts, dtd)

    ctx.report["engine_reps"] = [
        {"docs_per_s": len(sources) / out["wall"], "setup_s": out["setup_s"],
         "rss_mb": out["rss_mb"], "processes": out["processes"]}
        for out in reps
    ]
    ctx.report["samples"] = {"convert": len(converts), "fold": len(folds), "rounds": rounds}

    def compute(calibrated: bool) -> dict:
        slowdown = speed.slowdown() if calibrated else 1.0
        convert_s, fold_s = scaled(converts, calibrated), scaled(folds, calibrated)
        return {
            "setup_s": (median([out["setup_s"] for out in reps]) / slowdown, "s"),
            "docs_per_s": (
                median([len(sources) / out["wall"] for out in reps]) * slowdown, "docs/s"
            ),
            "rss_mb": (median([out["rss_mb"] for out in reps]), "MB"),
            **latency_metrics(convert_s, fold_s),
            "convert_capacity_rps": (len(convert_s) / sum(convert_s), "req/s"),
            "fold_capacity_docs_per_s": (fold_docs / sum(fold_s), "docs/s"),
        }

    ctx.end_to_end(compute, speed)


def latency_metrics(convert: list[float], fold: list[float]) -> dict:
    """p50 and p90 of each class, pooled over the run."""
    return {
        f"{name}_p{q}_ms": (percentile(values, q / 100) * 1000, "ms")
        for name, values in (("convert", convert), ("fold", fold))
        for q in (50, 90)
    }


# -- serve-mixed ----------------------------------------------------------------


@dataclass
class Load:
    """The pre-encoded requests of one serve run and their references."""

    pool: list[str]
    replay: SerialReplay
    convert: RequestClass
    fold: RequestClass
    fold_batches: list[list[int]]
    rng: random.Random

    @classmethod
    def build(cls, pool: list[str], replay: SerialReplay, seed: int) -> "Load":
        size = len(pool)
        batches = [
            [(start + k) % size for k in range(FOLD_BATCH)]
            for start in range(0, size, FOLD_BATCH)
        ]
        convert = RequestClass(
            "convert",
            [request_bytes("POST", "/convert", {"source": source}) for source in pool],
            1,
        )
        fold = RequestClass(
            "fold",
            [
                request_bytes("POST", "/convert/batch", {
                    "documents": [pool[i] for i in batch], "fold": True,
                })
                for batch in batches
            ],
            FOLD_BATCH,
        )
        return cls(pool, replay, convert, fold, batches, random.Random(f"arrivals:{seed}"))

    def check(self, ctx: Context) -> None:
        """Every response against the offline conversion of its source."""
        digests = self.replay.digests
        corrupted = 0
        for record in self.convert.records:
            ok = record.status == 200
            if ok:
                outcome = json.loads(record.body)
                xml = outcome.get("xml") or ""
                if corrupted < ctx.corrupt:
                    xml, corrupted = corrupt(xml), corrupted + 1
                ok = outcome.get("ok") is True and digest(xml) == digests[
                    record.item % len(self.pool)
                ]
            ctx.check(ok, f"/convert request {record.item} (status {record.status})")
        for record in self.fold.records:
            batch = self.fold_batches[record.item % len(self.fold_batches)]
            ok = record.status == 200
            if ok:
                results = json.loads(record.body).get("results", [])
                ok = len(results) == len(batch) and all(
                    result.get("ok") is True
                    and digest(result.get("xml") or "") == digests[doc]
                    for result, doc in zip(results, batch)
                )
            ctx.check(ok, f"fold request {record.item} (status {record.status})")

    def check_schema(self, ctx: Context, served_dtd: str, log: SpanLog | None = None):
        """The served DTD against an offline fold of the same batches in
        the same order (one connection sends fold requests one at a
        time, so the server folded them in record order)."""
        batches = [
            self.fold_batches[record.item % len(self.fold_batches)]
            for record in self.fold.records
            if record.status == 200
        ]
        evolving = fold_replay(self.replay.doc_paths, batches, ctx.work / "fold-replay", log)
        ctx.check(
            served_dtd == evolving.dtd_text,
            "served /schemas/resume DTD differs from the offline EvolvingSchema fold",
        )
        return evolving


async def boot(ctx: Context, number: int, warm_source: str) -> Server:
    server = Server(ctx.work / f"state-{number}", ctx.workers, ctx.work / f"server-{number}.log")
    try:
        server.spawn()
        await server.warm(warm_source)
    except BaseException as exc:
        server.kill()
        if isinstance(exc, BenchError):
            raise BenchError(f"{exc}; server log: {server.log_tail()}") from exc
        raise
    return server


async def metrics_snapshot(conn: Connection) -> dict[str, float]:
    status, body = await conn.get("/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    return parse_metrics(body.decode("utf-8"))


@dataclass
class Phases:
    """One serve run's nominal records and capacity counts, per block."""

    # class -> [records] and [(docs, seconds)], one entry per block
    nominal: dict = field(default_factory=lambda: {"convert": [], "fold": []})
    capacity: dict = field(default_factory=lambda: {"convert": [], "fold": []})
    backlog: dict = field(default_factory=lambda: {"convert": 0, "fold": 0})
    lateness: dict = field(default_factory=lambda: {"convert": [], "fold": []})

    def latencies(self, name: str) -> list[float]:
        return [r.latency for block in self.nominal[name] for r in block]

    def rate(self, name: str) -> float:
        """Completions per second over every capacity block."""
        blocks = self.capacity[name]
        return sum(docs for docs, _ in blocks) / sum(busy for _, busy in blocks)

    def kept_up(self) -> bool:
        return all(
            self.backlog[name] <= BACKLOG_LIMIT * len(self.nominal[name])
            and percentile(self.lateness[name], 0.99) <= LATE_LIMIT_S
            for name in self.nominal
        )

    def report(self) -> dict:
        out = {}
        for name, blocks in self.nominal.items():
            records = [r for block in blocks for r in block]
            out[name] = {
                "samples": len(records),
                "backlog_at_block_ends": self.backlog[name],
                "generator_late_p99_ms": percentile(self.lateness[name], 0.99) * 1000,
                "client_queue_p90_ms": percentile(
                    [r.send - r.due for r in records], 0.9
                ) * 1000,
                "capacity_per_s_by_block": [docs / busy for docs, busy in self.capacity[name]],
            }
        out["rates"] = {"convert": CONVERT_RATE, "fold": FOLD_RATE}
        out["kept_up"] = self.kept_up()
        return out


def arrivals(rng: random.Random, start: float, duration: float, rate: float) -> list[float]:
    """Due times of one class: a steady pace of ``rate`` per second, each
    request shifted by a random quarter of the interval.  The shifts keep
    the two classes from locking into one phase, which would make a tail
    quantile jump between a few fixed overlaps, yet never bunch requests
    so closely that they queue behind each other in the client."""
    return [
        start + (i + 0.5 + rng.uniform(-JITTER, JITTER)) / rate
        for i in range(round(rate * duration))
    ]


async def nominal_block(load: Load, conns: tuple, phases: Phases, duration: float,
                        traced: bool) -> dict:
    """Open loop at the fixed per-class rates.  Returns each class's
    records."""
    start = time.perf_counter() + 0.01
    end = start + duration
    first = {cls.name: len(cls.records) for cls in (load.convert, load.fold)}
    await asyncio.gather(
        open_loop(conns[0], load.convert,
                  arrivals(load.rng, start, duration, CONVERT_RATE), traced),
        open_loop(conns[1], load.fold, arrivals(load.rng, start, duration, FOLD_RATE), traced),
    )
    block = {}
    for cls in (load.convert, load.fold):
        records = block[cls.name] = cls.records[first[cls.name]:]
        free_at = start
        for record in records:
            phases.lateness[cls.name].append(record.send - max(record.due, free_at))
            free_at = record.done
        phases.backlog[cls.name] += sum(1 for r in records if r.due < end < r.send)
    return block


async def capacity_block(load: Load, conns: tuple, duration: float, traced: bool) -> dict:
    """Closed loop: each class sends its next request when one returns.
    Returns, per class, the documents completed after its first
    completion and the interval from that one to its last."""
    end = time.perf_counter() + duration
    first = {cls.name: len(cls.records) for cls in (load.convert, load.fold)}
    await asyncio.gather(
        closed_loop(conns[0], load.convert, end, traced),
        closed_loop(conns[1], load.fold, end, traced),
    )
    block = {}
    for cls in (load.convert, load.fold):
        done = sorted(r.done for r in cls.records[first[cls.name]:] if r.done <= end)
        if len(done) < 2:
            raise BenchError(f"a capacity block completed {len(done)} {cls.name} requests")
        block[cls.name] = ((len(done) - 1) * cls.docs_per_request, done[-1] - done[0])
    return block


async def serve_blocks(load: Load, conns: tuple, duration: float, traced: bool,
                       speed: Speed | None = None) -> Phases:
    """The nominal phase, then the capacity phase, each cut into blocks;
    with ``speed``, the speed probe runs after each block, while no
    request is in flight.
    Nominal comes first and runs a fixed number of folds, so every run's
    nominal latencies see the same growth of the live schema's delta
    log; the closed loop, whose fold count depends on speed, comes
    after."""
    phases = Phases()
    nominal = duration * NOMINAL_SHARE
    blocks = max(1, round(nominal / BLOCK_SECONDS))
    for _ in range(blocks):
        block = await nominal_block(load, conns, phases, nominal / blocks, traced)
        for name, records in block.items():
            phases.nominal[name].append(records)
        if speed is not None:
            speed.probe()
    capacity = duration - nominal
    blocks = max(1, round(capacity / BLOCK_SECONDS))
    for _ in range(blocks):
        block = await capacity_block(load, conns, capacity / blocks, traced)
        for name, counts in block.items():
            phases.capacity[name].append(counts)
        if speed is not None:
            speed.probe()
    return phases


def run_serve(ctx: Context) -> None:
    pool = sources_for(ctx.workload, ctx.seed, ctx.docs)
    replay, _ = replay_all(pool)
    load = Load.build(pool, replay, ctx.seed)
    if ctx.trace:
        sources_path = ctx.work / "sources.json"
        write_json(sources_path, pool)
        traced_run(ctx, pool, sources_path, load=load)
        return
    speed = Speed()
    setups, phases, served_dtd, rss = asyncio.run(_serve_untraced(ctx, load, speed))
    load.check(ctx)
    load.check_schema(ctx, served_dtd)
    ctx.report["boots_setup_s"] = setups
    ctx.report["nominal"] = phases.report()
    ctx.check(phases.kept_up(), "nominal phase did not keep up with its schedule")

    def compute(calibrated: bool) -> dict:
        slowdown = speed.slowdown() if calibrated else 1.0
        convert, fold = phases.rate("convert") * slowdown, phases.rate("fold") * slowdown
        return {
            "setup_s": (median(setups) / slowdown, "s"),
            "docs_per_s": (convert + fold, "docs/s"),
            "rss_mb": (rss, "MB"),
            **latency_metrics(
                [x / slowdown for x in phases.latencies("convert")],
                [x / slowdown for x in phases.latencies("fold")],
            ),
            "convert_capacity_rps": (convert, "req/s"),
            "fold_capacity_docs_per_s": (fold, "docs/s"),
        }

    ctx.end_to_end(compute, speed)


async def _open_pair(server: Server) -> tuple[Connection, Connection]:
    return await Connection.open(server.port), await Connection.open(server.port)


async def _close_pair(conns: tuple) -> None:
    for conn in conns:
        await conn.close()


async def _serve_untraced(ctx: Context, load: Load, speed: Speed):
    setups = []
    server = None
    try:
        for number in range(BOOTS):
            speed.probe()
            server = await boot(ctx, number, load.pool[0])
            setups.append(server.setup_s)
            if number < BOOTS - 1:
                server.drain()
                server = None
        conns = await _open_pair(server)
        phases = await serve_blocks(load, conns, ctx.seconds, False, speed)
        schema = await conns[0].get_json("/schemas/resume")
        await _close_pair(conns)
        rss = server.rss_mb()
        server.drain()
        server = None
    finally:
        if server is not None:
            server.kill()
    return setups, phases, schema.get("dtd") or "", rss


# -- traced runs ----------------------------------------------------------------


def traced_run(ctx: Context, sources: list[str], sources_path: Path,
               load: Load | None = None) -> None:
    """The per-layer run: every layer of the program on this workload's
    documents, with spans, plus the tracing overhead measured against
    untraced runs of the same calls."""
    log = SpanLog(prefix="bench.")
    if load is None:
        replay, untraced_converts = replay_all(sources)
    else:
        replay = load.replay
    _, traced_converts = replay_all(sources, log)
    dtd = replay.dtd()
    untraced_engine = engine_rep(ctx, sources_path, traced=False, rep=0)
    check_engine(ctx, untraced_engine, replay, dtd)
    engine = engine_rep(ctx, sources_path, traced=True, rep=1)
    check_engine(ctx, engine, replay, dtd)

    if load is None:
        half = len(sources) // 2
        evolving = new_schema(ctx.work / "live-schema")
        evolving.fold(delta_of(replay.doc_paths, range(half)))
        fold_samples(
            ctx.work / "live-schema", replay.doc_paths,
            sample_batches(range(half, len(sources)), FOLD_SAMPLES_PER_ROUND), ctx.work,
            log=log,
        )
        check_live_schema(ctx, evolving, replay, [range(half, len(sources))], dtd)
        load = Load.build(sources, replay, ctx.seed)
        service = asyncio.run(_service_phase(ctx, load, log))
        convert_overhead = 1.0 - percentile(scaled(untraced_converts, False), 0.5) / percentile(
            scaled(traced_converts, False), 0.5
        )
    else:
        service = asyncio.run(_serve_traced(ctx, load, log))
        evolving = load.check_schema(ctx, service.pop("served_dtd"), log)
        convert_overhead = 1.0 - service.pop("untraced_p50") / service.pop("traced_p50")
    load.check(ctx)

    spans = log.export() + engine.pop("spans")
    ctx.spans = spans
    selfs = self_times(spans)
    counters = engine["counters"]
    rule = counters["rule_seconds"]
    m = ctx.metric
    m("htmlparse.parse_s", rule.get("parse", 0.0), "s")
    m("htmlparse.tidy_s", rule.get("tidy", 0.0), "s")
    for stage in ("tokenize", "instance", "group", "consolidate"):
        m(f"convert.{stage}_s", rule.get(stage, 0.0), "s")
    m("convert.documents", len(sources), "count")
    m("concepts.cache_hit_ratio", counters["cache_hit_ratio"], "ratio")
    m("dom.to_xml_s", selfs["dom.to_xml"][0], "s")
    m("schema.extract_paths_s", selfs["schema.extract_paths"][0], "s")
    m("schema.discover_s", selfs["schema.discover"][0], "s")
    fold_s, folds = selfs["schema.evolution.fold"]
    m("schema.evolution.fold_s", fold_s, "s")
    m("schema.evolution.folds", folds, "count")
    m("schema.evolution.checkpoint_bytes", checkpoint_bytes(evolving), "bytes")
    m("runtime.worker_busy_frac", counters["worker_busy_frac"], "ratio")
    m("runtime.merge_wait_s", selfs["runtime.merge_wait"][0], "s")
    m("runtime.parent_cpu_s", counters["parent_cpu_s"], "s")
    m("runtime.payload_bytes", counters["payload_bytes"], "bytes")
    m("runtime.source_bytes", counters["source_bytes"], "bytes")
    m("runtime.chunks", counters["chunks"], "count")
    m("runtime.chunk_overhead_frac", counters["chunk_overhead_frac"], "ratio")
    m("runtime.first_chunk_s", counters["first_chunk_s"], "s")
    for name, (value, unit) in service.items():
        m(name, value, unit)
    m("trace.docs_per_s_overhead_frac", 1.0 - untraced_engine["wall"] / engine["wall"], "ratio")
    m("trace.convert_p50_overhead_frac", convert_overhead, "ratio")


def service_layers(records: list, diff: dict[str, float]) -> dict:
    """Per-request client spans (medians) and the server's own
    ``/metrics`` counters over the traced phases."""

    def med_ms(values: list[float]) -> float:
        return median(values) * 1000

    count = diff.get("repro_service_batch_documents_count", 0.0)
    return {
        "service.requests": (len(records), "count"),
        "service.client_queue_ms": (med_ms([r.send - r.due for r in records]), "ms"),
        "service.write_ms": (med_ms([r.written - r.send for r in records]), "ms"),
        "service.ttfb_ms": (med_ms([r.first_byte - r.written for r in records]), "ms"),
        "service.read_ms": (med_ms([r.done - r.first_byte for r in records]), "ms"),
        # The queue-wait histogram's first bucket is 1 ms wide and holds
        # nearly every sample, so its p50 would read a fixed 0.5 ms; the
        # exact mean comes from the histogram's sum and count.
        "service.queue_wait_mean_ms": (
            1000 * diff.get("repro_service_queue_wait_seconds_sum", 0.0)
            / max(1.0, diff.get("repro_service_queue_wait_seconds_count", 0.0)),
            "ms",
        ),
        "service.batch_docs_mean": (
            diff.get("repro_service_batch_documents_sum", 0.0) / count if count else 0.0,
            "docs",
        ),
        "service.request_p50_ms": (
            histogram_quantile(diff, "repro_service_request_seconds", 0.5) * 1000, "ms"
        ),
        "service.folds": (diff.get("repro_evolution_folds_total", 0.0), "count"),
        "service.version_bumps": (diff.get("repro_schema_version_bumps_total", 0.0), "count"),
    }


def record_spans(log: SpanLog, records: list) -> None:
    for record in records:
        rid = f"{record.cls}{record.item}"
        parent = log.add(f"service.{record.cls}_request", record.due, record.done, rid)
        log.add("service.client_queue", record.due, record.send, rid, parent)
        log.add("service.write", record.send, record.written, rid, parent)
        log.add("service.ttfb", record.written, record.first_byte, rid, parent)
        log.add("service.read", record.first_byte, record.done, rid, parent)


async def _service_phase(ctx: Context, load: Load, log: SpanLog) -> dict:
    """Batch workloads: a short closed loop of both request classes over
    this workload's documents, so the service layers are measured on
    every workload."""
    server = await boot(ctx, 0, load.pool[0])
    try:
        conns = await _open_pair(server)
        before = await metrics_snapshot(conns[0])
        await capacity_block(load, conns, SERVICE_SECONDS, True)
        diff = metrics_diff(before, await metrics_snapshot(conns[0]))
        await _close_pair(conns)
        server.drain()
    except BaseException:
        server.kill()
        raise
    records = load.convert.records + load.fold.records
    record_spans(log, records)
    return service_layers(records, diff)


async def _serve_traced(ctx: Context, load: Load, log: SpanLog) -> dict:
    """serve-mixed: an untraced run of the blocks, then a traced one
    whose client spans and ``/metrics`` diff give the service layers;
    the two give the tracing overhead on ``convert_p50_ms``."""
    server = await boot(ctx, 0, load.pool[0])
    try:
        conns = await _open_pair(server)
        untraced = await serve_blocks(load, conns, ctx.seconds / 2, False)
        before = await metrics_snapshot(conns[0])
        traced = await serve_blocks(load, conns, ctx.seconds / 2, True)
        diff = metrics_diff(before, await metrics_snapshot(conns[0]))
        schema = await conns[0].get_json("/schemas/resume")
        await _close_pair(conns)
        server.drain()
    except BaseException:
        server.kill()
        raise
    records = [r for r in load.convert.records + load.fold.records if r.traced]
    record_spans(log, records)
    result = service_layers(records, diff)
    result["served_dtd"] = schema.get("dtd") or ""
    result["untraced_p50"] = percentile(untraced.latencies("convert"), 0.5)
    result["traced_p50"] = percentile(traced.latencies("convert"), 0.5)
    ctx.report["nominal"] = traced.report()
    ctx.check(traced.kept_up(), "nominal phase did not keep up with its schedule")
    return result
