"""Lifecycle and equivalence tests for the conversion service.

The service must be a transparent wrapper over the offline engine:

* XML returned over HTTP is byte-identical to ``convert-corpus`` output
  for the same documents (the engine's own differential guarantee,
  extended across the wire);
* folding per micro-batch through ``/convert/batch`` converges to the
  same schema (same current DTD bytes, same document count) as one
  offline ``evolve fold`` over the whole corpus -- the accumulator is a
  monoid;
* SIGTERM drains cleanly: in-flight requests complete, the CLI exits 0,
  and every worker process is gone (no orphans);
* ``/healthz`` and ``/metrics`` stay truthful, and the Prometheus
  exposition passes the repo's own validator.

Servers run with ``max_workers=1`` (inline converter) unless a test is
specifically about the process pool, keeping the suite fast.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.schema.evolution import EvolvingSchema
from repro.service import ContractError, ConvertRequest, ServiceConfig
from repro.service.contracts import MAX_BATCH_DOCUMENTS
from repro.service.server import ConversionService
from tests.loadtest import (
    ServerThread,
    _get,
    _post,
    request,
    run_load,
)
from tests.obscheck import validate_prometheus_text


@pytest.fixture(scope="module")
def corpus_html(small_corpus):
    return [doc.html for doc in small_corpus]


def make_service(kb, tmp_path, *, workers=1, publish=False, conversion=None):
    return ConversionService(
        kb,
        state_dir=tmp_path / "state",
        config=ServiceConfig(max_workers=workers, publish=publish),
        conversion=conversion,
    )


@pytest.fixture()
def live(kb, tmp_path):
    """A running service (inline worker) plus its address."""
    server = ServerThread(make_service(kb, tmp_path))
    host, port = server.start()
    yield server, host, port
    server.stop()


@pytest.fixture(scope="module")
def bench_serve():
    """The benchmark's own ``/metrics`` reader (``perfbench/serve.py``),
    imported as the benchmark runs it, with its directory on the path."""
    root = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(root))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_serve", root / "serve.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(root))
    return module


def fetch(host, port, raw):
    status, headers, body = asyncio.run(request(host, port, raw))
    return status, headers, body


def post_json(host, port, path, payload):
    status, _, body = fetch(host, port, _post(path, payload))
    return status, json.loads(body)


# -- request contracts ---------------------------------------------------------


class TestContracts:
    def test_parse_minimal(self):
        req = ConvertRequest.parse({"source": "<html>x</html>"})
        assert req.topic == "resume"
        assert not req.fold and req.schema_version is None

    def test_rejects_non_object(self):
        with pytest.raises(ContractError):
            ConvertRequest.parse(["<html>"])

    def test_rejects_empty_source(self):
        with pytest.raises(ContractError, match="source"):
            ConvertRequest.parse({"source": "   "})

    def test_rejects_fold_with_schema_version(self):
        with pytest.raises(ContractError, match="fold"):
            ConvertRequest.parse(
                {"source": "<html>x</html>", "fold": True, "schema_version": 2}
            )

    def test_rejects_bool_schema_version(self):
        with pytest.raises(ContractError, match="schema_version"):
            ConvertRequest.parse({"source": "<p>x</p>", "schema_version": True})

    def test_batch_defaults_apply_to_strings(self):
        requests = ConvertRequest.parse_batch(
            {"documents": ["<p>a</p>", {"source": "<p>b</p>", "doc_id": "b"}],
             "fold": True}
        )
        assert [r.fold for r in requests] == [True, True]
        assert requests[1].doc_id == "b"

    def test_batch_caps_size(self):
        documents = ["<p>x</p>"] * (MAX_BATCH_DOCUMENTS + 1)
        with pytest.raises(ContractError, match="documents"):
            ConvertRequest.parse_batch({"documents": documents})


# -- cold start + introspection routes ----------------------------------------


class TestLifecycleRoutes:
    def test_healthz_cold_start(self, live):
        _, host, port = live
        status, _, body = fetch(host, port, _get("/healthz"))
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["documents"] == 0
        assert health["topics"] == ["resume"]
        assert health["worker_pids"] == []  # inline mode: no pool

    def test_metrics_validate_and_count_requests(self, live, corpus_html):
        _, host, port = live
        status, payload = post_json(
            host, port, "/convert", {"source": corpus_html[0]}
        )
        assert status == 200 and payload["ok"]
        status, headers, body = fetch(host, port, _get("/metrics"))
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert validate_prometheus_text(text) == []
        assert "# HELP repro_service_requests_total" in text
        assert (
            'repro_service_requests_total{code="200",route="POST /convert"}'
            in text
        )

    def test_unknown_route_and_topic(self, live, corpus_html):
        _, host, port = live
        status, _, _ = fetch(host, port, _get("/nope"))
        assert status == 404
        status, payload = post_json(
            host, port, "/convert",
            {"source": corpus_html[0], "topic": "magazines"},
        )
        assert status == 404 and "magazines" in payload["error"]

    def test_bad_json_is_400(self, live):
        _, host, port = live
        raw = (
            b"POST /convert HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\n"
            b"not json!"
        )
        status, _, _ = fetch(host, port, raw)
        assert status == 400

    def test_schemas_empty_until_fold(self, live):
        _, host, port = live
        status, _, body = fetch(host, port, _get("/schemas/resume"))
        assert status == 200
        described = json.loads(body)
        assert described["schema_version"] == 0
        assert described["documents"] == 0
        assert described["dtd"] is None


# -- differential equivalence with the offline engine --------------------------


class TestOfflineEquivalence:
    def test_batch_xml_byte_identical_to_engine(
        self, kb, live, corpus_html
    ):
        _, host, port = live
        offline = CorpusEngine(
            kb, engine_config=EngineConfig(max_workers=1, chunk_size=3)
        ).run(corpus_html, collect_xml=True).corpus.xml_documents
        status, payload = post_json(
            host, port, "/convert/batch", {"documents": corpus_html}
        )
        assert status == 200
        assert payload["documents"] == len(corpus_html)
        assert payload["failed"] == 0
        served = [result["xml"] for result in payload["results"]]
        assert served == offline  # byte-identical, in order

    def test_concurrent_singles_match_engine(self, kb, live, corpus_html):
        _, host, port = live
        offline = CorpusEngine(
            kb, engine_config=EngineConfig(max_workers=1, chunk_size=3)
        ).run(corpus_html, collect_xml=True).corpus.xml_documents

        async def hammer():
            return await asyncio.gather(*(
                request(host, port, _post("/convert", {"source": html}))
                for html in corpus_html
            ))

        responses = asyncio.run(hammer())
        served = []
        for status, _, body in responses:
            assert status == 200
            payload = json.loads(body)
            assert payload["ok"]
            served.append(payload["xml"])
        # Concurrent submissions may be batched in any arrival order,
        # but every document's bytes must match its offline twin.
        assert sorted(served) == sorted(offline)

    def test_fold_equivalent_to_offline_evolve_fold(
        self, kb, tmp_path, corpus_html
    ):
        server = ServerThread(make_service(kb, tmp_path))
        host, port = server.start()
        try:
            # Fold in three uneven waves -- the monoid must not care.
            for lo, hi in ((0, 3), (3, 4), (4, len(corpus_html))):
                status, payload = post_json(
                    host, port, "/convert/batch",
                    {"documents": corpus_html[lo:hi], "fold": True},
                )
                assert status == 200 and payload["failed"] == 0
                assert all(r["folded"] for r in payload["results"])
            status, _, body = fetch(host, port, _get("/schemas/resume"))
            served = json.loads(body)
        finally:
            server.stop()

        offline_dir = tmp_path / "offline"
        evolving = EvolvingSchema(offline_dir, kb)
        evolving.save_state()
        result = CorpusEngine(
            kb, engine_config=EngineConfig(max_workers=1, chunk_size=4)
        ).run(corpus_html).corpus
        evolving.fold(result.accumulator)

        assert served["documents"] == evolving.total_documents()
        assert served["dtd"] == evolving.dtd_text
        # The service's on-disk checkpoint holds the same current DTD.
        service_dtd = (
            tmp_path / "state" / "resume" / "evolution" / "current.dtd"
        ).read_text(encoding="utf-8")
        assert service_dtd.rstrip("\n") == evolving.dtd_text.rstrip("\n")

    def test_fold_publishes_every_survivor(self, kb, tmp_path, corpus_html):
        """With ``publish`` on, every fold syncs the topic's versioned
        repository: CURRENT holds every surviving document, stored
        against the topic's current DTD.  Each batch response reports
        the latest fold that took its documents."""
        service = make_service(kb, tmp_path, publish=True)
        state = service.topics["resume"]
        server = ServerThread(service)
        host, port = server.start()
        converted = 0
        folds = []
        try:
            for lo, hi in ((0, 4), (4, len(corpus_html))):
                status, payload = post_json(
                    host, port, "/convert/batch",
                    {"documents": corpus_html[lo:hi], "fold": True},
                )
                assert status == 200
                converted += payload["converted"]
                assert payload["fold"]["documents_folded"] == payload["converted"]
                folds.append(payload["fold"])
            status, _, body = fetch(host, port, _get("/schemas/resume"))
            described = json.loads(body)
        finally:
            server.stop()

        first, last = folds
        # The first fold into an empty state always bumps to version 1.
        assert first["bumped"] is True and first["schema_version"] >= 1
        assert first["repository_version"] < last["repository_version"]
        assert last["total_documents"] == converted
        assert last["schema_version"] == state.evolving.version
        repository = state.repository
        assert last["repository_version"] == repository.current_version()
        assert described["repository_version"] == repository.current_version()
        assert len(repository.load()) == converted  # load re-validates
        assert repository.dtd_text() == state.evolving.dtd_text

    def test_schema_version_targeting(self, kb, tmp_path, corpus_html):
        server = ServerThread(make_service(kb, tmp_path))
        host, port = server.start()
        try:
            status, payload = post_json(
                host, port, "/convert/batch",
                {"documents": corpus_html[:6], "fold": True},
            )
            assert status == 200
            version = payload["fold"]["schema_version"]
            assert version >= 1
            # Conversion pinned to the archived version succeeds and
            # reports the version it conformed against.
            status, payload = post_json(
                host, port, "/convert",
                {"source": corpus_html[6], "schema_version": version},
            )
            assert status == 200 and payload["ok"]
            assert payload["schema_version"] == version
            # The archived DTD is servable.
            status, _, body = fetch(
                host, port, _get(f"/schemas/resume/v{version}")
            )
            assert status == 200
            assert json.loads(body)["dtd"].strip()
            # A version that never existed is a 400 on convert, 404 on GET.
            status, _ = post_json(
                host, port, "/convert",
                {"source": corpus_html[6], "schema_version": 99},
            )
            assert status == 400
            status, _, _ = fetch(host, port, _get("/schemas/resume/v99"))
            assert status == 404
        finally:
            server.stop()


# -- failures stay per-document ------------------------------------------------


class TestDocumentFailures:
    def test_chaos_document_is_422_not_fatal(self, kb, tmp_path, corpus_html):
        from repro.convert.config import ConversionConfig

        service = make_service(
            kb, tmp_path,
            conversion=ConversionConfig(chaos_fail_marker="CHAOS-BOOM"),
        )
        server = ServerThread(service)
        host, port = server.start()
        try:
            status, payload = post_json(
                host, port, "/convert",
                {"source": "<html><p>CHAOS-BOOM</p></html>", "doc_id": "bad"},
            )
            assert status == 422
            assert not payload["ok"]
            assert payload["doc_id"] == "bad"
            assert payload["error"]["error_type"] == "InjectedFaultError"
            # The service survives: the next document converts fine.
            status, payload = post_json(
                host, port, "/convert", {"source": corpus_html[0]}
            )
            assert status == 200 and payload["ok"]
            # And /healthz reflects the failure count.
            _, _, body = fetch(host, port, _get("/healthz"))
            health = json.loads(body)
            assert health["documents_failed"] == 1
        finally:
            server.stop()

    def test_mixed_batch_reports_both(self, kb, tmp_path, corpus_html):
        from repro.convert.config import ConversionConfig

        service = make_service(
            kb, tmp_path,
            conversion=ConversionConfig(chaos_fail_marker="CHAOS-BOOM"),
        )
        server = ServerThread(service)
        host, port = server.start()
        try:
            documents = [
                corpus_html[0],
                "<html><p>CHAOS-BOOM</p></html>",
                corpus_html[1],
            ]
            status, payload = post_json(
                host, port, "/convert/batch", {"documents": documents}
            )
            assert status == 200
            assert payload["converted"] == 2 and payload["failed"] == 1
            oks = [result["ok"] for result in payload["results"]]
            assert oks == [True, False, True]
        finally:
            server.stop()

    def test_repair_residue_fails_only_its_document(
        self, kb, tmp_path, corpus_html
    ):
        """A pinned document whose repair leaves residue fails alone;
        the other documents of its micro-batch keep their results."""
        from repro.service.batcher import PendingDocument

        service = make_service(kb, tmp_path)
        state = service.topics["resume"]
        calls = []

        def conform_to_version(xml_text, version):
            calls.append(version)
            if len(calls) == 1:
                raise AssertionError("repair left violations: ['x']")
            return xml_text

        state.conform_to_version = conform_to_version
        requests = [
            ConvertRequest(source=corpus_html[0], schema_version=1),
            ConvertRequest(source=corpus_html[1], schema_version=1),
            ConvertRequest(source=corpus_html[2]),
        ]

        async def dispatch():
            loop = asyncio.get_running_loop()
            batch = [PendingDocument(request, loop.create_future())
                     for request in requests]
            await service._dispatch(("resume", False), batch)
            return [pending.future.result() for pending in batch]

        service.pools = {
            name: engine.worker_pool()
            for name, engine in service.engines.items()
        }
        try:
            outcomes = asyncio.run(dispatch())
        finally:
            for pool in service.pools.values():
                pool.shutdown(wait=True)
        assert [outcome.ok for outcome in outcomes] == [False, True, True]
        assert outcomes[0].error["error_type"] == "AssertionError"
        assert outcomes[0].error["stage"] == "conform"
        assert outcomes[1].schema_version == 1 and outcomes[1].xml
        assert outcomes[2].schema_version is None and outcomes[2].xml

    def test_worker_killer_fails_alone(self, kb, tmp_path, corpus_html):
        """A document that kills its pool worker fails alone, as in the
        offline engine under the skip policy; its siblings' XML is the
        offline bytes and the daemon keeps serving."""
        from repro.convert.config import ConversionConfig

        conversion = ConversionConfig(chaos_kill_marker="CHAOS-KILL")
        documents = [
            corpus_html[0],
            corpus_html[1] + "<!-- CHAOS-KILL -->",
            corpus_html[2],
        ]
        offline = CorpusEngine(
            kb, conversion,
            engine_config=EngineConfig(max_workers=2, error_policy="skip"),
        ).run(documents).corpus
        assert [f.index for f in offline.failures] == [1]
        server = ServerThread(
            make_service(kb, tmp_path, workers=2, conversion=conversion)
        )
        host, port = server.start()
        try:
            status, payload = post_json(
                host, port, "/convert/batch", {"documents": documents}
            )
            assert status == 200
            results = payload["results"]
            assert [result["ok"] for result in results] == [True, False, True]
            assert results[1]["error"]["stage"] == "worker"
            assert [results[0]["xml"], results[2]["xml"]] == offline.xml_documents
            # The daemon keeps serving on the rebuilt pool.
            status, payload = post_json(
                host, port, "/convert", {"source": corpus_html[3]}
            )
            assert status == 200 and payload["ok"]
            _, _, body = fetch(host, port, _get("/healthz"))
            health = json.loads(body)
            assert health["documents"] == 3
            assert health["documents_failed"] == 1
            assert len(health["worker_pids"]) >= 1
        finally:
            server.stop()

    def test_dispatch_failure_is_counted(
        self, kb, tmp_path, corpus_html, monkeypatch
    ):
        """Documents whose micro-batch never reached the engine still
        count as failed in /healthz and /metrics."""
        service = make_service(kb, tmp_path)
        server = ServerThread(service)
        host, port = server.start()
        try:
            def broken_submit(*args, **kwargs):
                raise RuntimeError("pool unavailable")

            monkeypatch.setattr(service.pools["resume"], "submit", broken_submit)
            status, payload = post_json(
                host, port, "/convert/batch", {"documents": corpus_html[:3]}
            )
            assert status == 200 and payload["failed"] == 3
            assert {r["error"]["stage"] for r in payload["results"]} == {"engine"}
            _, _, body = fetch(host, port, _get("/healthz"))
            assert json.loads(body)["documents_failed"] == 3
            _, _, body = fetch(host, port, _get("/metrics"))
            assert (
                'repro_engine_documents_failed_total{stage="engine"} 3'
                in body.decode("utf-8")
            )
        finally:
            server.stop()


# -- concurrency + backpressure ------------------------------------------------


class TestConcurrentLoad:
    def test_many_concurrent_clients_zero_drops(self, kb, tmp_path, corpus_html):
        server = ServerThread(make_service(kb, tmp_path))
        host, port = server.start()
        try:
            report = asyncio.run(run_load(
                host, port, corpus_html[:4],
                clients=60, requests_per_client=2,
            ))
        finally:
            server.stop()
        assert report.dropped == 0
        assert report.failed == 0
        assert report.completed == 120
        assert report.converted == 120
        assert report.latency.count == 120

    def test_batch_documents_metric_observes_chunks(
        self, kb, tmp_path, corpus_html
    ):
        server = ServerThread(make_service(kb, tmp_path))
        host, port = server.start()
        try:
            status, payload = post_json(
                host, port, "/convert/batch",
                {"documents": corpus_html[:5]},
            )
            assert status == 200 and payload["failed"] == 0
            _, _, body = fetch(host, port, _get("/metrics"))
        finally:
            server.stop()
        text = body.decode("utf-8")
        assert "repro_service_batch_documents" in text
        assert validate_prometheus_text(text) == []

    def test_benchmark_reader_diffs_two_scrapes(self, live, corpus_html, bench_serve):
        """The benchmark diffs two ``/metrics`` scrapes with its own
        parser: every histogram must expose the same ``le`` set at both,
        and the series it reads must move."""
        _, host, port = live

        def scrape():
            _, _, body = fetch(host, port, _get("/metrics"))
            return bench_serve.parse_metrics(body.decode("utf-8"))

        def le_keys(samples):
            return {key for key in samples if "_bucket{" in key}

        # Warm every series up first, so both scrapes carry all of them.
        post_json(host, port, "/convert", {"source": corpus_html[0]})
        before = scrape()
        for source in corpus_html[1:4]:
            status, _ = post_json(host, port, "/convert", {"source": source})
            assert status == 200
        status, _ = post_json(
            host, port, "/convert/batch", {"documents": corpus_html[:3]}
        )
        assert status == 200
        after = scrape()
        assert le_keys(before) and le_keys(before) == le_keys(after)
        diff = bench_serve.metrics_diff(before, after)
        assert bench_serve.histogram_quantile(
            diff, "repro_service_request_seconds", 0.5
        ) > 0
        for name in ("repro_service_queue_wait_seconds", "repro_service_batch_documents"):
            assert diff[f"{name}_count"] > 0, name
            assert diff[f"{name}_sum"] > 0, name


# -- graceful drain ------------------------------------------------------------


class TestDrain:
    def test_shutdown_rejects_new_submissions(self, kb, tmp_path, corpus_html):
        service = make_service(kb, tmp_path)
        server = ServerThread(service)
        host, port = server.start()
        server.stop()
        assert service.draining
        # Every pool refuses post-shutdown work.
        for pool in service.pools.values():
            assert pool._closed

    def test_sigterm_drains_with_no_orphans(self, tmp_path, corpus_html):
        """End-to-end: `repro-web serve` under SIGTERM exits 0, prints
        the drain line, and leaves no worker processes behind."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env.setdefault("PYTHONUNBUFFERED", "1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--max-workers", "2",
             "--state-dir", str(tmp_path / "state")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("listening on http://"), line
            address = line.strip().rsplit("http://", 1)[1]
            host, port_text = address.rsplit(":", 1)
            port = int(port_text)

            # Real work through the real pool, then capture worker pids.
            status, payload = post_json(
                host, port, "/convert", {"source": corpus_html[0]}
            )
            assert status == 200 and payload["ok"]
            _, _, body = fetch(host, port, _get("/healthz"))
            pids = json.loads(body)["worker_pids"]
            assert len(pids) >= 1

            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0, stderr
            assert "drained cleanly" in stdout

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                alive = [pid for pid in pids if _pid_alive(pid)]
                if not alive:
                    break
                time.sleep(0.1)
            assert not [pid for pid in pids if _pid_alive(pid)], (
                f"orphaned workers: {alive}"
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - not ours, but alive
        return True
    return True
