"""Shared pieces of the repo benchmark: inputs, environment stamp,
statistics, process-tree memory and the child-process helpers.

Everything here runs in the benchmark's own processes.  The program
under test is imported from ``src/`` of the checkout the benchmark
lives in; nothing in ``src/`` is modified or instrumented.
"""

from __future__ import annotations

import hashlib
import html.parser
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space inside the checkout (listed in the root .gitignore);
# every run makes its own subdirectory and removes it on exit.
WORK_ROOT = ROOT / ".perfbench"

# Mining threshold shared by every discovery the benchmark runs or
# re-derives (the engine's and EvolvingSchema's default).
SUP_THRESHOLD = 0.4


class BenchError(RuntimeError):
    """A harness, boot or drain failure: the run stops without a result."""


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the program
    from this checkout's ``src/`` and no bytecode written anywhere."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


# -- inputs -------------------------------------------------------------------


def resume_sources(seed: int, count: int) -> list[str]:
    """``count`` generated resumes (every authoring style, markup noise
    on), about 1.5 KB each; the same seed gives the same documents."""
    from repro.corpus.generator import ResumeCorpusGenerator
    from repro.corpus.noise import NoiseConfig

    return ResumeCorpusGenerator(seed=seed, noise=NoiseConfig()).generate_html(count)


def _portal_chrome(rng: random.Random, index: int, body: str) -> str:
    """A table-layout portal page around one resume body: a nav table,
    ``style``/``script`` blocks and unquoted attributes, a few KB."""
    rows = []
    for row in range(rng.randint(4, 7)):
        cells = "".join(
            f"<td class=nav width={rng.randint(40, 160)} align=left>"
            f"<a href=/section{rng.randint(0, 40)}/page{rng.randint(0, 999)}.html>"
            f"<b>Item {row}.{cell}</b></a></td>"
            for cell in range(rng.randint(3, 5))
        )
        rows.append(f"<tr>{cells}</tr>")
    style = "\n".join(
        f".c{i} {{ color: #{rng.getrandbits(24):06x}; font-size: {rng.randint(8, 14)}pt }}"
        for i in range(rng.randint(5, 12))
    )
    script = "\n".join(
        f"var v{i} = {rng.randint(0, 9999)}; if (v{i} < {rng.randint(0, 99)}) "
        f"document.write('<b>hot</b>');"
        for i in range(rng.randint(4, 10))
    )
    return (
        f"<html><head><title>Portal {index}</title>\n"
        f"<style>\n{style}\n</style>\n<script>\n{script}\n</script>\n"
        f"</head><body bgcolor=#ffffff topmargin=0>\n"
        f"<table border=0 cellpadding=2 cellspacing=0 width=100%>\n"
        + "\n".join(rows)
        + "\n</table>\n<table width=100% border=0><tr>"
        f"<td valign=top width=140 class=side><a href=/home>Home</a></td>"
        f"<td valign=top>\n{body}\n</td></tr></table>\n"
        f"<hr size=1>\n<center><font size=1>&copy; 2001 "
        f"Portal {index}</font></center>\n</body></html>\n"
    )


def portal_sources(seed: int, count: int) -> list[str]:
    """The same resumes as :func:`resume_sources`, each embedded in
    portal chrome (about 5 KB per page)."""
    rng = random.Random(f"portal:{seed}")
    pages = []
    for index, page in enumerate(resume_sources(seed, count)):
        lower = page.lower()
        start = lower.find("<body")
        start = page.find(">", start) + 1 if start >= 0 else 0
        end = lower.rfind("</body>")
        body = page[start:end] if end >= start else page[start:]
        pages.append(_portal_chrome(rng, index, body))
    return pages


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def corrupt(text: str) -> str:
    """The deliberately wrong output the smoke test injects."""
    return text + "<!-- corrupted -->"


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


# -- environment --------------------------------------------------------------


def _source_digest() -> str:
    """Digest of every file under ``src/``: identifies the program when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def env_stamp(workers: int) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "workers": workers,
    }


# -- machine-speed calibration ------------------------------------------------

# The probe's nominal time.  A calibrated figure is the raw one scaled by
# (mean probe time / PROBE_REFERENCE_S): what the program would have
# shown on a machine that runs the probe in exactly this time.
PROBE_REFERENCE_S = 0.008
_PROBE_PAGE = _portal_chrome(random.Random(0), 0, "<p>probe <b>text</b> line</p>\n" * 40)


class _ProbeParser(html.parser.HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.events: list = []

    def handle_starttag(self, tag, attrs):
        self.events.append((tag, dict(attrs)))

    def handle_endtag(self, tag):
        self.events.append(tag)

    def handle_data(self, data):
        self.events.append(data.strip().lower())


def probe_s() -> float:
    """One timing of a fixed task, independent of the program: the
    standard library's HTML parser over a fixed page, building a list of
    events (string, regex and allocation work like the program's).  The
    task runs once pinned to each CPU in turn, since the CPUs of a shared
    machine slow down independently; the result is their mean."""
    cpus = sorted(os.sched_getaffinity(0))
    timings = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            for _ in range(5):
                parser = _ProbeParser()
                parser.feed(_PROBE_PAGE)
                parser.close()
            timings.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(timings)


class Speed:
    """The shared machine's speed drifts by a fifth or more over tens of
    seconds, for every process alike.  The harness runs the probe between
    measured units all through a run, never while program work is in
    flight, and scales timings by the slowdown it sees (probe time over
    PROBE_REFERENCE_S):

    * work the harness times in its own thread (serial conversions,
      folds) runs in short chunks with a probe after each, and each
      chunk is scaled by the mean of the two probes around it;
    * work in other processes (engine runs, the server) is scaled by the
      run's mean slowdown over time, since a probe taken seconds away
      from it says little about its moment, while the slow part of the
      drift, which is what moves one run against another, is shared by
      the whole run.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.times: list[float] = []

    def probe(self) -> float:
        """Run the probe; returns the slowdown over the interval since the
        previous reading (the mean of the two)."""
        self.times.append(time.perf_counter())
        self.readings.append(probe_s())
        return statistics.fmean(self.readings[-2:]) / PROBE_REFERENCE_S

    def slowdown(self) -> float:
        """The probe time averaged over the run (each interval between two
        readings weighted by its length), over the reference."""
        if not self.readings:
            raise BenchError("no speed probe ran")
        spans = [b - a for a, b in zip(self.times, self.times[1:])]
        if sum(spans) <= 0:
            return self.readings[0] / PROBE_REFERENCE_S
        weighted = sum(
            span * (a + b) / 2
            for span, a, b in zip(spans, self.readings, self.readings[1:])
        )
        return weighted / sum(spans) / PROBE_REFERENCE_S

    def report(self) -> dict:
        return {
            "probes": len(self.readings),
            "slowdown": self.slowdown(),
            "probe_median_ms": median(self.readings) * 1000,
            "probe_min_ms": min(self.readings) * 1000,
            "probe_max_ms": max(self.readings) * 1000,
        }


def scaled(samples: list[tuple[float, float]], calibrated: bool) -> list[float]:
    """Timings from ``(seconds, slowdown)`` samples, divided by their
    slowdown when ``calibrated``."""
    return [value / factor if calibrated else value for value, factor in samples]


# -- process-tree memory ------------------------------------------------------


def _children(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(token) for token in text.split()]


def vm_hwm_kb(pid: int) -> int | None:
    """Peak resident set size of one process (``VmHWM``), in KiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


class TreeMemorySampler:
    """Samples the peak RSS of a process and all its descendants.

    Each process's ``VmHWM`` is already its own high-water mark, so the
    tree's figure is the sum over every process ever seen of the
    largest ``VmHWM`` read for it -- exact for processes alive at a
    sample, and missing only growth after a worker's last sample.
    """

    def __init__(self, pid: int, interval: float = 0.05) -> None:
        self.pid = pid
        self.interval = interval
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        stack = [self.pid]
        while stack:
            pid = stack.pop()
            hwm = vm_hwm_kb(pid)
            if hwm is not None:
                self.peaks[pid] = max(self.peaks.get(pid, 0), hwm)
            stack.extend(_children(pid))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "TreeMemorySampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    @property
    def total_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0


# -- child processes ----------------------------------------------------------


def alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Kill a child and all its descendants still running, and wait
    until every one has ended."""
    tree, stack = [], [proc.pid]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        stack.extend(_children(pid))
    for pid in tree:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:  # pragma: no cover - SIGKILL is final
        pass
    deadline = time.monotonic() + timeout
    while any(alive(pid) for pid in tree[1:]) and time.monotonic() < deadline:
        time.sleep(0.02)


def read_line(proc: subprocess.Popen, deadline: float, what: str) -> str:
    """One line of a child's stdout, failing loudly on exit or timeout."""
    result: list[str] = []
    reader = threading.Thread(
        target=lambda: result.append(proc.stdout.readline()), daemon=True
    )
    reader.start()
    reader.join(max(0.0, deadline - time.monotonic()))
    if reader.is_alive():
        raise BenchError(f"timed out waiting for {what}")
    if not result or not result[0]:
        raise BenchError(
            f"process exited with code {proc.wait()} before {what}"
        )
    return result[0]


def write_json(path: str | Path, data) -> None:
    Path(path).write_text(json.dumps(data), encoding="utf-8")


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))

