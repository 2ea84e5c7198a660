"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

It drives every workload untraced and traced with a few dozen documents
and a four-second serve phase, and checks that:

* every run is correct and prints exactly the metric names and units
  that BENCHMARK.json defines (end-to-end untraced, per-layer traced),
  for the workloads it lists and for serve-mixed, which the command
  also runs (see README.md for why BENCHMARK.json leaves it out);
* deliberately corrupted outputs are counted as failed operations;
* in a directory holding only BENCHMARK.json and the benchmark, the
  command exits non-zero without printing a result;
* a run leaves no file behind outside the benchmark's scratch directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DEFINITION["workloads"]] + ["serve-mixed"]
TINY = ["--seed", "1", "--seconds", "4", "--docs", "40"]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [*DEFINITION["command"], *args], cwd=cwd, capture_output=True,
        text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def result(lines: list[str]) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out


def expected(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DEFINITION[kind]}


def printed(out: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in out["metrics"].items()}


def tree_files() -> set[Path]:
    return {
        path for path in ROOT.rglob("*")
        if path.is_file() and ".git" not in path.parts and SCRATCH not in path.parents
    }


def test_every_workload_prints_every_metric():
    before = tree_files()
    for workload in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines, err = bench("--workload", workload, "--trace", trace, *TINY)
            assert code == 0, f"{workload} trace={trace} exited {code}: {err[-2000:]}"
            out = result(lines)
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            assert printed(out) == expected(kind), (workload, trace)
            for metric in out["metrics"].values():
                assert isinstance(metric["value"], float)
    assert tree_files() == before, "a run left files outside .perfbench/"


def test_corrupted_outputs_count_as_failures():
    for workload in ("batch-resume", "serve-mixed"):
        code, lines, _ = bench("--workload", workload, "--trace", "0",
                               "--corrupt", "2", *TINY)
        out = result(lines)
        assert code == 1 and not out["correct"], out
        assert out["failed"] >= 2 and out["attempted"] > out["failed"], out


def test_no_result_without_the_program():
    bare = SCRATCH / f"bare-{time.time_ns()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in DEFINITION["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, err = bench("--workload", WORKLOADS[0], "--trace", "0", *TINY,
                                 cwd=bare)
        assert code != 0, "the benchmark ran without the program"
        assert not any(line.startswith('{"correct"') for line in lines), lines
        assert "missing" in err, err
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (
        test_every_workload_prints_every_metric,
        test_corrupted_outputs_count_as_failures,
        test_no_result_without_the_program,
    ):
        started = time.perf_counter()
        test()
        print(f"ok  {test.__name__} ({time.perf_counter() - started:.1f}s)")
