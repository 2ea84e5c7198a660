"""The repo benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload batch-resume --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Inputs are generated from ``--seed``;
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run of the workload with spans that prints the per-layer metrics.  The last
line of stdout is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The line before it is a report: the environment stamp, load-generator
validity and sample counts.  Spans of a traced run are written to
``.perfbench/traces/``.  A harness, boot or drain error exits non-zero
without a result; a wrong output counts as a failed operation and
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
import traceback

sys.dont_write_bytecode = True

from common import SRC, WORK_ROOT, BenchError, env_stamp, nproc  # noqa: E402

WORKLOADS = ("batch-resume", "batch-portal", "serve-mixed")
# Every run must end well inside the 180 s a run may take.
HARD_LIMIT_S = 170


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {HARD_LIMIT_S}s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", type=int, default=0,
                        help="documents per run (default: the workload's own)")
    parser.add_argument("--corrupt", type=int, default=0,
                        help="corrupt this many outputs before checking them "
                        "(the smoke test's negative control)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = WORK_ROOT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    workers = nproc()
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), corrupt=args.corrupt,
        docs=args.docs or workloads.DOCS[args.workload],
        workers=workers, work=work,
    )
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(HARD_LIMIT_S)
    started = time.perf_counter()
    try:
        if args.workload == "serve-mixed":
            workloads.run_serve(ctx)
        else:
            workloads.run_batch(ctx)
    except BenchError as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "documents": ctx.docs, "elapsed_s": time.perf_counter() - started,
        "env": env_stamp(workers), **ctx.report,
    }
    if ctx.trace:
        traces = WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"report": report, "spans": ctx.spans,
                                    "metrics": ctx.metrics}))
        report["trace_file"] = str(path.relative_to(WORK_ROOT.parent))
    correct = ctx.failed == 0
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": ctx.attempted, "failed": ctx.failed,
        "metrics": ctx.metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
