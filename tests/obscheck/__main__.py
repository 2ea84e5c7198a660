"""Check observability artifacts against the contracts in :mod:`tests.obscheck`.

From the repository root::

    python -m tests.obscheck --trace trace.jsonl \\
        --metrics metrics.prom --metrics metrics.json \\
        --chrome trace-chrome.json --runlog runs.jsonl --require-coverage

Exits 0 when every named file is valid, 1 when any has errors (each is
printed to stderr), and 2 when no file is named.
"""

from __future__ import annotations

import argparse
import sys

from tests.obscheck import (
    validate_chrome_trace_file,
    validate_metrics_file,
    validate_runlog_file,
    validate_trace_file,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.obscheck",
        description="validate trace, metrics, Chrome-trace and run-ledger "
        "files against the checked-in contracts",
    )
    parser.add_argument("--trace", default="", help="trace JSONL to validate")
    parser.add_argument(
        "--metrics",
        action="append",
        metavar="PATH",
        help="metrics file to validate (.prom/.txt exposition or JSON; repeatable)",
    )
    parser.add_argument(
        "--chrome",
        default="",
        metavar="PATH",
        help="Chrome trace-event JSON (--trace-chrome output) to validate",
    )
    parser.add_argument(
        "--runlog",
        default="",
        metavar="PATH",
        help="run-ledger JSONL (--runlog output) to validate",
    )
    parser.add_argument(
        "--require-coverage",
        action="store_true",
        help="also require every schema-listed span name and event kind",
    )
    args = parser.parse_args(argv)

    if not (args.trace or args.metrics or args.chrome or args.runlog):
        print("obscheck needs --trace, --metrics, --chrome and/or --runlog",
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


if __name__ == "__main__":
    sys.exit(main())
