"""Run the ``repro-web`` CLI with one oracle swapped into the pipeline.

From the repository root::

    python -m tests.oracles.convert --oracle tidy -- \\
        convert-corpus corpus/*.html --out xml-tidy \\
        --max-workers 2 --chunk-size 8 --discover

applies :func:`tests.oracles.swapped` for the named oracle, then calls
``repro.cli.main`` with everything after ``--``.  ``diff -r`` of the
output against a plain ``repro-web`` run of the same command is the
corpus-level differential for that oracle.

Engine workers see the swap only if they fork from this process after
it is applied, so the script exits with status 2 under any other
multiprocessing start method.  It exits with status 3 if the oracle
served no call: a run the swap never reached proves nothing.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys

from repro.cli import main as cli_main
from tests.oracles import ORACLES, swapped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.oracles.convert",
        description="run repro-web with one legacy oracle swapped in",
    )
    parser.add_argument("--oracle", choices=ORACLES, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]
    method = multiprocessing.get_start_method()
    if method != "fork":
        print(
            f"the oracle swap reaches engine workers only under fork; "
            f"the start method here is {method!r}",
            file=sys.stderr,
        )
        return 2
    with swapped(args.oracle) as calls:
        status = cli_main(cli_args)
    served = calls[args.oracle]
    print(f"oracle {args.oracle} served {served} call(s)", file=sys.stderr)
    if not served:
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
