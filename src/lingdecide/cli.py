"""Command line front end: scenario file in, ranked report out.

Usage: decide SCENARIO [--stage S] [--report text|json] [--export-dot P]
[--paper-literal] [--scheme power|reshape]. Exit codes: 0 success,
1 validation failure, 2 parse failure, 3 numerical failure, 141 the
reader of the report closed its end of the pipe (128 + SIGPIPE).

BLAS runs on one thread: the engine's BLAS/LAPACK calls are too small for
a thread pool to help, and OpenBLAS starting its pool while numpy loads
cost up to about 65 ms of each start on a 2-vCPU host. A user-set
``OPENBLAS_NUM_THREADS`` wins.

The ``decide`` process (``entry``, which the console script and
``python -m lingdecide.cli`` both run) does no cyclic garbage collection:
it turns the collector off before numpy's first import, so that of the 33
collector passes a run starts with it on, all finding nothing, only the 2
before ``entry`` are left. It reads the scenario once, before numpy loads;
given ``OVERLAP_CHARS`` characters of text or more (from a file, FIFO or
pipe) and two CPUs or more in its affinity mask, it decodes the text in a
child process while it imports numpy (``lingdecide.overlap``); each
process is pinned to CPUs of its own, as an unpinned pair ran slower than
one process. It ends, also when argparse ends it (``--help``, a usage
error), by running its ``atexit`` hooks, flushing stdout and stderr and
``os._exit``: teardown only frees memory the system takes back anyway,
and took about 6.5 ms of each run on a 2-vCPU host. ``main`` itself forks
nothing, leaves the collector alone and returns its code.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

# before numpy's first import, in ``_run``; ``import lingdecide`` loads none
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import STAGES  # noqa: E402
from .errors import (  # noqa: E402
    ConfigError,
    EngineError,
    NumericalError,
    ScenarioParseError,
    ScenarioValidationError,
    ShapeError,
)
from .reader import read_text  # noqa: E402

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

#: the fewest characters of scenario text ``decide`` decodes in a child process (``lingdecide.overlap``)
OVERLAP_CHARS = 1 << 18


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decide",
        description="Rank alternatives from a linguistic decision scenario file.",
    )
    parser.add_argument("scenario", help="path to a scenario JSON file (format 1)")
    parser.add_argument(
        "--stage",
        choices=STAGES,
        default="all",
        help="run the pipeline up to this stage (default: all)",
    )
    parser.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--export-dot",
        metavar="PATH",
        help="also write the transition network as a DOT file",
    )
    parser.add_argument(
        "--paper-literal",
        action="store_true",
        help="use the printed-constant form of the consistency deviation",
    )
    parser.add_argument(
        "--scheme",
        choices=("power", "reshape"),
        default=None,
        help="period-weight scheme (default: the scenario's choice)",
    )
    return parser


def load_scenario(text: str, child=None):
    """The scenario ``text`` holds, from the tree ``child`` (``overlap.Decode``) read of it if sent."""
    from . import scenario

    return scenario._decode(text, None if child is None else child.tree())


def main(argv: list[str] | None = None) -> int:
    return _run(build_parser().parse_args(argv))


def _run(args: argparse.Namespace, beside=False) -> int:
    try:
        text = read_text(args.scenario)
        child = _decode_beside(text) if beside else None
        from .pipeline import run_pipeline  # numpy loads here, while ``child`` decodes
        scenario = load_scenario(text, child)
    except ScenarioParseError as exc:
        place = ""
        if exc.line is not None:
            place = f" (line {exc.line}, column {exc.column})"
        print(f"parse error{place}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        print("validation error:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        report = run_pipeline(
            scenario,
            stage=args.stage,
            scheme=args.scheme,
            paper_literal=args.paper_literal,
        )
        if args.export_dot:
            with open(args.export_dot, "w", encoding="utf-8") as fh:
                fh.write(report.export_dot())
        out = report.to_json() if args.report == "json" else report.to_text()
    except (ConfigError, ShapeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit does not fail
        # on the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return EXIT_OK


def _decode_beside(text: str):
    """An ``overlap.Decode`` of ``text`` given ``OVERLAP_CHARS`` characters or more and
    two CPUs or more to pin two processes to; else None, also when no pipe or process can be made."""
    # a platform without sched_getaffinity lacks sched_setaffinity
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(text) < OVERLAP_CHARS or len(cpus) < 2:
        return None
    from . import overlap

    try:
        return overlap.Decode(text, cpus)
    except OSError:
        return None


def entry() -> None:
    """The ``decide`` process: ``main`` with the collector off and a large
    scenario decoded beside numpy's import, then exit without teardown."""
    gc.disable()
    try:
        args = build_parser().parse_args()
        code = _run(args, beside=True)
    except SystemExit as exc:  # ``--help`` and usage errors leave argparse with 0 or 2
        code = exc.code
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
