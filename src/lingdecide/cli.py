"""Command line front end: scenario file in, ranked report out.

Usage: decide SCENARIO [--stage S] [--report text|json] [--export-dot P]
[--paper-literal] [--scheme power|reshape]. Exit codes: 0 success,
1 validation failure, 2 parse failure, 3 numerical failure.

BLAS runs on one thread: the engine's largest BLAS/LAPACK calls (batched
31 x 31 solves) are too small for a thread pool to help, and OpenBLAS
starting its pool while numpy loads cost up to about 65 ms of each start
on a 2-vCPU host. A user-set ``OPENBLAS_NUM_THREADS`` wins.
"""

from __future__ import annotations

import argparse
import os
import sys

# before numpy's first import; ``import lingdecide`` loads no numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .errors import (  # noqa: E402
    ConfigError,
    EngineError,
    NumericalError,
    ScenarioParseError,
    ScenarioValidationError,
    ShapeError,
)
from .pipeline import STAGES, run_pipeline  # noqa: E402
from .scenario import load_scenario  # noqa: E402

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3


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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
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
    except (ConfigError, ShapeError, ScenarioValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    sys.stdout.write(out)
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
