"""Traced in-process decisions; started by run.py in a fresh interpreter.

Usage: python3 perfbench/traced_child.py SCENARIO SECONDS  (with src on
PYTHONPATH). Times ``import lingdecide.cli`` before importing anything
else, makes one untimed warm-up ``cli.main`` call on the scenario, then
runs pairs of an untraced and a traced call until SECONDS have passed
(at least one pair), and prints one JSON document: the import time, the
untraced call times, each call's exit code and report (distinct reports
are listed once), and the spans, which are kept in memory until then.
"""

import sys
import time

_start = time.perf_counter()
import lingdecide.cli  # noqa: E402  (timed: must be the first import)

IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def call_main(main, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def run(path: str, seconds: float) -> dict:
    argv = [path, "--report", "json"]
    tracer = Tracer()
    reports: dict[str, int] = {}  # distinct report texts, by first appearance

    def untraced() -> tuple[list[int], float]:
        start = time.perf_counter()
        code, report = call_main(lingdecide.cli.main, argv)
        return [code, reports.setdefault(report, len(reports))], time.perf_counter() - start

    def traced() -> list[int]:
        tracer.decision = len(rounds)
        tracer.install()
        try:
            code, report = call_main(lingdecide.cli.main, argv)
        finally:
            tracer.uninstall()
        return [code, reports.setdefault(report, len(reports))]

    # The first call pays one-off costs; it is checked but not timed.
    warmup, _ = untraced()
    untraced_s: list[float] = []
    rounds: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        # Alternate which call goes first, so that neither side always
        # follows the other's garbage.
        if len(rounds) % 2:
            traced_call = traced()
            plain_call, plain_s = untraced()
        else:
            plain_call, plain_s = untraced()
            traced_call = traced()
        untraced_s.append(plain_s)
        rounds.append({"untraced": plain_call, "traced": traced_call})
    return {
        "import_s": IMPORT_S,
        "warmup": warmup,
        "untraced_s": untraced_s,
        "rounds": rounds,
        "reports": list(reports),
        **tracer.dump(),
    }


if __name__ == "__main__":
    json.dump(run(sys.argv[1], float(sys.argv[2])), sys.stdout)
