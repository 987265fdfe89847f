"""Benchmark of the ``decide`` command line tool.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``perfbench/spec.json`` or ``all``.

With ``--trace 0`` the run sets the workload up (writes its scenario file
from the seed and makes one untimed warm-up decision) three times, then
runs a closed loop with one client for up to S seconds: each decision is a
fresh ``python -m lingdecide.cli FILE --report json`` process, started
when the previous one has exited. Every report is checked after the loop.
It prints the end-to-end metrics.

The host is shared, and its speed drifts by tens of percent within a
minute, so raw wall times of the same code disagree from run to run. The
run therefore starts the fixed process ``reference.py`` before the first
set-up and after every set-up and decision, and scales each set-up and
decision time by ``REFERENCE_S`` over the mean wall time of the two
reference runs around it. Times are reported in seconds on a host that
runs the reference in exactly ``REFERENCE_S``; the raw times are printed
in the summary.

With ``--trace 1`` it writes the scenario once and starts one fresh
interpreter that times ``import lingdecide.cli`` and then runs traced and
untraced ``cli.main`` calls in-process for S seconds. It prints the
per-layer metrics.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import generate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: a decision still running this long after it started is killed and fails
DECISION_LIMIT_S = 60.0
#: every child is killed once the run has lasted this long
RUN_LIMIT_S = 170.0
#: tail percentiles need this many samples beyond them
TAIL_BEYOND = 10
#: wall seconds of reference.py on the host that reported times refer to
REFERENCE_S = SPEC["reference"]["nominal_s"]


@dataclass
class Decision:
    wall_s: float
    rss_mb: float
    code: int
    report: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], out_path: Path, limit_s: float) -> Decision:
    """Run one child to exit; wall time from start to exit, rusage from wait4."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, limit_s), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Decision(wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text(encoding="utf-8"))


class Run:
    """One benchmark run: the clock limit, and the files it writes."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.spec = SPEC["workloads"][workload]
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def scenario_text(self) -> str:
        if self.spec["input"] == "bundled":
            return (ROOT / self.spec["bundled_file"]).read_text(encoding="utf-8")
        sizes = {
            key: self.spec[key]
            for key in ("m", "q", "n", "periods", "scheme", "pin_share")
        }
        return generate.scenario_text(self.seed, **sizes)

    def write_inputs(self, tag: str) -> Path:
        path = self.work / f"{self.workload}-{self.seed}-{tag}.json"
        path.write_text(self.scenario_text(), encoding="utf-8")
        return path

    def decide(self, path: Path) -> Decision:
        argv = [sys.executable, "-m", "lingdecide.cli", str(path), "--report", "json"]
        limit = min(DECISION_LIMIT_S, self.remaining())
        return run_child(argv, self.work / "report.json", limit)

    def reference(self) -> Decision:
        argv = [sys.executable, str(HERE / "reference.py")]
        limit = min(DECISION_LIMIT_S, self.remaining())
        return run_child(argv, self.work / "reference.out", limit)

    def expected(self, path: Path) -> checks.Expected:
        scenario = json.loads(path.read_text(encoding="utf-8"))
        reference = SPEC["crisis_reference"] if self.spec["input"] == "bundled" else None
        return checks.expected_for(scenario, reference)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value, percentile and samples beyond it, at the highest percentile
    that has at least TAIL_BEYOND samples beyond it, never below the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def decision_problems(d: Decision, expected: checks.Expected) -> list[str]:
    if d.code != 0:
        return [f"exit code {d.code}"]
    return checks.check_report(d.report, expected)[0]


def scaled(times: list[float], references: list[Decision]) -> list[float]:
    """Each time scaled to the reference host: times[k] ran between
    references[k] and references[k + 1]."""
    return [
        t * REFERENCE_S / ((before.wall_s + after.wall_s) / 2.0)
        for t, before, after in zip(times, references, references[1:])
    ]


def end_to_end(run: Run, seconds: float) -> dict:
    setups: list[float] = []
    problems: list[str] = []
    warmups: list[Decision] = []
    texts: set[str] = set()
    references = [run.reference()]
    for repeat in range(SPEC["setup_repeats"]):
        start = time.perf_counter()
        path = run.write_inputs(f"setup{repeat}")
        warmups.append(run.decide(path))
        setups.append(time.perf_counter() - start)
        references.append(run.reference())
        texts.add(path.read_text(encoding="utf-8"))
    if len(texts) != 1:
        problems.append("the same seed generated different scenario files")

    # The loop starts no decision that would likely end after `seconds`.
    loop: list[Decision] = []
    rounds: list[float] = []
    loop_start = time.perf_counter()
    while not loop or time.perf_counter() - loop_start + statistics.median(rounds) <= seconds:
        start = time.perf_counter()
        loop.append(run.decide(path))
        references.append(run.reference())
        rounds.append(time.perf_counter() - start)
    elapsed = time.perf_counter() - loop_start

    expected = run.expected(path)
    found = [decision_problems(d, expected) for d in warmups + loop]
    problems += [p for f in found for p in f]
    problems += [f"reference process exit code {r.code}" for r in references if r.code != 0]
    failed = sum(map(bool, found))
    loop_failed = sum(map(bool, found[len(warmups):]))
    attempted = len(found)
    walls = [d.wall_s for d in loop]
    scaled_setups = scaled(setups, references)
    scaled_walls = scaled(walls, references[len(setups):])
    tail_value, tail_pct, beyond = tail(scaled_walls)
    values = {
        "wall_p50_s": metric(statistics.median(scaled_walls), "s"),
        "wall_tail_s": metric(tail_value, "s"),
        "decisions_per_s": metric((len(loop) - loop_failed) / sum(scaled_walls), "1/s"),
        "peak_rss_mb": metric(max(d.rss_mb for d in loop), "MB"),
        "setup_s": metric(statistics.median(scaled_setups), "s"),
    }
    spec = run.spec
    reference_p50 = statistics.median(r.wall_s for r in references)
    print(
        f"workload {run.workload} seed {run.seed}: m={spec['m']} q={spec['q']} n={spec['n']}; "
        f"{len(loop)} decisions and {len(references)} reference runs in {elapsed:.2f} s, "
        f"{SPEC['loop']}"
    )
    print(
        f"  raw: wall p50 {statistics.median(walls):.3f} s, set-up p50 "
        f"{statistics.median(setups):.3f} s, reference p50 {reference_p50:.3f} s "
        f"(times below are scaled to a reference of {REFERENCE_S} s)"
    )
    notes = {
        "wall_tail_s": f"p{tail_pct:.0f} of {len(walls)} samples, {beyond} beyond it",
        "setup_s": f"median of {len(setups)} set-ups: {', '.join(f'{s:.3f}' for s in scaled_setups)}",
    }
    for name, value in values.items():
        print(f"  {name:<16} {value['value']:.6g} {value['unit']}  {notes.get(name, '')}")
    print(f"  {'error_rate':<16} {failed / attempted:.6g} ratio  {failed} of {attempted} decisions failed")
    return report_line(problems, attempted, failed, values)


def traced(run: Run, seconds: float) -> dict:
    path = run.write_inputs("trace")
    argv = [sys.executable, str(HERE / "traced_child.py"), str(path), str(seconds)]
    child = run_child(argv, run.work / "trace.json", run.remaining())
    if child.code != 0:
        raise SystemExit(f"traced run exited with code {child.code}")
    dump = json.loads(child.report)

    expected = run.expected(path)
    checked = [checks.check_report(text, expected) for text in dump["reports"]]
    problems = [p for found, _ in checked for p in found]
    kkt = max(residual for _, residual in checked)
    events = [
        len(json.loads(text)["diagnostics"])
        for text, (found, _) in zip(dump["reports"], checked)
        if not found
    ]
    decisions = [dump["warmup"]] + [d for r in dump["rounds"] for d in (r["untraced"], r["traced"])]
    failed = 0
    for code, index in decisions:
        if code != 0:
            problems.append(f"exit code {code}")
        failed += code != 0 or bool(checked[index][0])

    layers = tracing.run_metrics(dump)
    scenario = json.loads(path.read_text(encoding="utf-8"))
    layers.update(
        {
            "cli.import_s": dump["import_s"],
            "scenario.cells": cells(scenario),
            "solver.kkt_residual_max": kkt,
            "diagnostics.events": statistics.median(events) if events else 0,
            "trace.overhead_s": layers["trace.main_s"] - statistics.median(dump["untraced_s"]),
        }
    )
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    values = {name: metric(layers[name], unit) for name, unit in units.items()}

    absent = tracing.absent_layers(dump["absent"])
    attributed = sum(layers[f"{layer}_s"] for layer in tracing.LAYERS)
    print(
        f"workload {run.workload} seed {run.seed}: one warm-up, then {len(dump['rounds'])} "
        f"traced and {len(dump['rounds'])} untraced in-process decisions"
    )
    for name, value in values.items():
        print(f"  {name:<26} {value['value']:.6g} {value['unit']}")
    print(f"  absent layers: {', '.join(absent) or 'none'}")
    print(
        f"  layer self times + unattributed - main = "
        f"{attributed + layers['trace.unattributed_s'] - layers['trace.main_s']:.3g} s"
    )
    return report_line(problems, len(decisions), failed, values)


def cells(scenario: dict) -> int:
    """Term cells in the scenario: assessments plus preference relations."""
    blocks = list((scenario.get("markov") or {}).get("assessments", {}).values())
    for by_expert in (scenario.get("preferences") or {}).values():
        blocks += list(by_expert.values())
    return sum(len(row) for block in blocks for row in block)


def report_line(problems: list[str], attempted: int, failed: int, values: dict) -> dict:
    for problem in dict.fromkeys(problems):
        print(f"  check failed: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "lingdecide" / "cli.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            run = Run(name, args.seed, work)
            line = (traced if args.trace else end_to_end)(run, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
