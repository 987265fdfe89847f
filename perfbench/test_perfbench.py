"""Tests of the benchmark itself: generator, checks, tracer and output."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import generate
import run
import tracing
from lingdecide.pipeline import run_pipeline
from lingdecide.prefs import model1_problem
from lingdecide.scenario import load_scenario
from lingdecide.solver import stationarity_residual

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())

SMALL = {
    "power": dict(m=5, q=4, n=3, periods=3, scheme="power"),
    "reshape": dict(m=4, q=6, n=3, periods=4, scheme="reshape", pin_share=0.3),
}


def write(tmp_path, seed, sizes):
    path = tmp_path / f"s{seed}.json"
    path.write_text(generate.scenario_text(seed, **sizes))
    return path


def test_same_seed_same_bytes_other_seed_other_bytes():
    sizes = SMALL["reshape"]
    assert generate.scenario_text(7, **sizes) == generate.scenario_text(7, **sizes)
    assert generate.scenario_text(7, **sizes) != generate.scenario_text(8, **sizes)


@pytest.mark.parametrize("scheme", sorted(SMALL))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_scenario_loads_runs_and_passes_checks(tmp_path, scheme, seed):
    path = write(tmp_path, seed, SMALL[scheme])
    scenario = load_scenario(str(path))
    report = run_pipeline(scenario)
    expected = checks.expected_for(json.loads(path.read_text()))
    problems, kkt = checks.check_report(report.to_json(), expected)
    assert problems == []
    assert kkt <= checks.KKT_TOL
    # The independent residual agrees with the package's own certificate.
    for attr, v in report.priorities.items():
        program = stationarity_residual(
            model1_problem(list(scenario.preferences[attr]), report.model_weights[attr]), v
        )
        hs, cs = expected.models[attr]
        w = report.model_weights[attr]
        assert checks.kkt_residual(np.tensordot(w, hs, 1), w @ cs, v) == pytest.approx(
            program, abs=1e-12
        )


def test_pinned_transitions_are_found_and_checked(tmp_path):
    path = write(tmp_path, 5, SMALL["reshape"])
    expected = checks.expected_for(json.loads(path.read_text()))
    assert expected.pinned
    report = json.loads(run_pipeline(load_scenario(str(path))).to_json())
    i, j = expected.pinned[0]
    assert report["transition"][i][j] == 0.0
    report["transition"][i][j] = 1e-9
    report["transition"][i][(j + 1) % len(report["transition"])] -= 1e-9
    problems, _ = checks.check_report(json.dumps(report), expected)
    assert any("pinned" in p for p in problems)


def test_permuted_ranking_or_off_simplex_vector_fails_the_decision(tmp_path):
    path = write(tmp_path, 1, SMALL["power"])
    expected = checks.expected_for(json.loads(path.read_text()))
    good = json.loads(run_pipeline(load_scenario(str(path))).to_json())

    def problems(report, code=0):
        return run.decision_problems(run.Decision(1.0, 1.0, code, json.dumps(report)), expected)

    assert problems(good) == []
    assert problems(good, code=3)
    permuted = json.loads(json.dumps(good))
    permuted["ranking"][0], permuted["ranking"][-1] = permuted["ranking"][-1], permuted["ranking"][0]
    assert problems(permuted)
    off_simplex = json.loads(json.dumps(good))
    off_simplex["priorities"][next(iter(off_simplex["priorities"]))][0] += 1e-6
    assert problems(off_simplex)
    assert checks.check_report("{not json", expected)[0]


def test_crisis_reference_pins_ranking_and_comparables():
    from lingdecide.scenario import load_bundled_scenario

    expected = checks.expected_for({}, SPEC["crisis_reference"])
    report = json.loads(run_pipeline(load_bundled_scenario()).to_json())
    assert checks.check_report(json.dumps(report), expected)[0] == []
    report["comparables"][0] += 1e-8
    assert checks.check_report(json.dumps(report), expected)[0]


def test_times_are_scaled_by_the_reference_runs_around_them():
    references = [run.Decision(wall, 0.0, 0, "") for wall in (0.5, 1.5, 2.0)]
    expected = [3.0 * run.REFERENCE_S / 1.0, 7.0 * run.REFERENCE_S / 1.75]
    assert run.scaled([3.0, 7.0], references) == pytest.approx(expected)


def span(sid, name, parent, start, end):
    return tracing.Span(sid, name, parent, 0, start, end)


def test_self_times_subtract_child_spans():
    spans = [
        span(0, tracing.ROOT, -1, 0.0, 10.0),
        span(1, "prefs.expert_weights", 0, 1.0, 4.0),
        span(2, "prefs.score_matrix", 1, 2.0, 3.0),
        span(3, "prefs.score_matrix", 1, 3.0, 3.5),
        span(4, "solver.priority", 0, 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 4.0}
    m = tracing.decision_metrics(spans, {})
    assert m["trace.main_s"] == 10.0
    assert m["trace.unattributed_s"] == 3.0
    assert m["prefs.expert_weights_s"] == 1.5
    assert m["prefs.score_matrix_s"] == 1.5
    assert m["prefs.score_matrix_calls"] == 2
    assert m["solver.priority_calls"] == 1
    layers = sum(m[f"{layer}_s"] for layer in tracing.LAYERS)
    assert layers + m["trace.unattributed_s"] == m["trace.main_s"]


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_nesting_and_reports_absent_entry_points():
    import types

    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    sys.modules["fake_layer"] = module
    try:
        tracer = tracing.Tracer(clock=Clock())
        tracer.install(
            (
                ("fake_layer", "outer", tracing.ROOT, None),
                ("fake_layer", "inner", "prefs.score_matrix", tracing._relation_note),
                ("fake_layer", "gone", "solver.priority", None),
                ("no_such_module", "solve", "solver.markov", None),
            )
        )
        assert module.outer(1) == 4
        tracer.uninstall()
        assert module.outer(1) == 4 and len(tracer.spans) == 2
    finally:
        del sys.modules["fake_layer"]
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (-1, outer.id)
    assert (outer.duration, inner.duration) == (3.0, 1.0)
    assert tracer.absent == ["fake_layer.gone", "no_such_module.solve"]
    # A layer is absent once none of its entry points is left.
    gone = ["lingdecide.pipeline.solve", "lingdecide.pipeline.period_weights"]
    assert tracing.absent_layers(gone) == ["solver.priority"]
    gone.append("lingdecide.pipeline.period_weights_reshaped")
    assert tracing.absent_layers(gone) == ["markov.period", "solver.priority"]
    m = tracing.run_metrics(json.loads(json.dumps(tracer.dump())))
    assert m["trace.main_s"] == 3.0 and m["prefs.score_matrix_calls"] == 1


def test_spec_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(SPEC["workloads"])
    assert list(SPEC["layers"]) == [m["name"] for m in BENCH["per_layer"]]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, key):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "crisis-cli",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent, timeout=120,
    ).stdout
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in BENCH[key]]
    for m in BENCH[key]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
