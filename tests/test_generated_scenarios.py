"""Every generated valid scenario runs to a report that passes the benchmark's checks.

The scenarios come from the benchmark's seeded generator
(``perfbench/generate.py``) over small sizes, both period-weight schemes
and shares of pinned transitions, and ``decide`` runs in-process with and
without ``--paper-literal``. Each report must pass the benchmark's own
report checks (``perfbench/checks.py``), which use numpy alone. Both
modules are loaded from their files and left as they are.

The same generator feeds metamorphic properties: listing the experts,
or the attributes, in another order leaves every result where it was,
and relabelling the alternatives permutes every result with them.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lingdecide import cli
from lingdecide.errors import EngineError
from lingdecide.pipeline import run_pipeline
from lingdecide.scenario import scenario_from_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate = load("generate")
checks = load("checks")


@st.composite
def generated_scenarios(draw):
    sizes = {
        "m": draw(st.integers(2, 6)),
        "q": draw(st.integers(1, 6)),
        "n": draw(st.integers(2, 4)),
        "periods": draw(st.integers(1, 3)),
        "scheme": draw(st.sampled_from(["power", "reshape"])),
        "pin_share": draw(st.sampled_from([0.0, 0.2, 0.5]) | st.floats(0.0, 0.5)),
    }
    return generate.scenario_text(draw(st.integers(0, 2**31 - 1)), **sizes), sizes


def decide(path, *flags):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(path), "--report", "json", *flags])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200)
@given(drawn=generated_scenarios(), paper_literal=st.booleans())
def test_generated_scenarios_run_to_checked_reports(tmp_path_factory, drawn, paper_literal):
    text, sizes = drawn
    path = tmp_path_factory.mktemp("generated") / "scenario.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = decide(path, *(["--paper-literal"] if paper_literal else []))
    if paper_literal and sizes["m"] == 3:
        # the printed constant m(m-1)*0.5 = 3 exceeds the 3 triples' 1.5, so
        # every near-consistent expert's deviation is negative
        assert (code, out) == (1, "")
        assert err == (
            "validation error: step 3 (expert weights and priorities): "
            "deviations must be nonnegative: the printed constant m(m-1)*0.5 = 3 "
            "exceeds the 1.5 that the triples add\n"
        )
        return
    assert (code, err) == (0, "")
    problems, _ = checks.check_report(out, checks.expected_for(json.loads(text)))
    assert problems == []


def outcome(data, paper_literal):
    """The report of a scenario dict, or the error it ends in."""
    try:
        return run_pipeline(scenario_from_dict(data), paper_literal=paper_literal)
    except EngineError as exc:
        return f"{type(exc).__name__}: {exc}"


def reordered_experts(data, order):
    out = json.loads(json.dumps(data))
    out["experts"] = [data["experts"][k] for k in order]
    return out


def reordered_attributes(data, order):
    """Attributes listed in ``order``, each assessment's rows and columns with them.

    The generator names the origin, so it follows its attribute.
    """
    out = json.loads(json.dumps(data))
    out["attributes"] = [data["attributes"][a] for a in order]
    out["markov"]["assessments"] = {
        e: [[rows[a][b] for b in order] for a in order]
        for e, rows in data["markov"]["assessments"].items()
    }
    return out


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(2, 7),
    q=st.integers(1, 5),
    n=st.integers(2, 5),
    scheme=st.sampled_from(["power", "reshape"]),
    paper_literal=st.booleans(),
    data=st.data(),
)
def test_reordering_experts_or_attributes_changes_no_result(seed, m, q, n, scheme, paper_literal, data):
    scenario = json.loads(generate.scenario_text(seed, m=m, q=q, n=n, periods=2, scheme=scheme))
    base = outcome(scenario, paper_literal)
    event("error" if isinstance(base, str) else "report")
    experts = data.draw(st.permutations(range(n)), label="experts")
    attributes = data.draw(st.permutations(range(q)), label="attributes")
    for reordered in (
        reordered_experts(scenario, experts),
        reordered_attributes(scenario, attributes),
    ):
        got = outcome(reordered, paper_literal)
        if isinstance(base, str):
            assert got == base
            continue
        assert got.ranked_names() == base.ranked_names()
        assert np.max(np.abs(got.comparables - base.comparables)) <= 1e-12
        assert set(got.priorities) == set(base.priorities)
        for attribute, vector in base.priorities.items():
            assert np.max(np.abs(got.priorities[attribute] - vector)) <= 1e-12


def relabelled_alternatives(data, order):
    """Alternatives listed in ``order``, each relation's rows and columns with them."""
    out = json.loads(json.dumps(data))
    out["alternatives"] = [data["alternatives"][x] for x in order]
    out["preferences"] = {
        attribute: {e: [[rows[a][b] for b in order] for a in order] for e, rows in by_expert.items()}
        for attribute, by_expert in data["preferences"].items()
    }
    return out


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(2, 7),
    q=st.integers(1, 5),
    n=st.integers(2, 5),
    scheme=st.sampled_from(["power", "reshape"]),
    paper_literal=st.booleans(),
    data=st.data(),
)
def test_relabelling_alternatives_permutes_every_result(seed, m, q, n, scheme, paper_literal, data):
    scenario = json.loads(generate.scenario_text(seed, m=m, q=q, n=n, periods=2, scheme=scheme))
    base = outcome(scenario, paper_literal)
    event("error" if isinstance(base, str) else "report")
    order = data.draw(st.permutations(range(m)), label="alternatives")
    got = outcome(relabelled_alternatives(scenario, order), paper_literal)
    if isinstance(base, str):
        assert got == base
        return
    assert np.max(np.abs(got.comparables - base.comparables[order])) <= 1e-12
    assert set(got.priorities) == set(base.priorities)
    for attribute, vector in base.priorities.items():
        assert np.max(np.abs(got.priorities[attribute] - vector[order])) <= 1e-12
    # the ranking follows, but for alternatives whose values tie within 1e-12
    position = {name: k for k, name in enumerate(got.ranked_names())}
    names, values = base.ranked_names(), np.sort(base.comparables)[::-1]
    for k in range(m - 1):
        if values[k] - values[k + 1] > 1e-12:
            assert position[names[k]] < position[names[k + 1]]


def unlinked_first_alternative(seed):
    """A generated m = 5 scenario whose C1 compares A1 with no other at certainty above 0."""
    data = json.loads(generate.scenario_text(seed, m=5, q=3, n=3, periods=2, scheme="power"))
    for rows in data["preferences"]["C1"].values():
        for j in range(1, 5):
            rows[0][j]["p"] = rows[j][0]["p"] = 0.0
    return data


def test_an_unlinked_alternative_is_a_degeneracy_event(tmp_path):
    path = tmp_path / "unlinked.json"
    path.write_text(json.dumps(unlinked_first_alternative(7)), encoding="utf-8")
    for paper_literal in ([], ["--paper-literal"]):
        code, out, err = decide(path, *paper_literal)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["priorities"]["C1"][0] == 0.2
        events = [e for e in report["diagnostics"] if e["kind"] == "degenerate_priorities"]
        assert events == [
            {
                "kind": "degenerate_priorities",
                "detail": "C1: comparisons at certainty above 0 leave the alternatives in "
                "unlinked groups [A1] [A2, A3, A4, A5]; the priorities are the "
                "minimum-norm optimum, one of many",
            }
        ]
