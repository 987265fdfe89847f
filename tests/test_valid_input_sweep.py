"""Valid but extreme scenarios each run to a sound report or a documented failure.

The scenarios come from the benchmark's seeded generator
(``perfbench/generate.py``, loaded from its file and left as it is), with
an extremes layer on top: certainties of 0, 5e-324, 1e-307, 1e-300 and 1
on preference pairs, on whole relations and on transition cells or rows;
transition rows pinned to zero bar one cell; preference pairs and
assessment cells at the scale's corners (+-4, 0) and just inside its
1e-12 edge, the pairs mirrored so that reciprocity holds; trust degrees
near 0; blends
at the simplex corners; periods and iterations from 1 to
``MAX_MARKOV_STEPS``; m = 2 to 4 alternatives and n = 2 or 3 experts.
Each scenario runs through ``cli.main`` in process at a drawn
``--stage``, ``--scheme`` and ``--paper-literal``, and must:

* raise nothing and exit 0, 1 or 3;
* at exit 0, write a JSON report with no ``NaN`` or ``Infinity``, whose
  transition rows and priority vectors are nonnegative and sum to 1
  within 1e-9;
* at exit 1 from a pipeline step, name one of the causes README's CLI
  section lists;
* raise no RuntimeWarning.

The sweep is derandomized, so a failure reproduces.
"""

import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lingdecide import STAGES, cli
from lingdecide.scenario import MAX_MARKOV_STEPS
from test_generated_scenarios import generate

README = Path(__file__).resolve().parents[1] / "README.md"
CERTAINTIES = [0.0, 5e-324, 1e-307, 1e-300, 1.0]
TRUSTS = [0.0, 5e-324, 1e-300, 1e-9, 1.0]
CORNERS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.3, 0.2)]
STEPS = [1, 2, MAX_MARKOV_STEPS]
#: coordinates at the corners of the tau = zeta = 4 scale and just inside its edge
#: (unit values 1, 1 + 9e-13 and 1 + 1.125e-13), then their mirrors
EDGES = [[4, 0], [4, 2.88e-11], [4 + 9e-13, 0]]
EDGES += [[-t, -k] for t, k in EDGES]


def edge_cell(draw, p):
    """A point at an edge coordinate, or the interval from the scale's middle to it, and its mirror."""
    edge = draw(st.sampled_from(EDGES))
    ends = sorted([edge, draw(st.sampled_from([edge, [0, 0]]))], key=lambda c: 4 * c[0] + c[1])
    mirrored = [[-t, -k] for t, k in reversed(ends)]
    if ends[0] == ends[1]:
        return {"point": ends[0], "p": p}, {"point": mirrored[0], "p": p}
    return {"interval": ends, "p": p}, {"interval": mirrored, "p": p}


def documented_causes():
    """The causes of a pipeline step's exit 1 that README's CLI section lists."""
    cli_section = README.read_text(encoding="utf-8").split("\n## CLI\n")[1].split("\n## ")[0]
    listed = re.search(r"names one of\s+these causes:\n\n(.*?)\n\n", cli_section, flags=re.S)
    return re.findall(r"^- `([^`]+)`", listed[1], flags=re.M)


CAUSES = documented_causes()


@st.composite
def extreme_scenarios(draw):
    m, n, q = draw(st.integers(2, 4)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    data = generate.scenario(
        draw(st.integers(0, 2**31 - 1)), m=m, q=q, n=n,
        periods=draw(st.sampled_from(STEPS)),
        scheme=draw(st.sampled_from(["power", "reshape"])),
        pin_share=draw(st.sampled_from([0.0, 0.5])),
    )
    data["markov"]["iterations"] = draw(st.sampled_from(STEPS))
    attributes, experts = data["attributes"], [e["name"] for e in data["experts"]]

    def some_experts():
        return draw(st.sampled_from([experts, [draw(st.sampled_from(experts))]]))

    for _ in range(draw(st.integers(0, 3))):
        p = draw(st.sampled_from(CERTAINTIES))
        target = draw(
            st.sampled_from(["pair", "relation", "cell", "row", "pinned row", "edge pair", "edge cell"])
        )
        if target == "edge pair":
            i, j = draw(st.sampled_from([(i, j) for i in range(m) for j in range(i + 1, m)]))
            attribute = draw(st.sampled_from(attributes))
            for e in some_experts():
                relation = data["preferences"][attribute][e]
                relation[i][j], relation[j][i] = edge_cell(draw, p)
            continue
        if target == "edge cell":
            i, j = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
            for e in some_experts():
                data["markov"]["assessments"][e][i][j] = edge_cell(draw, p)[0]
            continue
        if target in ("pair", "relation"):
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
            if target == "pair":
                pairs = [draw(st.sampled_from(pairs))]
            attribute = draw(st.sampled_from(attributes))
            for e in some_experts():
                relation = data["preferences"][attribute][e]
                for i, j in pairs:
                    relation[i][j]["p"] = relation[j][i]["p"] = p
            continue
        i = draw(st.integers(0, q - 1))
        columns = [draw(st.integers(0, q - 1))] if target == "cell" else range(q)
        kept = draw(st.integers(0, q - 1))
        for e in some_experts():
            row = data["markov"]["assessments"][e][i]
            for j in columns:
                if target != "pinned row":
                    row[j]["p"] = p
                elif j != kept:
                    row[j] = generate.term(0, 0, 1.0)
    for expert in data["experts"]:
        if draw(st.booleans()):
            expert["trust"] = draw(st.sampled_from(TRUSTS))
    if not any(expert["trust"] for expert in data["experts"]):
        data["experts"][0]["trust"] = draw(st.sampled_from(TRUSTS[1:]))
    data["blend"] = dict(zip(("alpha", "beta", "gamma"), draw(st.sampled_from(CORNERS))))
    return data


def run(path, flags):
    """``decide`` in process: its exit code, stdout, stderr and RuntimeWarnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path), "--report", "json", *flags])
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), numeric


def no_constant(name):
    raise AssertionError(f"the report holds {name}")


@settings(derandomize=True, max_examples=150)
@given(
    data=extreme_scenarios(),
    stage=st.sampled_from(STAGES),
    scheme=st.sampled_from([[], ["--scheme", "power"], ["--scheme", "reshape"]]),
    paper_literal=st.sampled_from([[], ["--paper-literal"]]),
)
def test_extreme_valid_scenarios_run_to_sound_reports(tmp_path_factory, data, stage, scheme, paper_literal):
    path = tmp_path_factory.mktemp("sweep") / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err, numeric = run(path, ["--stage", stage, *scheme, *paper_literal])
    assert numeric == []
    assert code in (0, 1, 3), err
    event(f"exit {code}")
    if code == 1:
        assert err.startswith("validation error: step "), err
        assert any(cause in err for cause in CAUSES), err
        return
    if code == 3:
        return
    assert err == ""
    report = json.loads(out, parse_constant=no_constant)
    rows = np.array(report["transition"])
    assert rows.min() >= 0.0 and np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-9
    for vector in report["priorities"].values():
        assert min(vector) >= 0.0 and abs(sum(vector) - 1.0) <= 1e-9
