"""The report writer against ``json.dumps(..., indent=2)``, byte for byte."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingdecide.pipeline import _write_json, run_pipeline
from lingdecide.scenario import bundled_scenario_text, scenario_from_dict

from test_generated_scenarios import generate

DATA = Path(__file__).parent / "data"


def written(tree):
    chunks = []
    _write_json(tree, "\n", chunks.append)
    return "".join(chunks)


EDGE_FLOATS = [-0.0, 0.0, 1e-09, 1e300, -1e-300, 5e-324, math.nan, math.inf, -math.inf]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
# non-ASCII, quotes, backslashes and control characters, besides any text
strings = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "ümlaut 字 \U0001f600", ""])
scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | floats | strings
)
trees = st.recursive(
    scalars | st.lists(floats),
    lambda children: st.lists(children) | st.dictionaries(strings, children),
    max_leaves=40,
)


@given(trees)
def test_writer_equals_json_dumps_with_indent_2(tree):
    assert written(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [[], {}, [[]], {"a": {}}, [[], {}, [1.5]], (1.0, 2.0)], ids=repr)
def test_empty_and_nested_containers(tree):
    assert written(tree) == json.dumps(tree, indent=2)


def test_unserializable_values_are_a_type_error_as_in_json():
    for value in ({1, 2}, object(), [1.0, b"x"]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            written(value)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_writer_on_every_data_file(path):
    tree = json.loads(path.read_text(encoding="utf-8"))
    assert written(tree) == json.dumps(tree, indent=2)


def scenarios():
    """The bundled case, the one data file that holds a valid scenario, and generated ones."""
    out = {"bundled": json.loads(bundled_scenario_text())}
    out["solver_paths.json"] = json.loads((DATA / "solver_paths.json").read_text(encoding="utf-8"))
    for seed, scheme in ((1, "power"), (5, "reshape"), (61, "reshape")):
        text = generate.scenario_text(seed, m=5, q=6, n=3, periods=3, scheme=scheme, pin_share=0.3)
        out[f"generated-{seed}"] = json.loads(text)
    return out


SCENARIOS = scenarios()


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("stage", ["markov", "weights", "all"])
@pytest.mark.parametrize("paper_literal", [False, True])
def test_report_json_equals_json_dumps(name, stage, paper_literal):
    scenario = scenario_from_dict(SCENARIOS[name])
    report = run_pipeline(scenario, stage=stage, paper_literal=paper_literal)
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"
