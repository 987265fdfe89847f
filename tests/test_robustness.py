"""Whole scenarios with a few nodes broken end in a documented exit code.

Each example takes the bundled case or the solver-paths fixture, drops
one to three nodes or overwrites them with values from a fixed pool, and
runs ``decide`` in-process with and without ``--paper-literal``. It must
exit 0, 1, 2 or 3 and raise nothing.
"""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingdecide import cli
from lingdecide.scenario import bundled_scenario_text

DATA = Path(__file__).parent / "data"
BASES = {
    "financial_crisis": json.loads(bundled_scenario_text()),
    "solver_paths": json.loads((DATA / "solver_paths.json").read_text(encoding="utf-8")),
}
#: what a mutation writes; 1000 and 1001 sit on either side of the
#: ``markov.periods`` and ``markov.iterations`` cap
POOL = [
    None, True, False, "", "s0(o0)", [], {},
    1e308, -1e308, 10**30, math.nan, math.inf, 1000, 1001,
]
DROP = object()


@st.composite
def mutated_scenarios(draw):
    """A base scenario with one to three nodes dropped or overwritten.

    Each mutation walks down from the root, one random child at a time,
    and stops at a random depth, so nodes near the root (the scale, the
    name lists, the Markov settings) are hit about as often as cells.
    """
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            continue
        value = draw(st.sampled_from([DROP, *POOL]))
        if value is DROP:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
    return doc


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "scenario.json"


@settings(max_examples=400, deadline=None)
@given(doc=mutated_scenarios())
def test_mutated_scenarios_end_in_a_documented_exit_code(doc, scenario_path):
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    for extra in ([], ["--paper-literal"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(scenario_path), "--report", "json", *extra])
        assert code in (0, 1, 2, 3), err.getvalue()
        assert (code == 0) == (err.getvalue() == ""), err.getvalue()
