"""Exact validation output for broken term matrices.

Both fixtures break Markov assessments and preference relations the same
ways, so the two decoding paths must report the same cell faults with the
same text, at the same locations and in the same order.
"""

import json
from pathlib import Path

import pytest

from lingdecide.errors import ScenarioValidationError
from lingdecide.scenario import scenario_from_dict

DATA = Path(__file__).parent / "data"


def violations_in(name):
    data = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(data)
    return err.value.violations


def test_cell_faults_are_reported_exactly_and_in_order():
    # markov.assessments.e3 is valid though not reciprocal: assessments
    # carry no reciprocity rule
    assert violations_in("invalid_cells") == [
        "markov.assessments.e1[0][0].point: first-hierarchy subscript t=9.0 outside [-4, 4]",
        "markov.assessments.e1[0][1].interval[0]: first-hierarchy subscript t=-5.0 outside [-4, 4]",
        "markov.assessments.e1[0][2].interval[1]: second-hierarchy subscript k=7.0 outside [-4, 4]",
        "markov.assessments.e1[1][0].point: not a term literal: 's2(x1)'",
        "markov.assessments.e1[1][1]: interval endpoints out of order: unit 0.625 > 0.375",
        "markov.assessments.e1[1][2]: certainty p=1.5 outside [0, 1]",
        "markov.assessments.e1[2][0]: 'p' must be a number, got 'high'",
        "markov.assessments.e1[2][1]: missing certainty field 'p'",
        "markov.assessments.e2[1]: expected 3 entries",
        "preferences.Q1.e1[0][0].point: second-hierarchy subscript k=-5.0 outside [-4, 4]",
        "preferences.Q1.e1[0][1].interval[0]: first-hierarchy subscript t=-4.5 outside [-4, 4]",
        "preferences.Q1.e1[0][2].interval[1]: second-hierarchy subscript k=5.0 outside [-4, 4]",
        "preferences.Q1.e1[1][0].point: not a term literal: 's1(o)'",
        "preferences.Q1.e1[1][1]: interval endpoints out of order: unit 0.5625 > 0.53125",
        "preferences.Q1.e1[1][2]: certainty p=-0.2 outside [0, 1]",
        "preferences.Q1.e1[2][0]: 'p' must be a number, got None",
        "preferences.Q1.e1[2][1]: missing certainty field 'p'",
        "preferences.Q1.e2[2]: expected 3 entries",
        "preferences.Q2.e1: (0, 0) diagonal: expected the indifferent point (unit 0.5, p=1), "
        "got [0.53125, 0.53125] p=1",
        "preferences.Q2.e1: (0, 1) probability-reciprocity: p=0.6 vs p=0.4",
        "preferences.Q2.e1: (0, 2) endpoint-reciprocity: unit sums (1.03125, 1.03125) differ from 1",
    ]


def test_unmatched_experts_are_reported_exactly_and_in_order():
    assert violations_in("unmatched_experts") == [
        "markov.assessments: missing experts ['e3']",
        "markov.assessments: unknown experts ['e9']",
        "preferences.Q1: missing experts ['e2']",
        "preferences.Q2: unknown experts ['e4']",
    ]
