"""A coordinate off the scale is worded alike on every route that meets it.

The routes are the checked transform (``paper.to_unit``), a lone cell
(``PeakIntervalTerm``), a matrix built from fields (``TermMatrix.from_fields``)
and the ``decide`` command line on a scenario file that holds the
coordinate, as a ``[t, k]`` pair and, where one can spell it, as a term
literal. Each case also pins which side of the 1e-12 edge a coordinate
falls on.
"""

import json
import math

import pytest

from lingdecide.cli import main
from lingdecide.errors import RangeError
from lingdecide.paper import PeakIntervalTerm, to_unit
from lingdecide.scale import LinguisticScale, TermCoord
from lingdecide.terms import TermMatrix
from helpers import uniform_scenario_dict

SCALE = LinguisticScale(4, 4)

#: (t, k, the coordinate as a term literal or None, its fault or None if it is on the scale)
CASES = {
    "int t beyond tau": (9, 0, "s9(o0)", "first-hierarchy subscript t=9.0 outside [-4, 4]"),
    "float t beyond tau": (9.0, 0.0, "s9.0(o0.0)", "first-hierarchy subscript t=9.0 outside [-4, 4]"),
    "k beyond zeta": (0, -5.5, "s0(o-5.5)", "second-hierarchy subscript k=-5.5 outside [-4, 4]"),
    "unit value above 1": (
        4, 1, "s4(o1)", "coordinate (t=4.0, k=1.0) has unit value 1.03125 outside [0, 1]"
    ),
    "unit value below 0": (
        -4, -1, "s-4(o-1)", "coordinate (t=-4.0, k=-1.0) has unit value -0.03125 outside [0, 1]"
    ),
    "nan t": (math.nan, 0, None, "first-hierarchy subscript t=nan outside [-4, 4]"),
    "infinite k": (0, math.inf, None, "second-hierarchy subscript k=inf outside [-4, 4]"),
    "t just inside the edge": (4 + 5e-13, 0, "s4.0000000000005(o0)", None),
    "t just beyond the edge": (
        4 + 2e-12, 0, "s4.000000000002(o0)",
        "first-hierarchy subscript t=4.000000000002 outside [-4, 4]",
    ),
    "unit value just inside the edge": (4, 1.6e-11, "s4(o0.000000000016)", None),
    "unit value just beyond the edge": (
        4, 6.4e-11, "s4(o0.000000000064)",
        "coordinate (t=4.0, k=6.4e-11) has unit value 1.000000000002 outside [0, 1]",
    ),
}

cases = pytest.mark.parametrize("t, k, literal, fault", CASES.values(), ids=CASES)


def raised(make) -> str | None:
    try:
        make()
    except RangeError as err:
        return str(err)
    return None


@cases
def test_to_unit(t, k, literal, fault):
    assert raised(lambda: to_unit(SCALE, TermCoord(t, k))) == fault


#: the coordinate as both ends of a point, or as the upper end of an interval from s-4(o0)
ends = pytest.mark.parametrize("lower", [None, (-4, 0)], ids=["point", "upper end"])


@cases
@ends
def test_a_lone_cell(t, k, literal, fault, lower):
    coord = TermCoord(t, k)
    start = coord if lower is None else TermCoord(*lower)
    assert raised(lambda: PeakIntervalTerm(SCALE, start, coord, 1.0)) == fault


@cases
@ends
def test_from_fields(t, k, literal, fault, lower):
    start = (t, k) if lower is None else lower
    message = raised(lambda: TermMatrix.from_fields(SCALE, [[[*start, t, k, 1.0]]]))
    assert message == (fault and f"cell (0, 0): {fault}")


def decide(tmp_path, capsys, coord) -> tuple[int, str]:
    """Exit code and stderr of ``decide`` on a scenario holding ``coord`` in an assessment."""
    data = json.loads(json.dumps(uniform_scenario_dict()))
    data["markov"]["assessments"]["e1"][0][1] = {"point": coord, "p": 1.0}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")  # NaN and Infinity, as json reads them
    code = main([str(path)])
    return code, capsys.readouterr().err


#: each case's coordinate as it stands in a scenario file: a [t, k] pair, and its literal if any
SPELLED = [
    pytest.param(spelled, fault, id=f"{name} as {form}")
    for name, (t, k, literal, fault) in CASES.items()
    for form, spelled in (("pair", [t, k]), ("literal", literal))
    if spelled is not None
]


@pytest.mark.parametrize("coord, fault", SPELLED)
def test_decide(tmp_path, capsys, coord, fault):
    code, err = decide(tmp_path, capsys, coord)
    if fault is None:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert f"\n  markov.assessments.e1[0][1].point: {fault}\n" in err
