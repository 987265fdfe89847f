"""The scenario decoder reads term matrices straight into arrays.

Its violations, and the arrays of every matrix that decodes, must match
the cell-by-cell reference decoder in ``helpers``; decoding builds no
cells.
"""

import copy
import json
import math
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lingdecide.cells import _read_cells
from lingdecide.errors import RangeError, ScenarioValidationError
from lingdecide.markov import LinguisticMarkovAssessment
from lingdecide.paper import PeakIntervalTerm, score, to_unit
from lingdecide.prefs import PreferenceRelation
from lingdecide.scale import LinguisticScale, TermCoord, unit_value
from lingdecide.reader import _bulk_fields
from lingdecide.scenario import scenario_from_dict
from helpers import (
    SCALE,
    cell_at,
    per_matrix_decode_preferences,
    reference_decode_matrix,
    uniform_scenario_dict,
)

DATA = Path(__file__).parent / "data"
#: SCALE as a scenario declares it, with the default labels filled in
LABELLED = LinguisticScale(
    SCALE.tau,
    SCALE.zeta,
    tuple(f"s{t}" for t in range(-SCALE.tau, SCALE.tau + 1)),
    tuple(f"o{k}" for k in range(-SCALE.zeta, SCALE.zeta + 1)),
)
NEUTRAL = {"point": [0, 0], "p": 1.0}
HUGE = 10**400


def scenario_around(kind, raw, size):
    """A scenario whose only evidence of ``kind`` is expert e1's ``raw``.

    Returns the scenario dict and the location of e1's matrix; e2's matrix
    is the neutral one, valid in both kinds.
    """
    neutral = [[NEUTRAL] * size for _ in range(size)]
    base = {
        "format": 1,
        "scale": {"tau": SCALE.tau, "zeta": SCALE.zeta},
        "experts": [{"name": "e1", "trust": 0.5}, {"name": "e2", "trust": 0.5}],
    }
    if kind is LinguisticMarkovAssessment:
        attributes = [f"Q{i + 1}" for i in range(size)]
        return {
            **base,
            "attributes": attributes,
            "alternatives": ["A1", "A2"],
            "markov": {"origin": 0, "assessments": {"e1": raw, "e2": neutral}},
            "overrides": {"priority_vectors": {a: [0.5, 0.5] for a in attributes}},
        }, "markov.assessments.e1"
    return {
        **base,
        "attributes": ["Q1"],
        "alternatives": [f"A{i + 1}" for i in range(size)],
        "overrides": {"transition_matrix": [[1.0]]},
        "preferences": {"Q1": {"e1": raw, "e2": neutral}},
    }, "preferences.Q1.e1"


def decoded(scenario, kind):
    if kind is LinguisticMarkovAssessment:
        return scenario.markov.assessments[0]
    return scenario.preferences["Q1"][0]


# subscripts of coordinates on the scale: integers, non-canonical pairs
# such as (1, -2), and fractional ones
subscripts = st.one_of(
    st.integers(-4, 4),
    st.floats(-4.0, 4.0).map(lambda x: round(x, 2)),
)
on_scale = st.tuples(subscripts, subscripts).filter(
    lambda c: 0.0 <= unit_value(SCALE, *c) <= 1.0
)
certainties = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))


@st.composite
def spelled(draw, coord):
    """``coord`` as a ``[t, k]`` pair or as the equivalent term literal."""
    t, k = coord
    if draw(st.booleans()):
        return f"s{t}(o{k})"
    return [t, k]


def mirror(coord):
    return tuple(-x for x in coord)


@st.composite
def valid_cells(draw, lower, upper, p):
    if lower == upper and draw(st.booleans()):
        return {"point": draw(spelled(lower)), "p": p}
    return {"interval": [draw(spelled(lower)), draw(spelled(upper))], "p": p}


@st.composite
def valid_matrices(draw, kind, size):
    """Valid cells; relations are reciprocal with the neutral diagonal."""
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if kind is PreferenceRelation and i == j:
                rows[i][j] = dict(NEUTRAL)
                continue
            if kind is PreferenceRelation and i > j:
                continue
            a, b = sorted((draw(on_scale), draw(on_scale)), key=lambda c: unit_value(SCALE, *c))
            if draw(st.booleans()):
                b = a
            p = draw(certainties)
            rows[i][j] = draw(valid_cells(a, b, p))
            if kind is PreferenceRelation:
                rows[j][i] = draw(valid_cells(mirror(b), mirror(a), p))
    return rows


# any coordinate, on the scale or not, well formed or not
coordinates = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(list),
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(list),
    st.builds(lambda t, k: f"s{t}(o{k})", st.integers(-6, 6), st.integers(-6, 6)),
    st.sampled_from(
        [
            [4, 1],
            [-4, -1],
            [4.0000000000001, 0],
            [HUGE, 0],
            [0, -HUGE],
            [float("nan"), 0],
            [0, float("inf")],
            [1e308, 1e308],
            [True, 0],
            ["1", 0],
            [1],
            [1, 2, 3],
            None,
            7,
            "nonsense",
            "s1(o)",
            "s4(o1)",
            "s0.3(o-1.7)",
            "s" + "9" * 400 + "(o0)",
        ]
    ),
)
any_p = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from([0, 1, HUGE, float("nan"), None, "high", True, False]),
)


@st.composite
def any_cells(draw):
    shapes = ["point", "interval", "interval", "nearly-reversed", "neither", "bad-interval"]
    shape = draw(st.sampled_from(shapes))
    if shape == "point":
        cell = {"point": draw(coordinates)}
    elif shape == "interval":
        cell = {"interval": [draw(coordinates), draw(coordinates)]}
    elif shape == "nearly-reversed":
        # lower above upper by about 1e-13 (within the edge) or 3e-12
        cell = {"interval": [[0, draw(st.sampled_from([3e-12, 1e-10]))], [0, 0]]}
    elif shape == "bad-interval":
        cell = {"interval": draw(st.sampled_from([[[0, 0]], "s0(o0)", None]))}
    else:
        cell = {}
    if draw(st.integers(0, 5)):
        cell["p"] = draw(any_p)
    return draw(st.sampled_from([cell, cell, cell, cell, None, [cell]]))


@st.composite
def raw_matrices(draw, kind):
    """A valid matrix with up to three cells, and maybe a row, replaced."""
    size = draw(st.integers(kind.minimum_size, 4))
    rows = draw(valid_matrices(kind, size))
    index = st.integers(0, size - 1)
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(index)][draw(index)] = draw(any_cells())
    if not draw(st.integers(0, 7)):
        i = draw(index)
        rows[i] = draw(st.sampled_from([rows[i][1:], rows[i] + [NEUTRAL], None]))
    return size, rows


def assert_decodes_like_the_reference(kind, raw, size):
    scenario, where = scenario_around(kind, raw, size)
    faults, reference = reference_decode_matrix(kind, LABELLED, raw, size, where)
    if faults:
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(scenario)
        assert err.value.violations == faults
        return
    matrix = decoded(scenario_from_dict(scenario), kind)
    assert type(matrix) is kind
    cells = [[cell_at(reference, i, j) for j in range(size)] for i in range(size)]
    for name, value in (
        ("lower", lambda c: to_unit(LABELLED, c.lower)),
        ("upper", lambda c: to_unit(LABELLED, c.upper)),
        ("p", lambda c: c.p),
        ("scores", score),
    ):
        want = np.array([[value(c) for c in row] for row in cells])
        assert getattr(matrix, name).tobytes() == want.tobytes(), name
    assert matrix == reference


@settings(max_examples=200)
@given(data=st.data(), kind=st.sampled_from([LinguisticMarkovAssessment, PreferenceRelation]))
def test_array_decoder_matches_the_cell_reference(data, kind):
    size, raw = data.draw(raw_matrices(kind))
    assert_decodes_like_the_reference(kind, raw, size)


@pytest.mark.parametrize("kind", [LinguisticMarkovAssessment, PreferenceRelation])
@pytest.mark.parametrize(
    "cell",
    [
        {"point": [9, 0], "p": HUGE},
        {"interval": [[0, 0], "bad"], "p": HUGE},
        {"interval": [[1, 0], [0, 0]], "p": HUGE},
        {"interval": [[1, 0], [0, 0]], "p": 1.5},
        {"interval": [[0, 3e-12], [0, 0]], "p": 0.5},
        {"interval": [[0, 1e-10], [0, 0]], "p": 0.5},
        {"interval": [[HUGE, 0], [0, 99]], "p": 0.5},
        {"interval": ["s9(o0)", [0, HUGE]], "p": -1},
        {"interval": [[1e308, 1e308], [0, 0]], "p": 0.5},
        {"point": [float("nan"), 0], "p": float("nan")},
        {"point": [0, 0], "p": float("nan")},
        {"point": [4, 1], "p": 0.5},
        {"point": [4.0000000000001, 0], "p": 1},
        {"point": "s" + "9" * 400 + "(o0)", "p": 0.5},
    ],
)
def test_cells_at_the_rule_edges_decode_like_the_reference(kind, cell):
    # cell (0, 1), off the diagonal of a relation
    raw = [[NEUTRAL, cell], [NEUTRAL, NEUTRAL]]
    assert_decodes_like_the_reference(kind, raw, 2)


@pytest.mark.parametrize(
    "lower, upper, p",
    [
        ([9, 0], [0, 0], 0.5),
        ([0, 0], [0, -9], 0.5),
        ([-4, -1], [0, 0], 0.5),
        ([2, 0], [-2, 0], 0.5),
        ([0, 0], [1, 0], 1.5),
        ([0, 0], [1, 0], float("nan")),
    ],
    ids=["t off the scale", "k off the scale", "unit value off [0, 1]", "reversed endpoints", "p > 1", "p = nan"],
)
def test_a_lone_cell_and_the_decoder_word_a_fault_alike(lower, upper, p):
    with pytest.raises(RangeError) as lone:
        PeakIntervalTerm(SCALE, TermCoord(*lower), TermCoord(*upper), p)
    raw = [[NEUTRAL, {"interval": [lower, upper], "p": p}], [NEUTRAL, NEUTRAL]]
    scenario, where = scenario_around(LinguisticMarkovAssessment, raw, 2)
    with pytest.raises(ScenarioValidationError) as decoding:
        scenario_from_dict(scenario)
    assert [v.split(": ", 1)[1] for v in decoding.value.violations] == [str(lone.value)]


def counting_cells(monkeypatch):
    built = []
    check = PeakIntervalTerm.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PeakIntervalTerm, "__post_init__", counted)
    return built


def test_decoding_builds_no_cells(monkeypatch):
    raw = json.loads((DATA / "solver_paths.json").read_text(encoding="utf-8"))
    built = counting_cells(monkeypatch)
    scenario = scenario_from_dict(raw)
    assert built == []

    experts = scenario.experts
    pairs = [
        (m, raw["markov"]["assessments"][e], f"markov.assessments.{e}")
        for m, e in zip(scenario.markov.assessments, experts)
    ]
    for attribute, relations in scenario.preferences.items():
        pairs += [
            (r, raw["preferences"][attribute][e], f"preferences.{attribute}.{e}")
            for r, e in zip(relations, experts)
        ]
    for matrix, rows, where in pairs:
        _, reference = reference_decode_matrix(type(matrix), LABELLED, rows, len(rows), where)
        assert matrix == reference


def test_fields_keep_the_written_coordinates():
    data = json.loads(json.dumps(uniform_scenario_dict()))
    data["preferences"]["Q1"]["e1"][0][1] = {"point": "s1(o-2)", "p": 1.0}
    data["preferences"]["Q1"]["e1"][1][0] = {"point": [-1, 2], "p": 1.0}
    data["preferences"]["Q1"]["e1"][0][2] = {"interval": ["s-0.5(o-2)", "s0(o0)"], "p": 0.5}
    data["preferences"]["Q1"]["e1"][2][0] = {"interval": [[0, 0], [0.5, 2]], "p": 0.5}
    relation = scenario_from_dict(data).preferences["Q1"][0]
    assert relation.fields[0, 1, :2].tolist() == [1.0, -2.0]
    assert relation.fields[1, 0, 2:4].tolist() == [-1.0, 2.0]
    assert relation.fields[0, 2, :2].tolist() == [-0.5, -2.0]
    assert relation.fields[2, 0, 2:4].tolist() == [0.5, 2.0]


# leaves the bulk pass converts, and leaves it must leave to the cell reader
json_numbers = st.one_of(
    st.integers(-6, 6),
    st.floats(-5.0, 5.0),
    st.sampled_from([2**70 + 1, 10**300, 1e308, -0.0, math.nan, math.inf, -math.inf]),
)
api_leaves = st.sampled_from(
    [
        HUGE, -HUGE, True, False, None, "s0(o0)", "s1(o-2)",
        np.float64(0.25), np.int64(1), np.bool_(False), [0, 0],
    ]
)
# containers the cell reader never takes as a pair
odd_pairs = st.sampled_from([{0, 1}, {1: 0, 2: 0}, frozenset(), [0], [0, 0, 0], "s0(o0)", None])


@st.composite
def pairs(draw, leaf):
    box = draw(st.sampled_from([list, list, tuple]))
    return box([draw(leaf), draw(leaf)])


@st.composite
def api_cells(draw, leaf, pair, forms=("point", "interval"), odd=False):
    """A cell built the way the Python API may build one, JSON-like or not."""
    form = draw(st.sampled_from(forms))
    cell = {}
    if form in ("point", "both"):
        cell["point"] = draw(pair)
    if form in ("interval", "both"):
        interval = st.one_of(pairs(pair), st.sampled_from([{0: [0, 0], 1: [0, 0]}, [[0, 0]]]))
        cell["interval"] = draw(interval if odd else pairs(pair))
    if not odd or draw(st.integers(0, 7)):
        cell["p"] = draw(leaf)
    return cell


clean_cells = api_cells(json_numbers, pairs(json_numbers))
any_api_cells = st.one_of(
    api_cells(
        st.one_of(json_numbers, api_leaves),
        st.one_of(pairs(st.one_of(json_numbers, api_leaves)), odd_pairs),
        forms=("point", "interval", "both", "neither"),
        odd=True,
    ),
    st.sampled_from([None, [NEUTRAL], "s0(o0)"]),
)


@st.composite
def api_matrices(draw):
    """A matrix of JSON-like cells with maybe a cell, and maybe a row, replaced."""
    size = draw(st.integers(1, 4))
    rows = [[draw(clean_cells) for _ in range(size)] for _ in range(size)]
    index = st.integers(0, size - 1)
    if draw(st.booleans()):
        rows[draw(index)][draw(index)] = draw(any_api_cells)
    if not draw(st.integers(0, 7)):
        i = draw(index)
        rows[i] = draw(st.sampled_from([tuple(rows[i]), rows[i][1:], rows[i] + [NEUTRAL], None]))
    return size, rows


def bulk_pass(raw):
    """``reader._bulk_fields`` over ``raw`` written as JSON text and read back by json:
    (its result, the JSON read back, the text)."""
    text = json.dumps(raw, default=str)
    return _bulk_fields(json.loads(text), text, 0, len(text)), json.loads(text), text


@settings(max_examples=200)
@given(matrix=api_matrices())
def test_bulk_pass_agrees_with_the_cell_reader(matrix):
    size, raw = matrix
    fields, raw, text = bulk_pass(raw)
    reference, faults = _read_cells(raw, size)
    # it walks exactly the matrices the cell reader finds no fault in, but
    # for a text holding a ``u`` or an ``s``: a bool, a null, a term literal
    # or another string
    assert (fields is not None) == (not faults and "u" not in text and "s" not in text)
    if fields is not None:
        assert fields == reference.tobytes()


@pytest.mark.parametrize("kind", [LinguisticMarkovAssessment, PreferenceRelation])
@pytest.mark.parametrize(
    "cell",
    [
        {"interval": ((0, 0), (1, 0.5)), "p": 0.5},
        {"point": (0, 0), "p": 1},
        {"interval": [(0, 0), [1, 0.5]], "p": 0.5},
        {"point": {0, 1}, "p": 0.5},
        {"point": {1: 0, 2: 0}, "p": 0.5},
        {"interval": {1: [0, 0], 2: [0, 0]}, "p": 0.5},
        {"interval": {(0, 0), (1, 0)}, "p": 0.5},
        {"point": [np.float64(1), 0], "p": 0.5},
        {"point": [0, 0], "p": np.float64(0.5)},
        {"point": [np.int64(1), 0], "p": 0.5},
        {"point": [0, 0], "p": np.bool_(True)},
        {"point": [True, 0], "p": 0.5},
        {"point": [0, 0], "p": False},
        {"point": [0, 0], "p": HUGE},
        {"point": [0, -HUGE], "p": 0.5},
        {"point": [0], "p": 0.5},
        {"interval": [[0, 0]], "p": 0.5},
        {"interval": [[0, 0], [0, 0], [1, 0]], "p": 0.5},
        {"interval": [[0, 0], [1]], "p": 0.5},
        {"interval": [[0, 0], [1, 0, 0]], "p": 0.5},
    ],
)
def test_python_api_containers_decode_as_before(kind, cell):
    # cell (0, 1), off the diagonal of a relation; Python containers are
    # read cell by cell
    raw = [[NEUTRAL, cell], [NEUTRAL, NEUTRAL]]
    assert_decodes_like_the_reference(kind, raw, 2)


@pytest.mark.parametrize("kind", [LinguisticMarkovAssessment, PreferenceRelation])
@pytest.mark.parametrize(
    "short, long",
    [([[0, 0], [1]], [[0, 0], [0, 1, 0]]), ([[1], [0, 0]], [[0, 1, 0], [0, 0]])],
    ids=["upper", "lower"],
)
def test_short_and_long_coordinates_do_not_offset_each_other(kind, short, long):
    # one leaf short in one cell and one too many in another still add up
    # to five numbers a cell
    raw = [
        [NEUTRAL, {"interval": short, "p": 0.5}],
        [{"interval": long, "p": 0.5}, NEUTRAL],
    ]
    assert bulk_pass(raw)[0] is None
    assert_decodes_like_the_reference(kind, raw, 2)


@pytest.mark.parametrize("kind", [LinguisticMarkovAssessment, PreferenceRelation])
@pytest.mark.parametrize(
    "text, bulk",
    [
        ('{"point": [NaN, 0], "p": 1}', True),
        ('{"interval": [[0, 0], [Infinity, 0]], "p": 1}', True),
        ('{"point": [0, 0], "p": -Infinity}', True),
        ('{"point": [0, 0], "p": NaN}', True),
        ('{"point": [0, ' + "9" * 400 + '], "p": 1}', False),
        ('{"point": [0, 0], "p": ' + "9" * 400 + "}", False),
    ],
)
def test_json_non_finite_and_long_numbers_decode_as_before(kind, text, bulk):
    text = f'[[{json.dumps(NEUTRAL)}, {text}], [{json.dumps(NEUTRAL)}, {json.dumps(NEUTRAL)}]]'
    raw = json.loads(text)
    assert (_bulk_fields(raw, text, 0, len(text)) is not None) is bulk
    assert_decodes_like_the_reference(kind, raw, 2)


def numeric_matrix(kind, size, rng):
    """A valid matrix whose every coordinate is a ``[t, k]`` list of integers."""
    grid = sorted(
        ((t, k) for t in range(-4, 5) for k in range(-4, 5) if 0 <= unit_value(SCALE, t, k) <= 1),
        key=lambda c: unit_value(SCALE, *c),
    )
    rows = [[dict(NEUTRAL) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if kind is PreferenceRelation and i >= j:
                continue
            lo, hi = sorted(rng.sample(range(len(grid)), 2))
            p = round(rng.uniform(0.0, 1.0), 3)
            rows[i][j] = {"interval": [list(grid[lo]), list(grid[hi])], "p": p}
            if kind is PreferenceRelation:
                rows[j][i] = {"interval": [list(mirror(grid[hi])), list(mirror(grid[lo]))], "p": p}
    return rows


@pytest.mark.parametrize("kind", [LinguisticMarkovAssessment, PreferenceRelation])
def test_thirty_by_thirty_matrix_takes_the_bulk_pass(kind):
    size = 30
    raw = numeric_matrix(kind, size, random.Random(30))
    fields = bulk_pass(raw)[0]
    reference, faults = _read_cells(raw, size)
    assert faults == {} and fields == reference.tobytes()
    assert_decodes_like_the_reference(kind, raw, size)


@st.composite
def preference_blocks(draw):
    """A preferences block of q attributes and n experts, with faults injected anywhere.

    Returns the alternatives' count, the attribute and expert names, the
    block and the attributes a priority override covers.
    """
    q, n, m = draw(st.integers(1, 4)), draw(st.integers(2, 3)), draw(st.integers(2, 4))
    attributes = [f"Q{a + 1}" for a in range(q)]
    experts = [f"e{k + 1}" for k in range(n)]
    # a few valid relations, each copied into many places, keep the draw cheap
    pool = draw(st.lists(valid_matrices(PreferenceRelation, m), min_size=1, max_size=3))
    block = {
        a: {e: copy.deepcopy(draw(st.sampled_from(pool))) for e in experts} for a in attributes
    }
    covered = set()
    index = st.integers(0, m - 1)
    faults = ["cell", "cell", "cell", "reciprocity", "row", "rows", "experts", "attribute"]
    for _ in range(draw(st.integers(0, 4))):
        attr, expert = draw(st.sampled_from(attributes)), draw(st.sampled_from(experts))
        fault = draw(st.sampled_from(faults))
        sub = block.get(attr)
        rows = sub.get(expert) if isinstance(sub, dict) else None
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            continue
        i, j = draw(index), draw(index)
        if i >= len(rows):
            continue
        if fault == "cell" and j < len(rows[i]):
            rows[i][j] = draw(any_cells())
        elif fault == "reciprocity" and j < len(rows[i]):
            a, b = sorted((draw(on_scale), draw(on_scale)), key=lambda c: unit_value(SCALE, *c))
            rows[i][j] = draw(valid_cells(a, b, draw(certainties)))
        elif fault == "row":
            rows[i] = draw(st.sampled_from([rows[i][1:], rows[i] + [NEUTRAL], None]))
        elif fault == "rows":
            block[attr][expert] = draw(st.sampled_from([rows[1:], rows + [rows[0]], None]))
        elif fault == "experts":
            change = draw(st.sampled_from(["missing", "unknown", "not an object"]))
            if change == "missing":
                del block[attr][expert]
            elif change == "unknown":
                block[attr]["e9"] = rows
            else:
                block[attr] = [rows]
        elif fault == "attribute":
            change = draw(st.sampled_from(["covered", "uncovered", "unknown"]))
            if change == "unknown":
                block["Q9"] = block.pop(attr)
            else:
                del block[attr]
            if change == "covered":
                covered.add(attr)
    return m, attributes, experts, block, covered


def scenario_of_block(m, attributes, experts, block, covered):
    q = len(attributes)
    return {
        "format": 1,
        "scale": {"tau": SCALE.tau, "zeta": SCALE.zeta},
        "attributes": attributes,
        "alternatives": [f"A{x + 1}" for x in range(m)],
        "experts": [{"name": e, "trust": 0.5} for e in experts],
        "overrides": {
            "transition_matrix": np.eye(q).tolist(),
            "priority_vectors": {a: [1.0 / m] * m for a in sorted(covered)},
        },
        "preferences": block,
    }


@settings(max_examples=200)
@given(drawn=preference_blocks())
def test_stacked_decoder_matches_the_per_matrix_decoder(drawn):
    m, attributes, experts, block, covered = drawn
    faults, reference = per_matrix_decode_preferences(
        block, LABELLED, attributes, experts, m, covered
    )
    scenario = scenario_of_block(*drawn)
    event("faulty" if faults else "clean")
    if faults:
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(scenario)
        assert err.value.violations == faults
        return
    decoded_relations = scenario_from_dict(scenario).preferences
    assert list(decoded_relations) == list(reference)
    relations = [r for group in decoded_relations.values() for r in group]
    # every relation is a view of one stack
    assert len({id(r.fields.base) for r in relations}) <= 1
    for group, want in zip(decoded_relations.values(), reference.values()):
        for relation, expected in zip(group, want):
            assert type(relation) is PreferenceRelation
            for name in ("fields", "lower", "upper", "p", "scores"):
                assert getattr(relation, name).tobytes() == getattr(expected, name).tobytes()
            assert_read_only(relation)
            for name in ("fields", "lower", "upper", "p", "scores"):
                # a view of a read-only stack cannot be made writeable again
                with pytest.raises(ValueError):
                    getattr(relation, name).setflags(write=True)
            for duplicate in (pickle.loads(pickle.dumps(relation)), copy.deepcopy(relation)):
                assert type(duplicate) is PreferenceRelation
                assert duplicate == relation
                assert_read_only(duplicate)
                assert not np.shares_memory(duplicate.fields, relation.fields)
                assert not np.shares_memory(duplicate.scores, relation.scores)


def assert_read_only(matrix):
    for name in ("fields", "lower", "upper", "p", "scores"):
        array = getattr(matrix, name)
        assert not array.flags.writeable, name
    with pytest.raises(AttributeError):
        matrix.fields = None
