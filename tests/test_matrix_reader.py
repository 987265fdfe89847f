"""The scenario reader walks each term matrix as it reads it, and decodes as json does.

``reader._read`` reads the objects on the way to the term matrices
itself and hands every other value to json's scanner. These tests hold it
to ``json.loads``: every document decodes to the same report, or to the
same violations in the same order, as ``scenario_from_dict(json.loads(text))``,
and every text json refuses raises the same parse error as json's. A
decision never holds the whole decoded tree, so the decode's peak memory
on the benchmark's reference panel stays far below the tree's size.
"""

import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingdecide.cells import _read_cells
from lingdecide.errors import EngineError, ScenarioParseError, ScenarioValidationError
from lingdecide.pipeline import run_pipeline
from lingdecide.reader import _read
from lingdecide.scenario import _decode, scenario_from_dict

from test_generated_scenarios import generate

DATA = Path(__file__).parent / "data"
SRC_DATA = Path(__file__).resolve().parents[1] / "src" / "lingdecide" / "data"

#: values a matrix, or an object on the way to one, may hold instead
ODD_VALUES = [None, 5, "x", True, [], {}, [[]], [5], {"e1": []}]

#: cells the bulk pass declines, for a ``u`` or an ``s`` in their text (a
#: term literal, a bool, a null, another member) or because a read of
#: theirs raises (a missing p, a string, a nested list, an object in place
#: of a pair, an int too large for a float), and numeric cells it walks
#: whose faults are worded from the matrix's text
ODD_CELLS = [
    {"point": "s0(o0)", "p": 1},
    {"interval": ["s-1(o0)", "s1(o2)"], "p": 0.5},
    {"point": [True, 0], "p": 0.5},
    {"point": [0, 0], "p": False},
    {"point": [0, 0], "p": None},
    {"point": None, "p": 0.5},
    {"interval": [[0, 0], None], "p": 0.5},
    {"point": [0, 0], "p": 1, "notes": 1},
    {"point": [0, 0], "p": 1, "by": "u1"},
    {"point": [0, 0]},
    {"point": {"ab": 0, "cd": 1}, "p": 0.5},
    {"interval": "ab", "p": 0.5},
    {"interval": {"ab": [0, 0], "cd": [0, 1]}, "p": 0.5},
    {"point": [[0, 0], 0], "p": 0.5},
    {"point": [0, int("9" * 400)], "p": 0.5},
    {"point": [9, 0], "p": 1},
    {"interval": [[0, 0], [0, 7]], "p": 0.5},
    {"interval": [[2, 0], [-2, 0]], "p": 0.5},
    {"point": [0, 0], "p": float("nan")},
    {"point": [0, float("inf")], "p": 0.5},
]


def outcome(decode):
    """The report a decoded scenario runs to, or the violations, or the run's error."""
    try:
        scenario = decode()
    except ScenarioValidationError as exc:
        return "invalid", exc.violations
    try:
        return "report", run_pipeline(scenario).to_json()
    except EngineError as exc:
        return "error", type(exc).__name__, str(exc)


def assert_reads_as_json(text):
    assert outcome(lambda: _decode(text)) == outcome(lambda: scenario_from_dict(json.loads(text)))


def parse_error(text):
    """The message, line and column of the parse error json's reading of ``text``
    gives, as ``ScenarioParseError`` words it; None when json reads it."""
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return exc.msg, exc.lineno, exc.colno
    except (ValueError, RecursionError) as exc:
        return str(exc), None, None
    return None


def assert_parse_error_as_json(text):
    want = parse_error(text)
    assert want is not None
    with pytest.raises(ScenarioParseError) as err:
        _decode(text)
    assert (str(err.value), err.value.line, err.value.column) == want


def matrix_places(data):
    """The paths of every term matrix place that holds something."""
    places = []
    for attr, experts in data.get("preferences", {}).items():
        places += [("preferences", attr, e) for e in experts]
    places += [("markov", "assessments", e) for e in data["markov"].get("assessments", {})]
    return places


@st.composite
def written(draw, value):
    """``value`` as JSON text: every object's members in a drawn order with
    drawn whitespace around each token, sometimes one key twice."""
    if not isinstance(value, dict):
        return json.dumps(value, indent=draw(st.sampled_from([None, 1])))
    space = st.text(alphabet=" \t\r\n", max_size=2)
    items = draw(st.permutations(list(value.items())))
    if items and draw(st.integers(0, 3)) == 0:
        # a key given twice: json keeps the first place and the last value
        key = draw(st.sampled_from(items))[0]
        items.insert(draw(st.integers(0, len(items))), (key, draw(st.sampled_from(ODD_VALUES))))
    members = [
        draw(space) + json.dumps(key) + draw(space) + ":" + draw(space) + draw(written(item))
        + draw(space)
        for key, item in items
    ]
    return "{" + (",".join(members) if members else draw(space)) + "}"


@st.composite
def documents(draw):
    sizes = {
        "m": draw(st.integers(2, 4)),
        "q": draw(st.integers(1, 3)),
        "n": draw(st.integers(2, 3)),
        "periods": draw(st.integers(1, 2)),
        "scheme": draw(st.sampled_from(["power", "reshape"])),
    }
    data = generate.scenario(draw(st.integers(0, 2**31 - 1)), **sizes)
    for _ in range(draw(st.integers(0, 2))):
        place = draw(st.sampled_from(matrix_places(data)))
        matrix = data[place[0]][place[1]][place[2]]
        i, j = draw(st.integers(0, len(matrix) - 1)), draw(st.integers(0, len(matrix) - 1))
        matrix[i][j] = draw(st.sampled_from(ODD_CELLS))
    mutation = draw(st.sampled_from(["none", "matrix", "attribute", "block", "drop"]))
    if mutation == "matrix":
        place = draw(st.sampled_from(matrix_places(data)))
        data[place[0]][place[1]][place[2]] = draw(st.sampled_from(ODD_VALUES))
    elif mutation == "attribute":
        attr = draw(st.sampled_from(sorted(data["preferences"])))
        data["preferences"][attr] = draw(st.sampled_from(ODD_VALUES))
    elif mutation == "block":
        key = draw(st.sampled_from([("preferences",), ("markov",), ("markov", "assessments")]))
        owner = data if len(key) == 1 else data["markov"]
        owner[key[-1]] = draw(st.sampled_from(ODD_VALUES))
    elif mutation == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    return draw(st.text(alphabet=" \t\r\n", max_size=2)) + draw(written(data)) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=documents())
def test_every_document_decodes_as_json_decodes_it(text):
    assert_reads_as_json(text)


@pytest.mark.parametrize(
    "path",
    [SRC_DATA / "financial_crisis.json", *sorted(DATA.glob("*.json"))],
    ids=lambda path: path.stem,
)
def test_fixture_files_decode_as_json_decodes_them(path):
    text = path.read_text(encoding="utf-8")
    # as written, and with every matrix on one line, so the rows read again
    # to word a flagged cell lie elsewhere in the text
    assert_reads_as_json(text)
    assert_reads_as_json(json.dumps(json.loads(text)))


def test_numeric_matrices_are_walked_and_the_rest_kept_as_json():
    data = generate.scenario(3, m=3, q=2, n=2, periods=1, scheme="power")
    data["preferences"]["C2"]["e1"][0][1] = ODD_CELLS[0]
    data["overrides"] = {"priority_vectors": {"C1": [0.5, 0.3, 0.2]}}
    text = json.dumps(data, indent=2)
    read, want = _read(text), json.loads(text)
    scan = json.decoder.JSONDecoder().scan_once
    for a, b, e in matrix_places(want):
        matrix, raw = read[a][b][e], want[a][b][e]
        if (b, e) == ("C2", "e1"):
            # declined: kept as json decoded it, for the cell reader
            assert type(matrix) is list and matrix == raw
        else:
            # walked: its packed fields and the offset its JSON is scanned again from
            fields, at = matrix
            reference, faults = _read_cells(raw, len(raw))
            assert type(matrix) is tuple and (fields, faults) == (reference.tobytes(), {})
            assert scan(text, at)[0] == raw
        read[a][b][e] = raw
    assert read == want


numbers = st.one_of(st.integers(-5, 5), st.floats(-5.0, 5.0))
pairs = st.lists(numbers, min_size=2, max_size=2)
#: any JSON value: scalars of every type, with lists and objects of them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.just(int("9" * 400)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=5,
)


@st.composite
def any_json_cells(draw):
    """A cell whose point, interval and p slots each hold a drawn JSON value, or
    the value of its kind, or are missing, maybe beside another member."""
    cell = {}
    kinds = {"point": pairs, "interval": st.lists(pairs, min_size=2, max_size=2), "p": numbers}
    for slot, kind in kinds.items():
        if draw(st.integers(0, 3)):
            cell[slot] = draw(st.one_of(kind, json_values))
    if not draw(st.integers(0, 5)):
        cell[draw(st.text(max_size=3))] = draw(json_values)
    return cell


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_json_in_a_cell_decodes_as_json_decodes_it(data):
    scenario = generate.scenario(data.draw(st.integers(0, 2**31 - 1)), m=3, q=2, n=2, periods=1, scheme="power")
    a, b, e = data.draw(st.sampled_from(matrix_places(scenario)))
    matrix = scenario[a][b][e]
    i, j = data.draw(st.tuples(*[st.integers(0, len(matrix) - 1)] * 2))
    matrix[i][j] = data.draw(any_json_cells())
    text = json.dumps(scenario)
    assert_reads_as_json(text)
    read, want = _read(text), json.loads(text)
    for a, b, e in matrix_places(want):
        raw = want[a][b][e]
        reference, faults = _read_cells(raw, len(raw))
        # walked exactly where the cell reader finds no fault and the
        # matrix's text holds no ``u`` or ``s``, with the same fields
        spelled = json.dumps(raw)
        walked = not faults and "u" not in spelled and "s" not in spelled
        assert (type(read[a][b][e]) is tuple) == walked
        if walked:
            assert read[a][b][e][0] == reference.tobytes()


def test_a_scenario_cut_anywhere_is_json_s_parse_error():
    data = generate.scenario(5, m=2, q=1, n=2, periods=1, scheme="power")
    text = json.dumps(data, indent=1)
    for end in range(len(text)):
        assert_parse_error_as_json(text[:end])
    assert_reads_as_json(text)


@pytest.mark.parametrize(
    "make",
    [
        lambda text: text + "x",
        lambda text: text + " {}",
        lambda text: text + "]",
        lambda text: "\ufeff" + text,
        lambda text: text.replace('"overrides": {}', '"overrides": {},'),
        lambda text: text.replace('"iterations": 1,', '"iterations": 1,,'),
        lambda text: text.replace('"iterations": 1,', '"iterations": 1'),
        lambda text: text.replace('"e1":', '"e1"', 1),
        lambda text: text.replace('"e1":', "e1:", 1),
        lambda text: text.replace('"iterations":', "7:"),
        lambda text: text.replace('"e1":', '["e1"]:', 1),
        lambda text: text.replace('"p": 1.0', '"p": 1' + "0" * 5000, 1),
        lambda text: text.replace('"preferences": {', '"preferences": {' + "[" * 100_000, 1),
        lambda text: text.replace('"e1": [', '"e1": ' + "[" * 100_000, 1),
    ],
    ids=[
        "trailing-data", "trailing-object", "trailing-bracket", "bom", "trailing-comma",
        "double-comma", "no-comma", "no-colon", "bare-key", "number-key", "list-key",
        "digit-limit", "deep-object",
        "deep-matrix",
    ],
)
def test_text_json_refuses_is_json_s_parse_error(make):
    text = json.dumps(generate.scenario(5, m=2, q=1, n=2, periods=1, scheme="power"), indent=1)
    assert make(text) != text
    assert_parse_error_as_json(make(text))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_literals_json_accepts_in_a_matrix_decode_as_json_decodes_them(literal):
    text = json.dumps(generate.scenario(5, m=2, q=1, n=2, periods=1, scheme="power"), indent=1)
    assert '"p": 1.0' in text
    assert_reads_as_json(text.replace('"p": 1.0', f'"p": {literal}', 1))
    assert_reads_as_json(text + " \t\r\n")


def test_decoding_the_reference_panel_never_holds_the_whole_tree():
    # the benchmark's panel-large input: m=30, q=8, n=10 at seed 61, a 2.3 MB
    # text whose decoded tree alone peaks at about 33 MiB
    text = generate.scenario_text(61, m=30, q=8, n=10, periods=3, scheme="power", pin_share=0.0)
    _decode(text)
    tracemalloc.start()
    try:
        scenario = _decode(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scenario.preferences) == 8
    assert peak < 12 * 2**20, f"{peak / 2**20:.1f} MiB"
