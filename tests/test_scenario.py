import gc
import json

import numpy as np
import pytest

from lingdecide.errors import ScenarioParseError, ScenarioValidationError
from lingdecide.markov import check_transition_matrix
from lingdecide import scenario
from lingdecide.reader import _read
from lingdecide.scenario import (
    Overrides,
    bundled_scenario_text,
    load_bundled_scenario,
    load_scenario,
    scenario_from_dict,
)
from helpers import uniform_scenario_dict


def fresh(data):
    """Deep copy that also breaks the aliasing the builders use."""
    return json.loads(json.dumps(data))


def bundled_dict():
    return json.loads(bundled_scenario_text())


class TestBundled:
    def test_counts_and_names(self):
        scn = load_bundled_scenario()
        assert scn.attributes == ("IRR", "ALR", "FLR", "CR")
        assert scn.alternatives == ("A1", "A2", "A3", "A4")
        assert scn.experts == ("e1", "e2", "e3", "e4")
        assert (len(scn.attributes), len(scn.alternatives), len(scn.experts)) == (4, 4, 4)
        assert scn.trust == (0.8, 0.9, 0.7, 0.8)
        assert (scn.alpha, scn.beta, scn.gamma) == (0.5, 0.3, 0.2)

    def test_markov_block(self):
        scn = load_bundled_scenario()
        assert scn.markov.periods == 3
        assert scn.markov.iterations == 1
        assert scn.markov.origin == 0
        assert scn.markov.scheme == "power"
        assert scn.markov.origin_updates == (0.25, 0.8, 1.0)
        assert len(scn.markov.assessments) == 4
        assert all(a.q == 4 for a in scn.markov.assessments)

    def test_preferences_cover_one_attribute(self):
        scn = load_bundled_scenario()
        assert set(scn.preferences) == {"IRR"}
        rels = scn.preferences["IRR"]
        assert len(rels) == 4
        assert all(r.m == 4 for r in rels)

    def test_overrides_present(self):
        scn = load_bundled_scenario()
        assert scn.overrides.transition_matrix.shape == (4, 4)
        assert check_transition_matrix(scn.overrides.transition_matrix) == []
        assert scn.overrides.period_weights.shape == (3, 4)
        assert set(scn.overrides.priority_vectors) == {"IRR", "ALR", "FLR", "CR"}

    def test_text_is_versioned_json(self):
        data = bundled_dict()
        assert data["format"] == 1

    def test_unknown_bundle_name(self):
        with pytest.raises(ScenarioParseError):
            bundled_scenario_text("no_such_scenario")


class TestParseErrors:
    def test_broken_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "format": 1,,\n}\n')
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(str(path))
        assert err.value.line == 2
        assert err.value.column is not None

    def test_broken_bundled_text_is_a_parse_error(self, monkeypatch):
        monkeypatch.setattr(scenario, "bundled_scenario_text", lambda name: '{\n  "format": 1,,\n}\n')
        with pytest.raises(ScenarioParseError) as err:
            load_bundled_scenario()
        assert err.value.line == 2

    def test_text_that_is_not_utf8_names_the_byte(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b'{"format": 1, "name": "\xc3("}')
        with pytest.raises(ScenarioParseError, match="not UTF-8 text: byte 23"):
            load_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioParseError, match="cannot read"):
            load_scenario(str(tmp_path / "nope.json"))

    def test_valid_file_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(uniform_scenario_dict()))
        scn = load_scenario(str(path))
        assert (len(scn.attributes), len(scn.alternatives), len(scn.experts)) == (2, 3, 2)


def violations_of(data):
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(data)
    return err.value.violations


class TestValidation:
    def test_format_required(self):
        data = fresh(uniform_scenario_dict())
        del data["format"]
        assert any(v.startswith("format:") for v in violations_of(data))

    def test_format_wrong_value(self):
        for value in (2, True):  # True == 1, yet no format
            data = fresh(uniform_scenario_dict())
            data["format"] = value
            assert f"format: required field must equal 1, got {value!r}" in violations_of(data)

    def test_format_one_as_a_float_is_accepted(self):
        data = fresh(uniform_scenario_dict())
        data["format"] = 1.0
        assert scenario_from_dict(data).attributes

    def test_reciprocity_violation_is_located(self):
        data = bundled_dict()
        data["preferences"]["IRR"]["e1"][1][0]["p"] = 0.9
        bad = violations_of(data)
        assert any("preferences.IRR.e1" in v and "probability-reciprocity" in v for v in bad)

    def test_multiple_violations_collected(self):
        data = fresh(uniform_scenario_dict())
        data["format"] = 0
        data["experts"][0]["trust"] = 1.5
        data["blend"] = {"alpha": 0.5, "beta": 0.3, "gamma": 0.4}
        bad = violations_of(data)
        assert len(bad) >= 3
        assert any(v.startswith("format:") for v in bad)
        assert any(v.startswith("experts[0].trust:") for v in bad)
        assert any(v.startswith("blend:") for v in bad)

    def test_term_literal_coordinates(self):
        data = fresh(uniform_scenario_dict())
        data["preferences"]["Q1"]["e1"][0][1] = {"point": "s1(o-2)", "p": 1.0}
        data["preferences"]["Q1"]["e1"][1][0] = {"point": "s-1(o2)", "p": 1.0}
        scn = scenario_from_dict(data)
        assert scn.preferences["Q1"][0].fields[0, 1, :2].tolist() == [1.0, -2.0]

    def test_bad_literal_is_located(self):
        data = fresh(uniform_scenario_dict())
        data["preferences"]["Q1"]["e1"][0][1] = {"point": "nonsense", "p": 1.0}
        bad = violations_of(data)
        assert any("preferences.Q1.e1[0][1].point" in v for v in bad)

    def test_coordinates_must_fit_scale(self):
        data = fresh(uniform_scenario_dict())
        data["preferences"]["Q1"]["e1"][0][1] = {"point": [9, 0], "p": 1.0}
        data["preferences"]["Q1"]["e1"][1][0] = {"point": [-9, 0], "p": 1.0}
        assert any("preferences.Q1.e1" in v for v in violations_of(data))

    def test_assessments_required_without_transition_override(self):
        data = fresh(uniform_scenario_dict())
        del data["markov"]["assessments"]
        assert any(v.startswith("markov.assessments:") for v in violations_of(data))

    def test_transition_override_stands_in_for_assessments(self):
        data = fresh(uniform_scenario_dict())
        del data["markov"]["assessments"]
        data["overrides"] = {"transition_matrix": [[0.5, 0.5], [0.25, 0.75]]}
        scn = scenario_from_dict(data)
        assert scn.markov.assessments is None
        assert scn.overrides.transition_matrix[1, 0] == 0.25

    def test_transition_override_must_be_stochastic(self):
        data = fresh(uniform_scenario_dict())
        data["overrides"] = {"transition_matrix": [[0.6, 0.3], [0.5, 0.5]]}
        bad = violations_of(data)
        assert any(v.startswith("overrides.transition_matrix:") and "sums" in v for v in bad)

    def test_preferences_required_unless_priority_override(self):
        data = fresh(uniform_scenario_dict())
        del data["preferences"]["Q2"]
        assert any(v.startswith("preferences.Q2:") for v in violations_of(data))
        data["overrides"] = {"priority_vectors": {"Q2": [0.4, 0.3, 0.3]}}
        scn = scenario_from_dict(data)
        assert set(scn.preferences) == {"Q1"}
        assert scn.overrides.priority_vectors["Q2"] == pytest.approx([0.4, 0.3, 0.3])

    def test_period_override_row_count_checked(self):
        data = fresh(uniform_scenario_dict(periods=2))
        data["overrides"] = {"period_weights": [[0.5, 0.5]] * 3}
        bad = violations_of(data)
        assert any(v.startswith("overrides.period_weights:") and "rows" in v for v in bad)

    def test_priority_override_vector_checked(self):
        base = fresh(uniform_scenario_dict())
        data = fresh(base)
        data["overrides"] = {"priority_vectors": {"Q1": [0.5, 0.5]}}
        assert any("shape" in v for v in violations_of(data))
        data = fresh(base)
        data["overrides"] = {"priority_vectors": {"Q1": [1.5, -0.2, -0.3]}}
        assert any("[0, 1]" in v for v in violations_of(data))
        data = fresh(base)
        data["overrides"] = {"priority_vectors": {"BOGUS": [0.4, 0.3, 0.3]}}
        assert any("unknown attribute" in v for v in violations_of(data))

    @pytest.mark.parametrize("entry", ["0.2", True, None, [0.2]])
    def test_override_entries_must_be_json_numbers(self, entry):
        data = fresh(uniform_scenario_dict(m=3, q=2, periods=2))
        data["overrides"] = {
            "transition_matrix": [[0.5, 0.5], [entry, 0.5]],
            "period_weights": [[0.5, 0.5], [0.5, entry]],
            "priority_vectors": {"Q1": [entry, 0.3, 0.5]},
            "expert_weight_vectors": {"Q2": [0.5, entry]},
        }
        bad = violations_of(data)
        for where, kind in (
            ("overrides.transition_matrix", "matrix"),
            ("overrides.period_weights", "matrix"),
            ("overrides.priority_vectors.Q1", "vector"),
            ("overrides.expert_weight_vectors.Q2", "vector"),
        ):
            assert f"{where}: expected a numeric {kind}" in bad

    def test_override_arrays_keep_their_values(self):
        data = fresh(uniform_scenario_dict(m=3, q=2, periods=2))
        data["overrides"] = {
            "transition_matrix": [[1, 0.0], [0.25, 0.75]],
            "period_weights": [[0.1, 0.9], [1, 0]],
            "priority_vectors": {"Q1": [0.2, 0.3, 0.5]},
            "expert_weight_vectors": {"Q2": [2e-1, 1]},
        }
        got = scenario_from_dict(data).overrides
        want = data["overrides"]
        assert got.transition_matrix.tobytes() == np.array(want["transition_matrix"], dtype=float).tobytes()
        assert got.period_weights.tobytes() == np.array(want["period_weights"], dtype=float).tobytes()
        assert got.priority_vectors["Q1"].tolist() == [0.2, 0.3, 0.5]
        assert got.expert_weight_vectors["Q2"].tolist() == [0.2, 1.0]

    def test_trust_range_checked(self):
        data = fresh(uniform_scenario_dict())
        data["experts"][0]["trust"] = -0.1
        assert any(v.startswith("experts[0].trust:") for v in violations_of(data))

    def test_alternatives_minimum(self):
        data = fresh(uniform_scenario_dict())
        data["alternatives"] = ["A1"]
        assert any(v.startswith("alternatives:") for v in violations_of(data))

    def test_origin_resolution(self):
        data = fresh(uniform_scenario_dict())
        data["markov"]["origin"] = "Q2"
        assert scenario_from_dict(data).markov.origin == 1
        data["markov"]["origin"] = 5
        assert any(v.startswith("markov.origin:") for v in violations_of(data))

    def test_reshape_requires_updates(self):
        data = fresh(uniform_scenario_dict())
        data["markov"]["scheme"] = "reshape"
        assert any("origin_updates" in v for v in violations_of(data))
        data["markov"]["origin_updates"] = [0.5, 0.5]
        scn = scenario_from_dict(data)
        assert scn.markov.origin_updates == (0.5, 0.5)

    def test_origin_updates_length_checked(self):
        data = fresh(uniform_scenario_dict(periods=2))
        data["markov"]["origin_updates"] = [0.5]
        assert any(v.startswith("markov.origin_updates:") for v in violations_of(data))

    def test_unknown_scheme(self):
        data = fresh(uniform_scenario_dict())
        data["markov"]["scheme"] = "banana"
        assert any(v.startswith("markov.scheme:") for v in violations_of(data))

    def test_missing_expert_assessment(self):
        data = fresh(uniform_scenario_dict())
        del data["markov"]["assessments"]["e2"]
        assert any("missing experts" in v for v in violations_of(data))

    @pytest.mark.parametrize("place", [("preferences", "Q1", "e2"), ("markov", "assessments", "e1")])
    def test_tuples_at_a_matrix_place_are_refused_without_the_text(self, place):
        # only ``_decode``, which holds the text ``_read`` walked, hands over
        # walked (fields, offset) tuples; a caller's tuple is no JSON matrix
        data = fresh(uniform_scenario_dict())
        block, key, expert = place
        size = len(data["alternatives"] if block == "preferences" else data["attributes"])
        rows = data[block][key][expert]
        walked = _read(json.dumps(data))[block][key][expert]
        assert type(walked) is tuple
        for matrix in (tuple(rows), walked):
            data[block][key][expert] = matrix
            assert violations_of(data) == [f"{block}.{key}.{expert}: expected {size} rows"]

    @pytest.mark.parametrize(
        "path, value, want",
        [
            (("attributes", 1), "IRR", ["attributes: names must be unique"]),
            (("alternatives", 1), "A1", ["alternatives: names must be unique"]),
            (("experts", 1, "name"), "e1", ["experts: names must be unique"]),
            (
                ("overrides", "transition_matrix", 0, 1),
                float("nan"),
                ["overrides.transition_matrix: entries must be finite"],
            ),
            (  # an int no float holds, so the OverflowError path
                ("overrides", "period_weights", 0, 1),
                10**400,
                ["overrides.period_weights: entries must be finite"],
            ),
            ((), [], ["$: expected a JSON object, got list"]),
            (
                ("overrides", "priority_vectors"),
                [],
                ["overrides.priority_vectors: expected an object, got list"]
                + [
                    f"preferences.{a}: required unless overrides.priority_vectors covers this attribute"
                    for a in ("ALR", "FLR", "CR")
                ],
            ),
        ],
    )
    def test_bundled_case_edits_give_exact_violations(self, path, value, want):
        data = bundled_dict()
        if not path:
            data = value
        else:
            place = data
            for key in path[:-1]:
                place = place[key]
            place[path[-1]] = value
        assert violations_of(data) == want

    def test_default_labels_filled(self):
        scn = scenario_from_dict(fresh(uniform_scenario_dict()))
        assert scn.scale.first_labels[0] == "s-4"
        assert scn.scale.second_labels[-1] == "o4"

    def test_default_overrides_empty(self):
        scn = scenario_from_dict(fresh(uniform_scenario_dict()))
        assert scn.overrides == Overrides()
        assert scn.overrides.priority_vectors == {}


def test_uniform_scenario_estimates_uniform_transition():
    scn = scenario_from_dict(fresh(uniform_scenario_dict(q=3)))
    from lingdecide.markov import estimate_transition

    M = estimate_transition(list(scn.markov.assessments))
    assert M == pytest.approx(np.full((3, 3), 1 / 3), abs=1e-9)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector in the parametrized state; the prior one after."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def write(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCollectorState:
    """Decoding holds the cyclic collector off and restores its prior state."""

    def test_after_success(self, tmp_path, collector):
        load_scenario(write(tmp_path, json.dumps(uniform_scenario_dict())))
        assert gc.isenabled() is collector
        load_bundled_scenario()
        assert gc.isenabled() is collector

    @pytest.mark.parametrize(
        "text",
        ["{not json", '{"format": ' + "9" * 5000 + "}", "[" * 200_000 + "]" * 200_000],
        ids=["bad-json", "digit-limit", "deep-nesting"],
    )
    def test_after_a_parse_error(self, tmp_path, collector, text):
        with pytest.raises(ScenarioParseError):
            load_scenario(write(tmp_path, text))
        assert gc.isenabled() is collector

    def test_after_a_validation_error(self, tmp_path, collector):
        data = uniform_scenario_dict()
        data["format"] = 99
        with pytest.raises(ScenarioValidationError):
            load_scenario(write(tmp_path, json.dumps(data)))
        assert gc.isenabled() is collector

    def test_off_while_validating(self, tmp_path, collector, monkeypatch):
        seen = []
        validate = scenario.scenario_from_dict

        def spy(data, text):
            seen.append(gc.isenabled())
            return validate(data, text)

        monkeypatch.setattr(scenario, "scenario_from_dict", spy)
        load_scenario(write(tmp_path, json.dumps(uniform_scenario_dict())))
        load_bundled_scenario()
        assert seen == [False, False]
        assert gc.isenabled() is collector
