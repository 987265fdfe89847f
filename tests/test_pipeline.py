import ast
import importlib
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from lingdecide import records
from lingdecide.errors import ConfigError, NumericalError, ShapeError
from lingdecide.pipeline import DecisionReport, aggregate, rank, run_pipeline
from lingdecide.scale import from_unit
from lingdecide.scenario import load_bundled_scenario, scenario_from_dict
from helpers import SCALE, uniform_scenario_dict


@pytest.fixture(scope="module")
def crisis():
    return load_bundled_scenario()


def unit_point(g, p):
    c = from_unit(SCALE, g)
    return {"point": [c.t, c.k], "p": p}


def varied_scenario_dict():
    """Small asymmetric scenario exercising every computed stage."""

    def rel(E, p):
        return [
            [unit_point(E[i][j], 1.0 if i == j else p) for j in range(3)]
            for i in range(3)
        ]

    E1 = [[0.5, 0.7, 0.6], [0.3, 0.5, 0.4], [0.4, 0.6, 0.5]]
    E2 = [[0.5, 0.55, 0.65], [0.45, 0.5, 0.6], [0.35, 0.4, 0.5]]
    a1 = [
        [unit_point(0.2, 0.9), unit_point(0.8, 0.9)],
        [unit_point(0.5, 0.8), unit_point(0.5, 0.8)],
    ]
    a2 = [
        [unit_point(0.3, 1.0), unit_point(0.6, 1.0)],
        [unit_point(0.4, 0.7), unit_point(0.7, 0.7)],
    ]
    return {
        "format": 1,
        "scale": {"tau": 4, "zeta": 4},
        "attributes": ["Q1", "Q2"],
        "alternatives": ["A1", "A2", "A3"],
        "experts": [{"name": "e1", "trust": 0.9}, {"name": "e2", "trust": 0.6}],
        "blend": {"alpha": 0.4, "beta": 0.4, "gamma": 0.2},
        "markov": {
            "periods": 2,
            "iterations": 2,
            "origin": "Q2",
            "assessments": {"e1": a1, "e2": a2},
        },
        "preferences": {
            "Q1": {"e1": rel(E1, 0.8), "e2": rel(E2, 0.6)},
            "Q2": {"e1": rel(E2, 0.9), "e2": rel(E1, 0.5)},
        },
    }


class TestStages:
    def test_markov_stops_early(self, crisis):
        rep = run_pipeline(crisis, stage="markov")
        assert rep.transition is not None
        assert rep.period_weights is None
        assert rep.priorities == {}
        assert rep.comparables is None
        assert rep.ranking is None
        assert rep.ranked_names() is None

    def test_weights_stops_early(self, crisis):
        rep = run_pipeline(crisis, stage="weights")
        assert rep.period_weights.shape == (3, 4)
        assert rep.priorities == {}

    def test_priorities_stops_early(self, crisis):
        rep = run_pipeline(crisis, stage="priorities")
        assert set(rep.priorities) == {"IRR", "ALR", "FLR", "CR"}
        assert rep.comparables is None

    def test_aggregate_stops_early(self, crisis):
        rep = run_pipeline(crisis, stage="aggregate")
        assert rep.comparables is not None
        assert rep.ranking is None

    def test_unknown_stage_rejected(self, crisis):
        with pytest.raises(ConfigError, match="unknown stage"):
            run_pipeline(crisis, stage="bogus")

    def test_unknown_scheme_rejected(self, crisis):
        with pytest.raises(ConfigError, match="unknown scheme"):
            run_pipeline(crisis, scheme="banana")


class TestCrisisRun:
    def test_golden_comparables_and_ranking(self, crisis):
        rep = run_pipeline(crisis)
        assert rep.comparables == pytest.approx([0.8279, 0.6743, 0.6994, 0.6981], abs=5e-4)
        assert rep.ranked_names() == ["A1", "A3", "A4", "A2"]

    def test_overrides_are_echoed(self, crisis):
        rep = run_pipeline(crisis)
        kinds = rep.diagnostics.kinds()
        # transition + period weights + four priority vectors
        assert kinds.count("override_applied") == 6
        details = [e.detail for e in rep.diagnostics if e.kind == "override_row_sum"]
        assert any("period 3" in d for d in details)
        details = [e.detail for e in rep.diagnostics if e.kind == "override_vector_sum"]
        assert any("ALR" in d for d in details)

    def test_expert_weights_only_where_relations_exist(self, crisis):
        rep = run_pipeline(crisis)
        assert set(rep.expert_weights) == {"IRR"}
        assert rep.model_weights == {}
        blended = rep.expert_weights["IRR"].blended
        assert blended.sum() == pytest.approx(1.0, abs=1e-9)

    def test_paper_literal_flag_recorded(self, crisis):
        rep = run_pipeline(crisis, paper_literal=True)
        assert rep.paper_literal is True
        assert "paper_literal" in rep.diagnostics.kinds()


class TestUniformRun:
    def test_everything_ties(self):
        rep = run_pipeline(scenario_from_dict(uniform_scenario_dict()))
        assert rep.comparables == pytest.approx(np.full(3, 2 / 3), abs=1e-12)
        assert rep.ranking == (0, 1, 2)
        assert "tie" in rep.diagnostics.kinds()

    def test_reshape_without_updates_tagged_step2(self):
        scn = scenario_from_dict(uniform_scenario_dict())
        with pytest.raises(ConfigError, match=r"step 2 \(period weights\)"):
            run_pipeline(scn, scheme="reshape")


@pytest.fixture(scope="module")
def base():
    return run_pipeline(scenario_from_dict(varied_scenario_dict()))


class TestOverrideSoundness:
    """Injecting a stage's own output must not change anything downstream."""

    def test_base_is_nontrivial(self, base):
        assert len(set(np.round(base.comparables, 9))) == 3

    def test_reinject_transition(self, base):
        data = varied_scenario_dict()
        del data["markov"]["assessments"]
        data["overrides"] = {"transition_matrix": base.transition.tolist()}
        rep = run_pipeline(scenario_from_dict(data))
        assert np.allclose(rep.transition, base.transition, rtol=0, atol=0)
        assert np.allclose(rep.period_weights, base.period_weights, rtol=0, atol=1e-14)
        assert np.allclose(rep.comparables, base.comparables, rtol=0, atol=1e-12)
        assert rep.ranking == base.ranking
        assert "override_applied" in rep.diagnostics.kinds()

    def test_reinject_period_weights(self, base):
        data = varied_scenario_dict()
        data["overrides"] = {"period_weights": base.period_weights.tolist()}
        rep = run_pipeline(scenario_from_dict(data))
        assert np.allclose(rep.comparables, base.comparables, rtol=0, atol=1e-12)
        assert rep.ranking == base.ranking

    def test_reinject_priorities(self, base):
        data = varied_scenario_dict()
        data["overrides"] = {
            "priority_vectors": {a: base.priorities[a].tolist() for a in ("Q1", "Q2")}
        }
        rep = run_pipeline(scenario_from_dict(data))
        assert np.allclose(rep.comparables, base.comparables, rtol=0, atol=1e-12)
        assert rep.ranking == base.ranking
        assert rep.model_weights == {}

    def test_expert_weight_override_normalisation_noted(self):
        data = varied_scenario_dict()
        data["overrides"] = {"expert_weight_vectors": {"Q1": [0.6, 0.6]}}
        rep = run_pipeline(scenario_from_dict(data))
        assert "override_normalized" in rep.diagnostics.kinds()
        assert rep.model_weights["Q1"] == pytest.approx([0.5, 0.5])

    def test_zero_mass_weight_override_is_a_config_error(self):
        data = varied_scenario_dict()
        data["overrides"] = {"expert_weight_vectors": {"Q1": [0.0, 0.0]}}
        with pytest.raises(ConfigError, match="zero mass"):
            run_pipeline(scenario_from_dict(data))


class TestAggregateAndRank:
    def test_aggregate_hand_value(self):
        period = np.array([[0.6, 0.4], [0.5, 0.5]])
        priorities = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]])
        assert aggregate(period, priorities) == pytest.approx([0.76, 0.51, 0.73], abs=1e-12)

    def test_aggregate_is_linear_in_period_mass(self):
        rng = np.random.default_rng(3)
        period = rng.uniform(0, 1, (3, 2))
        priorities = rng.uniform(0, 1, (2, 4))
        assert aggregate(2 * period, priorities) == pytest.approx(
            2 * aggregate(period, priorities), abs=1e-12
        )

    def test_aggregate_shape_errors(self):
        with pytest.raises(ShapeError):
            aggregate(np.ones(3), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            aggregate(np.ones((2, 3)), np.ones((2, 4)))

    def test_rank_descending(self):
        assert rank(np.array([0.2, 0.8, 0.5])) == (1, 2, 0)

    def test_rank_tie_uses_index_order(self):
        from lingdecide.diagnostics import Diagnostics

        diag = Diagnostics()
        assert rank(np.array([0.5, 0.7, 0.5]), diag) == (1, 0, 2)
        assert "tie" in diag.kinds()

    def test_rank_rejects_nan(self):
        with pytest.raises(NumericalError):
            rank(np.array([0.1, np.nan]))


class TestReportRendering:
    def test_json_is_deterministic(self, crisis):
        a = run_pipeline(crisis).to_json()
        b = run_pipeline(crisis).to_json()
        assert a == b
        data = json.loads(a)
        assert data["format"] == 1
        assert data["ranking"] == ["A1", "A3", "A4", "A2"]

    def test_text_rendering(self, crisis):
        text = run_pipeline(crisis).to_text()
        assert "transition matrix:" in text
        assert "ranking: A1 > A3 > A4 > A2" in text
        assert "comparable values:" in text
        assert text.endswith("\n")

    def test_dot_export_from_report(self, crisis):
        rep = run_pipeline(crisis, stage="markov")
        dot = rep.export_dot()
        assert dot.startswith("digraph transitions {")
        assert '"IRR"' in dot

    def test_dot_export_needs_transition(self):
        empty = DecisionReport(
            stage="all",
            scheme="power",
            paper_literal=False,
            attributes=(),
            alternatives=(),
            experts=(),
        )
        with pytest.raises(ConfigError):
            empty.export_dot()


@pytest.mark.parametrize("module", ["pipeline", "prefs", "scenario", "solver", "terms", "diagnostics"])
def test_record_annotations_resolve(module):
    namespace = vars(importlib.import_module(f"lingdecide.{module}"))
    classes = [
        c
        for c in namespace.values()
        if hasattr(c, "__record_fields__") and c.__module__ == f"lingdecide.{module}"
    ]
    assert classes
    for cls in classes:
        typing.get_type_hints(cls)
        assert cls.__doc__, f"{cls.__name__} does not say what it holds"


def test_records_leave_out_class_variables():
    @records.record(frozen=True)
    class Point:
        dims: typing.ClassVar[int] = 2
        unit: "ClassVar[str]" = "m"
        x: float
        y: float = 0.0

    assert Point(1.0) == Point(x=1.0, y=0.0)
    assert (Point.dims, Point.unit) == (2, "m")
    with pytest.raises(TypeError):
        Point(1.0, 0.0, 2)


def test_records_generate_no_code():
    tree = ast.parse(Path(records.__file__).read_text(encoding="utf-8"))
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & {"exec", "eval", "compile"}
