"""The package's record classes behave as plain value records.

Each of the 17 record classes is named here with the fields it holds, in
order, and one example of its positional arguments. The checks hold for
the records as the package builds them, independently of the mechanism:
construction by position and keyword with defaults, a fresh container per
instance, ``__post_init__`` checks, read-only frozen records, equality and
hash by fields or by identity, ``repr``, copying and pickling.
"""

import copy
import pickle

import numpy as np
import pytest

from lingdecide.diagnostics import Diagnostics, Event
from lingdecide.errors import EmptyEvidenceError, RangeError, ShapeError
from lingdecide.paper import (
    FuzzyIntervalSet,
    FuzzyIntervalTerm,
    LinguisticInterval,
    PeakIntervalTerm,
    ProbabilisticTermSet,
    SimplexSolution,
    SimplexWLSProblem,
)
from lingdecide.pipeline import DecisionReport
from lingdecide.prefs import ExpertWeightReport, Violation
from lingdecide.scale import LinguisticScale, TermCoord
from lingdecide.scenario import MarkovSpec, Overrides, Scenario, load_bundled_scenario

SCALE = LinguisticScale(4, 4)
LOW, HIGH = TermCoord(-1.0, 0.0), TermCoord(1.0, 2.0)
HALF = np.array([0.5, 0.5])
CRISIS = load_bundled_scenario()
REPORT_FIELDS = ("stage", "scheme", "paper_literal", "attributes", "alternatives", "experts")
REPORT_ARGS = ("all", "power", False, ("Q1",), ("A1", "A2"), ("e1",))

#: each record class: its field names in order and example positional arguments
CASES = {
    Event: (("kind", "detail"), lambda: ("peak_tie", "2 intervals")),
    Diagnostics: (("events",), lambda: ([Event("peak_tie", "2 intervals")],)),
    DecisionReport: (
        REPORT_FIELDS + (
            "transition", "period_weights", "expert_weights", "model_weights", "priorities",
            "comparables", "ranking", "diagnostics",
        ),
        lambda: REPORT_ARGS + (
            np.eye(2), HALF, {}, {"Q1": HALF}, {"Q1": HALF}, HALF, (1, 0), Diagnostics(),
        ),
    ),
    Violation: (("i", "j", "rule", "detail"), lambda: (0, 1, "reciprocity", "off by 0.1")),
    ExpertWeightReport: (
        ("outer", "inner", "trust", "blended", "alpha", "beta", "gamma"),
        lambda: (HALF, HALF, HALF, HALF, 0.2, 0.3, 0.5),
    ),
    LinguisticScale: (
        ("tau", "zeta", "first_labels", "second_labels"),
        lambda: (1, 1, ("lo", "mid", "hi"), ("-", "0", "+")),
    ),
    TermCoord: (("t", "k"), lambda: (1.0, 0.5)),
    MarkovSpec: (
        ("periods", "iterations", "origin", "scheme", "origin_updates", "assessments"),
        lambda: tuple(getattr(CRISIS.markov, name) for name in CASES[MarkovSpec][0]),
    ),
    Overrides: (
        ("transition_matrix", "period_weights", "priority_vectors", "expert_weight_vectors"),
        lambda: (np.eye(2), None, {"Q1": HALF}, {}),
    ),
    Scenario: (
        (
            "scale", "attributes", "alternatives", "experts", "trust", "alpha", "beta", "gamma",
            "markov", "preferences", "overrides",
        ),
        lambda: tuple(getattr(CRISIS, name) for name in CASES[Scenario][0]),
    ),
    SimplexWLSProblem: (("H", "c", "const"), lambda: (np.eye(2), HALF, 1.5)),
    SimplexSolution: (
        ("vector", "objective", "active_bounds", "status"), lambda: (HALF, 0.25, (), "optimal")
    ),
    LinguisticInterval: (("scale", "lower", "upper"), lambda: (SCALE, LOW, HIGH)),
    FuzzyIntervalTerm: (("scale", "lower", "upper", "fd"), lambda: (SCALE, LOW, HIGH, 0.25)),
    FuzzyIntervalSet: (
        ("intervals",),
        lambda: (
            (FuzzyIntervalTerm(SCALE, LOW, HIGH, 0.25), FuzzyIntervalTerm(SCALE, LOW, LOW, 0.5)),
        ),
    ),
    PeakIntervalTerm: (("scale", "lower", "upper", "p"), lambda: (SCALE, LOW, HIGH, 0.75)),
    ProbabilisticTermSet: (("scale", "entries"), lambda: (SCALE, ((LOW, 0.5), (HIGH, 0.5)))),
}

MUTABLE = {Diagnostics, DecisionReport}
#: the records that compare by fields, each with a record that differs in one field
BY_FIELDS = {
    TermCoord: TermCoord(1.0, 0.25),
    LinguisticScale: LinguisticScale(1, 1),
    Event: Event("peak_tie", "3 intervals"),
    Violation: Violation(1, 0, "reciprocity", "off by 0.1"),
}
BY_IDENTITY = (ExpertWeightReport, SimplexWLSProblem, SimplexSolution)

records = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def example(cls):
    return cls(*CASES[cls][1]())


def test_every_record_class_is_named():
    assert len(CASES) == 17


@records
def test_construction_by_position_and_by_keyword_agree(cls):
    names, args = CASES[cls]
    by_position = cls(*args())
    by_keyword = cls(**dict(zip(names, args())))
    assert [repr(getattr(by_position, n)) for n in names] == [
        repr(getattr(by_keyword, n)) for n in names
    ]


@records
def test_wrong_arguments_raise_type_error(cls):
    names, args = CASES[cls]
    with pytest.raises(TypeError):
        cls(*args(), None)
    with pytest.raises(TypeError):
        cls(*args(), no_such_field=None)
    with pytest.raises(TypeError):
        cls(*args(), **{names[0]: args()[0]})
    if cls not in (Diagnostics, Overrides):
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize(
    "cls, required, defaults",
    [
        (Diagnostics, (), {"events": []}),
        (
            DecisionReport,
            REPORT_ARGS,
            {
                "transition": None, "period_weights": None, "expert_weights": {},
                "model_weights": {}, "priorities": {}, "comparables": None, "ranking": None,
                "diagnostics": Diagnostics(),
            },
        ),
        (LinguisticScale, (4, 4), {"first_labels": None, "second_labels": None}),
        (
            Overrides,
            (),
            {
                "transition_matrix": None, "period_weights": None, "priority_vectors": {},
                "expert_weight_vectors": {},
            },
        ),
        (SimplexWLSProblem, (np.eye(2), HALF), {"const": 0.0}),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else None,
)
def test_defaults_fill_the_fields_not_given(cls, required, defaults):
    made = cls(*required)
    assert {name: getattr(made, name) for name in defaults} == defaults


def test_factory_defaults_are_fresh_per_instance():
    assert Diagnostics().events is not Diagnostics().events
    assert Overrides().priority_vectors is not Overrides().priority_vectors
    assert Overrides().expert_weight_vectors is not Overrides().expert_weight_vectors
    first, second = DecisionReport(*REPORT_ARGS), DecisionReport(*REPORT_ARGS)
    for name in ("expert_weights", "model_weights", "priorities", "diagnostics"):
        assert getattr(first, name) is not getattr(second, name)
    first.diagnostics.record("peak_tie", "x")
    assert len(second.diagnostics) == 0 and len(Diagnostics()) == 0


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: LinguisticScale(0, 4), RangeError),
        (lambda: LinguisticScale(4, 4, first_labels=("a",)), RangeError),
        (lambda: LinguisticInterval(SCALE, HIGH, LOW), RangeError),
        (lambda: FuzzyIntervalTerm(SCALE, LOW, HIGH, 1.5), RangeError),
        (lambda: FuzzyIntervalSet(()), EmptyEvidenceError),
        (lambda: PeakIntervalTerm(SCALE, LOW, HIGH, -0.5), RangeError),
        (lambda: ProbabilisticTermSet(SCALE, ((LOW, 0.75), (HIGH, 0.75))), RangeError),
        (lambda: SimplexWLSProblem(np.eye(3), HALF), ShapeError),
    ],
)
def test_post_init_checks_run(make, error):
    with pytest.raises(error):
        make()


def test_post_init_may_convert_a_frozen_record_s_fields():
    problem = SimplexWLSProblem([[1, 0], [0, 1]], [0.5, 0.5], 2)
    assert isinstance(problem.H, np.ndarray) and problem.H.dtype == float
    assert problem.const == 2.0 and isinstance(problem.const, float)


@records
def test_frozen_records_refuse_assignment_and_deletion(cls):
    made = example(cls)
    name = CASES[cls][0][0]
    if cls in MUTABLE:
        setattr(made, name, None)
        assert getattr(made, name) is None
        return
    before = repr(made)
    with pytest.raises(AttributeError):
        setattr(made, name, None)
    with pytest.raises(AttributeError):
        setattr(made, "no_such_field", None)
    with pytest.raises(AttributeError):
        delattr(made, name)
    assert repr(made) == before


@pytest.mark.parametrize("cls", list(BY_FIELDS), ids=lambda cls: cls.__name__)
def test_equality_and_hash_by_fields(cls):
    first, second = example(cls), example(cls)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert BY_FIELDS[cls] != first
    assert first != tuple(CASES[cls][1]())


@pytest.mark.parametrize("cls", BY_IDENTITY, ids=lambda cls: cls.__name__)
def test_equality_and_hash_by_identity(cls):
    first, second = example(cls), example(cls)
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)


@pytest.mark.parametrize("cls", sorted(MUTABLE, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_mutable_records_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(example(cls))


@records
def test_repr_lists_the_fields_in_order(cls):
    made = example(cls)
    shown = ", ".join(f"{name}={getattr(made, name)!r}" for name in CASES[cls][0])
    assert repr(made) == f"{cls.__qualname__}({shown})"


@records
@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_round_trip(cls, copier):
    made = example(cls)
    copied = copier(made)
    assert type(copied) is cls and copied is not made
    assert repr(copied) == repr(made)
    if cls in BY_FIELDS:
        assert copied == made
    if cls not in MUTABLE:
        with pytest.raises(AttributeError):
            setattr(copied, CASES[cls][0][0], None)

