"""Double-hierarchy linguistic decision engine.

Interval-valued linguistic assessments with certainty degrees, consensus
expert weighting, simplex-constrained priority fitting, Markov-driven
period weights, and a scenario-file pipeline with a CLI front end.
"""

from .diagnostics import Diagnostics, Event
from .errors import (
    ConfigError,
    EmptyEvidenceError,
    EmptyTrustError,
    EngineError,
    NumericalError,
    OracleScopeError,
    RangeError,
    ScenarioParseError,
    ScenarioValidationError,
    ShapeError,
)
from .markov import (
    LinguisticMarkovAssessment,
    check_transition_matrix,
    estimate_transition,
    export_dot,
    period_weights,
    period_weights_reshaped,
)
from .pipeline import (
    DecisionReport,
    aggregate,
    rank,
    run_pipeline,
)
from .prefs import (
    ExpertWeightReport,
    PreferenceRelation,
    Violation,
    blend_weights,
    collective_priorities,
    compute_expert_weights,
    consistent_relation,
    distances,
    inner_deviation,
    inner_weights,
    outer_weights,
    stacked,
    trust_weights,
)
from .scale import (
    LinguisticScale,
    TermCoord,
    from_unit,
    parse_term,
    to_unit,
)
from .scenario import (
    Scenario,
    bundled_scenario_text,
    load_bundled_scenario,
    load_scenario,
    scenario_from_dict,
)
from .solver import SimplexWLSProblem, SimplexSolution, brute_force_oracle, solve
from .terms import (
    FuzzyIntervalSet,
    FuzzyIntervalTerm,
    PeakIntervalTerm,
    ProbabilisticTermSet,
    TermMatrix,
    peak,
    plts_score,
    score,
)

__version__ = "0.1.0"

__all__ = [
    "Diagnostics",
    "Event",
    "ConfigError",
    "EmptyEvidenceError",
    "EmptyTrustError",
    "EngineError",
    "NumericalError",
    "OracleScopeError",
    "RangeError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "ShapeError",
    "LinguisticMarkovAssessment",
    "check_transition_matrix",
    "estimate_transition",
    "export_dot",
    "period_weights",
    "period_weights_reshaped",
    "DecisionReport",
    "aggregate",
    "rank",
    "run_pipeline",
    "ExpertWeightReport",
    "PreferenceRelation",
    "Violation",
    "blend_weights",
    "collective_priorities",
    "compute_expert_weights",
    "consistent_relation",
    "distances",
    "inner_deviation",
    "inner_weights",
    "outer_weights",
    "stacked",
    "trust_weights",
    "LinguisticScale",
    "TermCoord",
    "from_unit",
    "parse_term",
    "to_unit",
    "Scenario",
    "bundled_scenario_text",
    "load_bundled_scenario",
    "load_scenario",
    "scenario_from_dict",
    "SimplexWLSProblem",
    "SimplexSolution",
    "brute_force_oracle",
    "solve",
    "FuzzyIntervalSet",
    "FuzzyIntervalTerm",
    "PeakIntervalTerm",
    "ProbabilisticTermSet",
    "TermMatrix",
    "peak",
    "plts_score",
    "score",
]
