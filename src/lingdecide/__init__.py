"""Double-hierarchy linguistic decision engine.

Interval-valued linguistic assessments with certainty degrees, consensus
expert weighting, simplex-constrained priority fitting, Markov-driven
period weights, and a scenario-file pipeline with a CLI front end.

The namespace is lazy (PEP 562): ``import lingdecide`` loads no submodule,
and so no numpy; a public name imports its module when first asked for.
"""

import importlib

__version__ = "0.1.0"

#: the public names of each submodule
_PUBLIC = {
    "diagnostics": ("Diagnostics", "Event"),
    "errors": (
        "ConfigError", "EmptyEvidenceError", "EmptyTrustError", "EngineError", "NumericalError",
        "OracleScopeError", "RangeError", "ScenarioParseError", "ScenarioValidationError",
        "ShapeError",
    ),
    "markov": (
        "LinguisticMarkovAssessment", "check_transition_matrix", "estimate_transition",
        "export_dot", "period_weights", "period_weights_reshaped",
    ),
    "pipeline": ("DecisionReport", "aggregate", "rank", "run_pipeline"),
    "prefs": (
        "ExpertWeightReport", "PreferenceRelation", "Violation", "blend_weights",
        "collective_priorities", "compute_expert_weights", "consistent_relation", "distances",
        "inner_deviation", "inner_weights", "outer_weights", "stacked", "trust_weights",
    ),
    "scale": ("LinguisticScale", "TermCoord", "from_unit", "parse_term", "to_unit"),
    "scenario": (
        "Scenario", "bundled_scenario_text", "load_bundled_scenario", "load_scenario",
        "scenario_from_dict",
    ),
    "solver": ("SimplexWLSProblem", "SimplexSolution", "brute_force_oracle", "solve"),
    "terms": (
        "FuzzyIntervalSet", "FuzzyIntervalTerm", "PeakIntervalTerm", "ProbabilisticTermSet",
        "TermMatrix", "peak", "plts_score", "score",
    ),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
