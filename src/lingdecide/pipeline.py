"""Five-step decision pipeline from a scenario to a ranked report.

Steps: (1) estimate the transition matrix from the linguistic Markov
assessments, (2) propagate per-period attribute weights, (3) blend
expert weights, then build and solve the collective-priority models of
all attributes at once, (4) aggregate comparable values U, (5) rank.
Any stage override in the scenario bypasses exactly its stage and is
echoed in the diagnostics, so intermediate results can be injected and
the remainder re-run.

Reports render to deterministic JSON or plain text.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from . import records
from .diagnostics import Diagnostics, record
from .errors import ConfigError, EngineError, NumericalError, ShapeError
from .markov import estimate_transition, export_dot, period_weights, period_weights_reshaped
from .prefs import (
    ExpertWeightReport,
    comparison_groups,
    consensus_forms,
    stacked,
    weigh_experts,
    weight_vector,
)
from .solver import solve_stack

STAGES = ("markov", "weights", "priorities", "aggregate", "all")

_SUM_NOTE_TOL = 1e-6


@contextmanager
def _step(number: int, name: str):
    """Tag stage errors with their pipeline step."""
    try:
        yield
    except EngineError as exc:
        exc.args = (f"step {number} ({name}): {exc}",) + exc.args[1:]
        raise
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"step {number} ({name}): {exc}") from exc


@records.record
class DecisionReport:
    """Everything the pipeline produced, plus the diagnostics trail."""

    stage: str
    scheme: str
    paper_literal: bool
    attributes: tuple[str, ...]
    alternatives: tuple[str, ...]
    experts: tuple[str, ...]
    transition: np.ndarray | None = None
    period_weights: np.ndarray | None = None
    expert_weights: dict[str, ExpertWeightReport] = records.factory(dict)
    model_weights: dict[str, np.ndarray] = records.factory(dict)
    priorities: dict[str, np.ndarray] = records.factory(dict)
    comparables: np.ndarray | None = None
    ranking: tuple[int, ...] | None = None
    diagnostics: Diagnostics = records.factory(Diagnostics)

    def ranked_names(self) -> list[str] | None:
        if self.ranking is None:
            return None
        return [self.alternatives[i] for i in self.ranking]

    def to_dict(self) -> dict:
        def arr(x):
            return None if x is None else np.asarray(x).tolist()

        return {
            "format": 1,
            "stage": self.stage,
            "scheme": self.scheme,
            "paper_literal": self.paper_literal,
            "attributes": list(self.attributes),
            "alternatives": list(self.alternatives),
            "experts": list(self.experts),
            "transition": arr(self.transition),
            "period_weights": arr(self.period_weights),
            "expert_weights": {a: r.as_dict() for a, r in self.expert_weights.items()},
            "model_weights": {a: arr(v) for a, v in self.model_weights.items()},
            "priorities": {a: arr(v) for a, v in self.priorities.items()},
            "comparables": arr(self.comparables),
            "ranking": self.ranked_names(),
            "diagnostics": [e.as_dict() for e in self.diagnostics],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines: list[str] = [f"stage: {self.stage}   scheme: {self.scheme}"]

        def vec(v):
            return "  ".join(f"{x:.6f}" for x in v)

        if self.transition is not None:
            lines.append("transition matrix:")
            for name, row in zip(self.attributes, self.transition):
                lines.append(f"  {name}: {vec(row)}")
        if self.period_weights is not None:
            lines.append("period weights (" + "  ".join(self.attributes) + "):")
            for t, row in enumerate(self.period_weights, start=1):
                lines.append(f"  t={t}: {vec(row)}")
        for attr, rep in self.expert_weights.items():
            lines.append(f"expert weights [{attr}]:")
            lines.append(f"  outer:   {vec(rep.outer)}")
            lines.append(f"  inner:   {vec(rep.inner)}")
            lines.append(f"  trust:   {vec(rep.trust)}")
            lines.append(f"  blended: {vec(rep.blended)}")
        if self.priorities:
            lines.append("priorities (" + "  ".join(self.alternatives) + "):")
            for attr in self.attributes:
                if attr in self.priorities:
                    lines.append(f"  {attr}: {vec(self.priorities[attr])}")
        if self.comparables is not None:
            lines.append("comparable values:")
            for name, u in zip(self.alternatives, self.comparables):
                lines.append(f"  {name}: {u:.6f}")
        names = self.ranked_names()
        if names is not None:
            lines.append("ranking: " + " > ".join(names))
        if len(self.diagnostics):
            lines.append("diagnostics:")
            for event in self.diagnostics:
                lines.append(f"  - {event.kind}: {event.detail}")
        return "\n".join(lines) + "\n"

    def export_dot(self) -> str:
        if self.transition is None:
            raise ConfigError("no transition matrix available to export")
        return export_dot(self.transition, list(self.attributes))


def aggregate(period: np.ndarray, priorities: np.ndarray) -> np.ndarray:
    """Comparable values U_x = sum_t sum_q omega[t, q] * priorities[q, x]."""
    period = np.asarray(period, dtype=float)
    priorities = np.asarray(priorities, dtype=float)
    if period.ndim != 2 or priorities.ndim != 2:
        raise ShapeError("period weights and priorities must both be matrices")
    if period.shape[1] != priorities.shape[0]:
        raise ShapeError(
            f"{period.shape[1]} weighted attributes but {priorities.shape[0]} priority vectors"
        )
    return period.sum(axis=0) @ priorities


def rank(U: np.ndarray, diag: Diagnostics | None = None) -> tuple[int, ...]:
    """Indices in descending order of U; ties fall back to index order."""
    U = np.asarray(U, dtype=float)
    if not np.all(np.isfinite(U)):
        raise NumericalError("comparable values contain non-finite entries")
    order = sorted(range(U.size), key=lambda x: (-U[x], x))
    seen: dict[float, list[int]] = {}
    for i, u in enumerate(U):
        seen.setdefault(float(u), []).append(i)
    for u, members in seen.items():
        if len(members) > 1:
            record(diag, "tie", f"alternatives {members} share U={u:.6g}; using index order")
    return tuple(order)


def _resolved_scheme(scenario, scheme: str | None) -> str:
    out = scheme if scheme is not None else scenario.markov.scheme
    if out not in ("power", "reshape"):
        raise ConfigError(f"unknown scheme {out!r}")
    return out


def _note_row_sums(kind: str, rows, diag: Diagnostics, label) -> None:
    for name, row in zip(label, rows):
        s = float(np.sum(row))
        if abs(s - 1.0) > _SUM_NOTE_TOL:
            record(diag, kind, f"{name} sums to {s:.6g}, not 1 (kept verbatim)")


def run_pipeline(
    scenario,
    stage: str = "all",
    scheme: str | None = None,
    paper_literal: bool = False,
) -> DecisionReport:
    """Run the pipeline through ``stage`` and collect a report.

    Stages are cumulative: ``markov`` stops after the transition matrix,
    ``weights`` after period weights, ``priorities`` after the
    per-attribute priority vectors, ``aggregate`` after U, and ``all``
    adds the ranking. ``scheme`` overrides the scenario's period-weight
    scheme; ``paper_literal`` switches the consistency deviation to the
    printed-constant form.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
    used_scheme = _resolved_scheme(scenario, scheme)
    diag = Diagnostics()
    report = DecisionReport(
        stage=stage,
        scheme=used_scheme,
        paper_literal=paper_literal,
        attributes=scenario.attributes,
        alternatives=scenario.alternatives,
        experts=scenario.experts,
        diagnostics=diag,
    )
    ov = scenario.overrides

    with _step(1, "transition"):
        if ov.transition_matrix is not None:
            record(diag, "override_applied", "transition_matrix")
            report.transition = np.array(ov.transition_matrix, dtype=float)
        else:
            report.transition = estimate_transition(
                list(scenario.markov.assessments), diag=diag
            )
    if stage == "markov":
        return report

    with _step(2, "period weights"):
        if ov.period_weights is not None:
            record(diag, "override_applied", "period_weights")
            _note_row_sums(
                "override_row_sum",
                ov.period_weights,
                diag,
                (f"period {t + 1}" for t in range(ov.period_weights.shape[0])),
            )
            report.period_weights = np.array(ov.period_weights, dtype=float)
        elif used_scheme == "reshape":
            if scenario.markov.origin_updates is None:
                raise ConfigError("scheme 'reshape' requires markov.origin_updates")
            report.period_weights = period_weights_reshaped(
                report.transition,
                scenario.markov.periods,
                scenario.markov.iterations,
                scenario.markov.origin,
                list(scenario.markov.origin_updates),
                diag=diag,
            )
        else:
            report.period_weights = period_weights(
                report.transition,
                scenario.markov.periods,
                scenario.markov.iterations,
                scenario.markov.origin,
            )
    if stage == "weights":
        return report

    with _step(3, "expert weights and priorities"):
        weighed = [a for a in scenario.attributes if a in scenario.preferences]
        if weighed:
            groups = [scenario.preferences[a] for a in weighed]
            n = len(groups[0])
            if any(len(group) != n for group in groups):
                raise ShapeError("every attribute needs one relation per expert")
            scores, certainties = stacked([r for group in groups for r in group])
            scores = scores.reshape(len(weighed), n, *scores.shape[1:])
            certainties = certainties.reshape(scores.shape)
            chain = weigh_experts(
                scores,
                certainties,
                list(scenario.trust),
                scenario.alpha,
                scenario.beta,
                scenario.gamma,
                paper_literal=paper_literal,
            )
        index = {attr: a for a, attr in enumerate(weighed)}
        for attr in scenario.attributes:
            a = index.get(attr)
            if a is not None:
                report.expert_weights[attr] = chain.report(a, diag)
            if attr in ov.priority_vectors:
                record(diag, "override_applied", f"priority_vectors.{attr}")
                _note_row_sums(
                    "override_vector_sum", [ov.priority_vectors[attr]], diag, [f"priorities {attr}"]
                )
                report.priorities[attr] = np.array(ov.priority_vectors[attr], dtype=float)
                continue
            if a is None:
                raise ConfigError(
                    f"no preference relations for attribute {attr!r} and no priority override"
                )
            if attr in ov.expert_weight_vectors:
                report.model_weights[attr] = _override_weights(scenario, attr, n, diag)
            else:
                report.model_weights[attr] = chain.blended[a]
        # the models of every attribute no priority override takes over, built and solved at once
        if report.model_weights:
            rows = [index[attr] for attr in report.model_weights]
            weights = np.array(list(report.model_weights.values()))
            H, c, _ = consensus_forms(scores[rows], certainties[rows], weights)
            x, _, degenerate = solve_stack(H, c)
            report.priorities.update(zip(report.model_weights, x))
            names = list(report.model_weights)
            for a in np.flatnonzero(degenerate):
                groups = " ".join(
                    "[" + ", ".join(scenario.alternatives[i] for i in group) + "]"
                    for group in comparison_groups(H[a])
                )
                record(
                    diag, "degenerate_priorities",
                    f"{names[a]}: comparisons at certainty above 0 leave the alternatives "
                    f"in unlinked groups {groups}; the priorities are the minimum-norm "
                    "optimum, one of many",
                )
            report.priorities = {attr: report.priorities[attr] for attr in scenario.attributes}
    if stage == "priorities":
        return report

    with _step(4, "aggregate"):
        matrix = np.vstack([report.priorities[a] for a in scenario.attributes])
        report.comparables = aggregate(report.period_weights, matrix)
    if stage == "aggregate":
        return report

    with _step(5, "rank"):
        report.ranking = rank(report.comparables, diag)
    return report


def _override_weights(scenario, attr: str, n: int, diag: Diagnostics) -> np.ndarray:
    """The override's weights of the n experts for ``attr``, normalised."""
    record(diag, "override_applied", f"expert_weight_vectors.{attr}")
    w = np.array(scenario.overrides.expert_weight_vectors[attr], dtype=float)
    total = float(w.sum())
    if total <= 0.0:
        raise ConfigError(f"expert weight override for {attr} has zero mass")
    if abs(total - 1.0) > 1e-9:
        record(
            diag, "override_normalized",
            f"expert_weight_vectors.{attr} summed to {total:.6g}; normalized for the model",
        )
        w = w / total
    return weight_vector(w, n)
