"""The paper's definitions, one object at a time.

The paper defines its terms, peak selection, the consistency deviation,
the entropy weights and the priority model on one assessment, expert or
attribute; the engine (``terms``, ``prefs``, ``solver``) runs them on
stacked arrays. This module keeps the one-object forms, which the
acceptance criteria check the engine against. No ``decide`` run imports it.

``brute_force_oracle`` is the independent check of ``solve``: the exact
minimum over the discretised simplex {v / N}. It enumerates every grid
point, fiber by fiber; along the last free coordinate the objective is an
exact one-dimensional quadratic, so each fiber contributes its clamped
vertex and endpoints. The result equals naive exhaustive enumeration
(tests cross-check that) at a fraction of the cost.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable

import numpy as np

from . import records
from .diagnostics import Diagnostics, record
from .errors import ConfigError, EmptyEvidenceError, OracleScopeError, RangeError, ShapeError
from .prefs import (
    ExpertWeightReport,
    PreferenceRelation,
    _note_deviation,
    _note_floor,
    deviation_totals,
    entropy_weights,
    model1_problem,
    stacked,
    weigh_experts,
)
from .scale import _EDGE, LinguisticScale, TermCoord, coord_fault, unit_value
from .solver import solve_stack
from .terms import field_faults, unit_arrays


def to_unit(scale: LinguisticScale, term: TermCoord) -> float:
    """Map a coordinate pair to its unit value gamma in [0, 1]."""
    fault = coord_fault(scale, term.t, term.k)
    if fault is not None:
        raise RangeError(fault)
    return unit_value(scale, term.t, term.k)


def _canonical(scale: LinguisticScale, gamma):
    """Unchecked (t, k) of scalar or array unit values: the floor branch, (tau, 0) at 1."""
    x = 2.0 * scale.tau * gamma - scale.tau
    t = np.where(gamma >= 1.0, scale.tau, np.floor(x))
    return t, np.where(gamma >= 1.0, 0.0, scale.zeta * (x - t))


def from_unit(scale: LinguisticScale, gamma: float) -> TermCoord:
    """Inverse transform, canonical branch.

    t = floor(2*tau*gamma - tau), k = zeta * (2*tau*gamma - tau - t),
    except gamma = 1 which maps to (tau, 0).
    """
    if not math.isfinite(gamma) or gamma < -_EDGE or gamma > 1.0 + _EDGE:
        raise RangeError(f"unit value gamma={gamma} outside [0, 1]")
    t, k = _canonical(scale, gamma)
    return TermCoord(float(t), float(k))


@records.record(frozen=True)
class LinguisticInterval:
    """A linguistic interval [lower, upper] whose endpoints are in unit order."""

    scale: LinguisticScale
    lower: TermCoord
    upper: TermCoord

    def __post_init__(self):
        _check_cell(self.scale, self.lower, self.upper, 1.0)

    @property
    def unit_lower(self) -> float:
        return unit_value(self.scale, self.lower.t, self.lower.k)

    @property
    def unit_upper(self) -> float:
        return unit_value(self.scale, self.upper.t, self.upper.k)


@records.record(frozen=True)
class FuzzyIntervalTerm(LinguisticInterval):
    """One linguistic interval with its fuzzy degree fd in [0, 1]."""

    fd: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.fd <= 1.0):
            raise RangeError(f"fuzzy degree fd={self.fd} outside [0, 1]")


@records.record(frozen=True)
class FuzzyIntervalSet:
    """A nonempty collection of fuzzy interval terms over one scale.

    The fuzzy degrees sum to at most 1; the remainder up to 1 is the
    unexplained part of the assessment. Completeness of the underlying
    evidence is the assessor's responsibility, not validated here.
    """

    intervals: tuple[FuzzyIntervalTerm, ...]

    def __post_init__(self):
        if not self.intervals:
            raise EmptyEvidenceError("a fuzzy interval set needs at least one interval")
        scales = {iv.scale for iv in self.intervals}
        if len(scales) != 1:
            raise RangeError("all intervals in a set must share one scale")
        total = math.fsum(iv.fd for iv in self.intervals)
        if total > 1.0 + 1e-9:
            raise RangeError(f"fuzzy degrees sum to {total} > 1")


@records.record(frozen=True)
class PeakIntervalTerm(LinguisticInterval):
    """The minimum-fd interval of an assessment, with certainty p = 1 - fd."""

    p: float

    def __post_init__(self):
        _check_cell(self.scale, self.lower, self.upper, self.p)

    @classmethod
    def from_units(
        cls, scale: LinguisticScale, gl: float, gr: float, p: float
    ) -> "PeakIntervalTerm":
        return cls(scale, from_unit(scale, gl), from_unit(scale, gr), p)


def _check_cell(scale: LinguisticScale, lower: TermCoord, upper: TermCoord, p: float) -> None:
    """Raise ``RangeError`` with the first rule of ``field_faults`` a lone cell breaks.

    A field that is no real number raises ``TypeError``.
    """
    values = (lower.t, lower.k, upper.t, upper.k, p)
    for value in values:
        # the array would take a numeric string, or None as nan
        if not isinstance(value, numbers.Real):
            raise TypeError(f"must be real number, not {type(value).__name__}")
    fields = np.array(values, dtype=float)
    faults = field_faults(scale, *unit_arrays(scale, fields)[:3])
    if faults:
        raise RangeError(faults[0][-1])


def peak(evidence: FuzzyIntervalSet, diag: Diagnostics | None = None) -> PeakIntervalTerm:
    """Select the minimum-fd interval; p = 1 - fd.

    Ties on fd resolve to the narrowest unit width, then to the smallest
    unit left endpoint; any tie is recorded as a diagnostic event.
    """
    best_fd = min(iv.fd for iv in evidence.intervals)
    candidates = [iv for iv in evidence.intervals if iv.fd == best_fd]
    if len(candidates) > 1:
        record(diag, "peak_tie", f"{len(candidates)} intervals share fd={best_fd:g}")
    chosen = min(
        candidates,
        key=lambda iv: (iv.unit_upper - iv.unit_lower, iv.unit_lower),
    )
    return PeakIntervalTerm(chosen.scale, chosen.lower, chosen.upper, 1.0 - chosen.fd)


def score(term: PeakIntervalTerm) -> float:
    """Expected unit value of a peak interval: the midpoint (g_l + g_r) / 2."""
    return (term.unit_lower + term.unit_upper) / 2.0


@records.record(frozen=True)
class ProbabilisticTermSet:
    """Plain probabilistic linguistic evidence: (term, probability) pairs.

    This is the single-valued baseline representation the peak intervals
    improve on; acceptance criterion 7 (the bimodal-evidence paradox)
    scores it against the peak form.
    """

    scale: LinguisticScale
    entries: tuple[tuple[TermCoord, float], ...]

    def __post_init__(self):
        for coord, prob in self.entries:
            to_unit(self.scale, coord)
            if math.isnan(prob):
                raise RangeError(f"probability {prob} is not a number")
            if prob < 0.0:
                raise RangeError(f"probability {prob} negative")
        total = math.fsum(prob for _, prob in self.entries)
        if total > 1.0 + 1e-9:
            raise RangeError(f"probabilities sum to {total} > 1")


def plts_score(evidence: ProbabilisticTermSet) -> TermCoord:
    """Probability-weighted mean term.

    The first-hierarchy subscript is the weighted mean subscript; the
    second hierarchy averages the same way, which by linearity of the unit
    transform is exactly the weighted mean in unit space.
    """
    total = math.fsum(prob for _, prob in evidence.entries)
    if total <= 0.0:
        raise EmptyEvidenceError("total probability is zero")
    t = math.fsum(coord.t * prob for coord, prob in evidence.entries) / total
    k = math.fsum(coord.k * prob for coord, prob in evidence.entries) / total
    return TermCoord(t, k)


def evidence_from_pairs(
    scale: LinguisticScale, pairs: Iterable[tuple[TermCoord, TermCoord, float]]
) -> FuzzyIntervalSet:
    """Convenience constructor from (lower, upper, fd) triples."""
    return FuzzyIntervalSet(
        tuple(FuzzyIntervalTerm(scale, lo, hi, fd) for lo, hi, fd in pairs)
    )


@records.record(frozen=True, eq=False)
class SimplexWLSProblem:
    """The objective x.Hx - 2 c.x + const over an m-simplex, m = len(c).

    ``H`` is a symmetric positive semidefinite (m, m) array. The arrays
    are used as given, not copied, so they must not change once the
    problem is built.
    """

    H: np.ndarray
    c: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ShapeError(f"linear term of shape {c.shape}, expected (m,) with m >= 1")
        if H.shape != (c.size, c.size):
            raise ShapeError(f"quadratic term of shape {H.shape}, expected ({c.size}, {c.size})")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "const", float(self.const))

    @property
    def m(self) -> int:
        return self.c.size

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.H @ x - 2.0 * self.c @ x + self.const)


@records.record(frozen=True, eq=False)
class SimplexSolution:
    """A solved problem: the point, its objective, the floored coordinates and a status."""

    vector: np.ndarray
    objective: float
    active_bounds: tuple[int, ...]
    status: str


def solve(problem: SimplexWLSProblem) -> SimplexSolution:
    """KKT-optimal point of the convex quadratic over the simplex: ``solve_stack`` of one."""
    x, floored, degenerate = solve_stack(problem.H[None], problem.c[None])
    return SimplexSolution(
        vector=x[0],
        objective=problem.objective(x[0]),
        active_bounds=tuple(np.flatnonzero(floored[0]).tolist()),
        status="degenerate" if degenerate[0] else "optimal",
    )


def _fiber_batch_min(
    problem: SimplexWLSProblem, prefix: np.ndarray, remainder: np.ndarray, N: int
) -> tuple[float, int, int]:
    """Exact grid minimum over a batch of fibers.

    Each fiber fixes the first m-2 integer coordinates (one row of
    ``prefix`` each) and spreads ``remainder`` over the last two as (u, R-u), the points
    x0 + u s with s = (e_{m-2} - e_{m-1}) / N. Returns the best objective
    with the row index and u attaining it.
    """
    H, c = problem.H, problem.c
    m = problem.m
    s = np.zeros(m)
    s[m - 2], s[m - 1] = 1.0 / N, -1.0 / N
    Hs = H @ s
    Aq = float(s @ Hs)

    x0 = np.zeros((prefix.shape[0], m))
    x0[:, : m - 2] = prefix / N
    x0[:, m - 1] = remainder / N
    f0 = np.einsum("bi,bi->b", x0 @ H, x0) - 2.0 * (x0 @ c) + problem.const
    B = 2.0 * (x0 @ Hs - float(c @ s))

    R = remainder.astype(float)
    cands = [np.zeros_like(R), R]
    if Aq > 0.0:
        v = -B / (2.0 * Aq)
        v = np.clip(v, 0.0, R)
        cands.append(np.floor(v))
        cands.append(np.ceil(v))

    best_f = np.inf
    best_row = -1
    best_u = 0
    for u in cands:
        f = Aq * u * u + B * u + f0
        i = int(np.argmin(f))
        if f[i] < best_f:
            best_f = float(f[i])
            best_row = i
            best_u = int(u[i])
    return best_f, best_row, best_u


def brute_force_oracle(problem: SimplexWLSProblem, step: float) -> SimplexSolution:
    """Exhaustive search over the grid {v / N : v integer, sum v = N}.

    Certifies an upper bound on the optimum within the grid resolution.
    Limited to m <= 4 and step >= 1e-3. Grid points on the boundary are
    admitted although the floor is 1e-9; they sit within the floor of a
    feasible point.
    """
    m = problem.m
    if m > 4:
        raise OracleScopeError(f"oracle covers m <= 4, got {m}")
    if step < 1e-3 - 1e-15:
        raise OracleScopeError(f"oracle covers step >= 1e-3, got {step}")
    N = max(1, round(1.0 / step))

    if m == 1:
        x = np.array([1.0])
        return SimplexSolution(x, problem.objective(x), (), "oracle")

    best = (math.inf, None)

    def consider(prefix: np.ndarray, remainder: np.ndarray) -> None:
        nonlocal best
        f, row, u = _fiber_batch_min(problem, prefix, remainder, N)
        if f < best[0]:
            v = np.empty(m, dtype=float)
            v[: m - 2] = prefix[row] / N
            R = int(remainder[row])
            v[m - 2] = u / N
            v[m - 1] = (R - u) / N
            best = (f, v)

    if m == 2:
        consider(np.zeros((1, 0)), np.array([N]))
    elif m == 3:
        n1 = np.arange(N + 1)
        consider(n1[:, None], N - n1)
    else:
        for n1 in range(N + 1):
            n2 = np.arange(N - n1 + 1)
            prefix = np.column_stack([np.full_like(n2, n1), n2])
            consider(prefix, N - n1 - n2)

    x = best[1]
    return SimplexSolution(
        vector=x,
        objective=problem.objective(x),
        active_bounds=tuple(int(i) for i in np.flatnonzero(x == 0.0)),
        status="oracle",
    )


def inner_deviation(
    scores: np.ndarray,
    paper_literal: bool = False,
    diag: Diagnostics | None = None,
) -> float:
    """Total direct-vs-indirect score deviation of one expert's scores.

    Default form: sum over all (v, i<j, both != v) of |E_ij - E_ij^(-v)|.
    ``paper_literal`` keeps each |.| + 0.5 term and subtracts the printed
    constant m(m-1)/2 * ... = m(m-1)*0.5, which matches the triple count
    only at m = 4; elsewhere it shifts the total (kept for reproduction).
    """
    E = np.asarray(scores, dtype=float)
    _note_deviation(diag, E.shape[-1], paper_literal)
    return float(deviation_totals(E, paper_literal))


def inner_weights(
    deviations: np.ndarray | list[float],
    m: int,
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Entropy weights from consistency deviations; smaller is better.

    Deviation shares p^k feed le^k = -(1/log2 m) p^k log2 p^k; weights are
    proportional to 1/le^k with le floored at 1e-12 (floored experts share
    the resulting mass). All-zero deviations give the uniform vector.
    """
    u = np.asarray(deviations, dtype=float)
    if u.size < 2:
        raise ShapeError("inner weights need at least two experts")
    if m < 2:
        raise ShapeError(f"alternative count must be >= 2, got {m}")
    if not np.all(u >= 0.0):
        raise ConfigError("deviations must be nonnegative")
    weights, floored = entropy_weights(u, m)
    _note_floor(diag, floored)
    return weights


def compute_expert_weights(
    relations: list[PreferenceRelation],
    trust: np.ndarray | list[float],
    alpha: float,
    beta: float,
    gamma: float,
    paper_literal: bool = False,
    diag: Diagnostics | None = None,
) -> ExpertWeightReport:
    """Full weighting chain for one attribute's relations."""
    scores, certainties = stacked(relations)
    return weigh_experts(
        scores[None], certainties[None], trust, alpha, beta, gamma, paper_literal, diag
    )[0]


def collective_priorities(
    relations: list[PreferenceRelation],
    weights: np.ndarray | list[float],
) -> np.ndarray:
    """Priority vector of the certainty-weighted consensus model."""
    return solve(model1_problem(relations, weights)).vector


def consistent_relation(
    scale: LinguisticScale,
    priorities: np.ndarray | list[float],
    p: float = 1.0,
    half_gradient: bool = False,
) -> PreferenceRelation:
    """Point relation generated from a priority vector.

    E_ij = w_i - w_j + 0.5 by default (the additive-consistency identity);
    ``half_gradient`` uses E_ij = (w_i - w_j)/2 + 0.5, the convention the
    collective-priority model recovers exactly. Each point takes
    ``from_unit``'s canonical coordinate; the diagonal has p = 1.
    """
    w = np.asarray(priorities, dtype=float)
    e = (0.5 if half_gradient else 1.0) * (w[:, None] - w[None, :]) + 0.5
    outside = np.argwhere(~((e >= 0.0) & (e <= 1.0))).tolist()
    if outside:
        i, j = outside[0]
        raise ConfigError(f"score {e[i, j]:.6g} for pair ({i},{j}) leaves [0, 1]")
    t, k = _canonical(scale, e)
    certainty = np.full(e.shape, p, dtype=float)
    np.fill_diagonal(certainty, 1.0)
    return PreferenceRelation.from_fields(scale, np.stack([t, k, t, k, certainty], axis=-1))
