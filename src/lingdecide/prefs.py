"""Reciprocal preference relations and consensus expert weighting.

A preference relation over m alternatives stores one peak interval per
ordered pair. The diagonal is the indifferent point (unit 0.5, p = 1);
endpoints mirror across the matrix: unit(lower_ij) + unit(upper_ji) = 1,
and certainties are symmetric. The score matrix E collects interval
midpoints, so E_ij + E_ji = 1.

Expert weights blend three normalised views:

* outer: pairwise relation distances, each expert weighted by its summed
  distance to the others (kept verbatim from the source formulation, so
  outliers weigh more; all-zero distances fall back to uniform),
* inner: consistency entropy of the deviation between direct scores and
  indirect scores E_iv - E_jv + 1/2 routed through third alternatives,
* trust: the deciders' normalised confidence in each expert.

Collective priorities solve the certainty-weighted least-squares model

    min sum_k omega_k sum_{i<j} p^k_ij ((w_i - w_j)/2 - E^k_ij + 1/2)^2

over the open simplex (positivity floor 1e-9). Expanded, that is the
quadratic form w.Hw - 2 c.w + const, built in closed form from
W = sum_k omega_k triu(P^k, 1) and G = sum_k omega_k triu(P^k o (E^k - 1/2), 1):
H = (diag(S 1) - S)/4 with S = W + W^T, c = (G 1 - G^T 1)/2, and const
the weighted sum of (E^k_ij - 1/2)^2 over i < j.

A relation is a ``terms.TermMatrix``, so it derives its unit arrays
once, when built. The weighting chain and the model builder run on one
attribute's relations stacked into (n, m, m) score and certainty arrays
(``stacked``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, record
from .errors import ConfigError, EmptyTrustError, ShapeError
from .scale import LinguisticScale
from .solver import SimplexWLSProblem, solve
from .terms import PeakIntervalTerm, TermMatrix

_RECIP_TOL = 1e-9

ENTROPY_FLOOR = 1e-12


class PreferenceRelation(TermMatrix):
    """m x m term matrix over m >= 2 alternatives.

    Its own rule is reciprocity (``validate_relation``), which the
    scenario decoder checks through ``violations``.
    """

    minimum_size = 2

    @property
    def m(self) -> int:
        return len(self.fields)

    def violations(self) -> list[Violation]:
        return validate_relation(self)


@dataclass(frozen=True)
class Violation:
    i: int
    j: int
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"({self.i}, {self.j}) {self.rule}: {self.detail}"


def validate_relation(relation: PreferenceRelation) -> list[Violation]:
    """Collect every reciprocity violation; empty list means valid.

    Diagonal violations come first, then each pair i < j in row-major
    order with its endpoint violation before its probability one.
    """
    out: list[Violation] = []
    lo, hi, p = relation.lower, relation.upper, relation.p
    tol = _RECIP_TOL
    bad_diagonal = (
        (np.abs(lo.diagonal() - 0.5) > tol)
        | (np.abs(hi.diagonal() - 0.5) > tol)
        | (np.abs(p.diagonal() - 1.0) > tol)
    )
    for i in np.flatnonzero(bad_diagonal).tolist():
        out.append(
            Violation(
                i, i, "diagonal",
                f"expected the indifferent point (unit 0.5, p=1), got "
                f"[{lo[i, i]:.6g}, {hi[i, i]:.6g}] p={p[i, i]:.6g}",
            )
        )
    # lo_sum[i, j] = unit(lower_ij) + unit(upper_ji), hi_sum the other way
    lo_sum = lo + hi.T
    hi_sum = hi + lo.T
    bad_endpoints = (np.abs(lo_sum - 1.0) > tol) | (np.abs(hi_sum - 1.0) > tol)
    bad_p = np.abs(p - p.T) > tol
    for i, j in np.argwhere(np.triu(bad_endpoints | bad_p, 1)).tolist():
        if bad_endpoints[i, j]:
            out.append(
                Violation(
                    i, j, "endpoint-reciprocity",
                    f"unit sums ({lo_sum[i, j]:.6g}, {hi_sum[i, j]:.6g}) differ from 1",
                )
            )
        if bad_p[i, j]:
            out.append(
                Violation(
                    i, j, "probability-reciprocity", f"p={p[i, j]:.6g} vs p={p[j, i]:.6g}"
                )
            )
    return out


def score_matrix(relation: PreferenceRelation) -> np.ndarray:
    """Midpoint scores of every entry (read-only, derived at construction)."""
    return relation.scores


def stacked(relations: list[PreferenceRelation]) -> tuple[np.ndarray, np.ndarray]:
    """(n, m, m) scores and certainties of relations over one alternative set."""
    if not relations:
        raise ShapeError("need at least one relation")
    m = relations[0].m
    for relation in relations:
        if relation.m != m:
            raise ShapeError(f"relation sizes differ: {m} vs {relation.m}")
    return np.stack([score_matrix(r) for r in relations]), np.stack([r.p for r in relations])


def distances(scores: np.ndarray, certainties: np.ndarray) -> np.ndarray:
    """(n, n) root-mean differences of certainty-weighted scores over i < j.

    The pair axis leads, so the reduction adds pairs one by one in
    row-major order, and ``float_power`` squares through the C library's
    ``pow``: the result keeps the last bit of a scalar loop over pairs.
    """
    m = scores.shape[1]
    i, j = np.triu_indices(m, 1)
    weighted = (scores * certainties)[:, i, j].T
    diff = weighted[:, :, None] - weighted[:, None, :]
    total = np.float_power(diff, 2).sum(axis=0)
    return np.sqrt(2.0 * total / (m * (m - 1)))


def outer_weights(scores: np.ndarray, certainties: np.ndarray) -> np.ndarray:
    """Distance-mass weights across experts; uniform when all coincide.

    Takes one attribute's stacked (n, m, m) scores and certainties.
    """
    n = scores.shape[0]
    if n < 2:
        raise ShapeError("outer weights need at least two experts")
    sums = distances(scores, certainties).sum(axis=0)
    total = sums.sum()
    if total <= 1e-12:
        return np.full(n, 1.0 / n)
    return sums / total


def indirect_score(E: np.ndarray, i: int, j: int, v: int) -> float:
    """Score of (i, j) routed through a third alternative v."""
    m = E.shape[0]
    if not (0 <= i < m and 0 <= j < m and 0 <= v < m):
        raise IndexError(f"indices ({i}, {j}, {v}) outside a {m}-alternative relation")
    if v == i or v == j or i >= j:
        raise IndexError(f"need i < j and v distinct from both, got ({i}, {j}, {v})")
    return E[i, v] - E[j, v] + 0.5


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
    m = E.shape[0]
    if m < 3:
        record(diag, "no_indirect_path", f"m={m} has no third alternative to route through")
        return 0.0
    # deviation[v, p] = |E_ij - (E_iv - E_jv + 1/2)| for the pair p = (i, j),
    # see indirect_score; pairs i < j in row-major order
    i, j = np.triu_indices(m, 1)
    deviation = np.abs(E[i, j] - (E.T[:, i] - E.T[:, j] + 0.5))
    v = np.arange(m)[:, None]
    triples = deviation[(v != i) & (v != j)]
    # a running sum adds the triples in (v, i, j) order, as the scalar
    # definition does, so the total keeps its last bit
    total = float(np.cumsum(triples)[-1])
    count = triples.size
    if paper_literal:
        record(
            diag, "paper_literal",
            f"printed constant m(m-1)*0.5 = {m * (m - 1) * 0.5:g} used in place of "
            f"the triple count {count * 0.5:g}",
        )
        return total + 0.5 * count - 0.5 * m * (m - 1)
    return total


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
    n = u.size
    if n < 2:
        raise ShapeError("inner weights need at least two experts")
    if m < 2:
        raise ShapeError(f"alternative count must be >= 2, got {m}")
    if np.any(u < 0.0):
        raise ConfigError("deviations must be nonnegative")
    total = u.sum()
    if total <= 0.0:
        return np.full(n, 1.0 / n)
    shares = u / total
    le = np.zeros(n)
    for k, p in enumerate(shares):
        if p > 0.0:
            le[k] = -(p * math.log2(p)) / math.log2(m)
    floored = le < ENTROPY_FLOOR
    if floored.any():
        record(
            diag, "entropy_floor",
            f"entropy floored at {ENTROPY_FLOOR:g} for experts {np.flatnonzero(floored).tolist()}",
        )
        le = np.maximum(le, ENTROPY_FLOOR)
    inv = 1.0 / le
    return inv / inv.sum()


def trust_weights(psi: np.ndarray | list[float]) -> np.ndarray:
    """Normalised trust degrees."""
    psi = np.asarray(psi, dtype=float)
    if np.any(psi < 0.0) or np.any(psi > 1.0):
        raise ConfigError("trust degrees must lie in [0, 1]")
    total = psi.sum()
    if total <= 0.0:
        raise EmptyTrustError("all trust degrees are zero")
    return psi / total


def blend_weights(
    outer: np.ndarray,
    inner: np.ndarray,
    trust: np.ndarray,
    alpha: float,
    beta: float,
    gamma: float,
) -> np.ndarray:
    """Convex combination of the three weight views."""
    vectors = [np.asarray(v, dtype=float) for v in (outer, inner, trust)]
    n = vectors[0].size
    for v in vectors:
        if v.size != n:
            raise ShapeError("weight vectors must share one length")
        if abs(v.sum() - 1.0) > 1e-9 or np.any(v < -1e-12):
            raise ConfigError(f"weight vector {v.tolist()} is not a probability vector")
    coeffs = (alpha, beta, gamma)
    if any(c < 0.0 or c > 1.0 for c in coeffs) or abs(sum(coeffs) - 1.0) > 1e-9:
        raise ConfigError(f"blend coefficients {coeffs} must be in [0,1] and sum to 1")
    return alpha * vectors[0] + beta * vectors[1] + gamma * vectors[2]


@dataclass(frozen=True, eq=False)
class ExpertWeightReport:
    """The three weight views and their blend for one attribute."""

    outer: np.ndarray
    inner: np.ndarray
    trust: np.ndarray
    blended: np.ndarray
    alpha: float
    beta: float
    gamma: float

    def as_dict(self) -> dict:
        return {
            "outer": self.outer.tolist(),
            "inner": self.inner.tolist(),
            "trust": self.trust.tolist(),
            "blended": self.blended.tolist(),
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
        }


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
    outer = outer_weights(scores, certainties)
    deviations = [inner_deviation(E, paper_literal, diag) for E in scores]
    inner = inner_weights(deviations, scores.shape[1], diag)
    tru = trust_weights(trust)
    blended = blend_weights(outer, inner, tru, alpha, beta, gamma)
    return ExpertWeightReport(outer, inner, tru, blended, alpha, beta, gamma)


def consensus_form(
    scores: np.ndarray,
    certainties: np.ndarray,
    weights: np.ndarray | list[float],
) -> SimplexWLSProblem:
    """The collective-priority quadratic form from (n, m, m) stacked arrays.

    Only pairs i < j enter: the model reads each relation's upper triangle.
    """
    n = scores.shape[0]
    w = np.asarray(weights, dtype=float)
    if w.size != n:
        raise ShapeError(f"{n} relations but {w.size} expert weights")
    if abs(w.sum() - 1.0) > 1e-9 or np.any(w < -1e-12):
        raise ConfigError("expert weights must form a probability vector")

    def pair_sum(a: np.ndarray) -> np.ndarray:
        """sum_k omega_k a^k over the pairs i < j; zero elsewhere."""
        return np.triu(np.tensordot(w, a, 1), 1)

    weighted_target = certainties * (scores - 0.5)
    W = pair_sum(certainties)
    G = pair_sum(weighted_target)
    S = W + W.T
    return SimplexWLSProblem(
        H=0.25 * (np.diag(S.sum(axis=1)) - S),
        c=0.5 * (G.sum(axis=1) - G.sum(axis=0)),
        const=float(pair_sum(weighted_target * (scores - 0.5)).sum()),
    )


def model1_problem(
    relations: list[PreferenceRelation],
    weights: np.ndarray | list[float],
) -> SimplexWLSProblem:
    """Assemble the collective-priority problem of one attribute's relations."""
    return consensus_form(*stacked(relations), weights)


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
    collective-priority model recovers exactly.
    """
    w = np.asarray(priorities, dtype=float)
    m = w.size
    from .scale import from_unit

    factor = 0.5 if half_gradient else 1.0
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            e = factor * (w[i] - w[j]) + 0.5
            if not (0.0 <= e <= 1.0):
                raise ConfigError(f"score {e:.6g} for pair ({i},{j}) leaves [0, 1]")
            coord = from_unit(scale, e)
            row.append(PeakIntervalTerm(scale, coord, coord, 1.0 if i == j else p))
        rows.append(tuple(row))
    return PreferenceRelation(scale, tuple(rows))
