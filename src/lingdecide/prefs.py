"""Reciprocal preference relations and consensus expert weighting.

A preference relation over m alternatives stores one peak interval per
ordered pair. The diagonal is the indifferent point (unit 0.5, p = 1);
endpoints mirror across the matrix: unit(lower_ij) + unit(upper_ji) = 1,
and certainties are symmetric. The score matrix E collects interval
midpoints, so E_ij + E_ji = 1.

Expert weights blend three normalised views:

* outer: pairwise relation distances between the certainty-weighted,
  centred scores p (E - 1/2), each expert weighted by its summed
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
once, when built; the scenario decoder checks the reciprocity of every
relation at once (``reciprocity_violations``). The weighting chain
(``weigh_experts``, which returns every attribute's report and records
the chain's diagnostics attribute by attribute) and the model builder
(``consensus_forms``, which returns the (H, c, const) arrays of every
attribute) run on every attribute's relations at once, stacked into
(q, n, m, m) score and certainty arrays; the one-attribute forms
(``model1_problem``, and those in ``lingdecide.paper``) are the same code
on a stack of one. Where a step would pair every expert with every
other, or route every pair through every third alternative, it loops
over the experts or the alternatives, so no temporary grows past
O(q n m^2).
"""

from __future__ import annotations

import math

import numpy as np

from . import records
from .diagnostics import Diagnostics, record
from .errors import ConfigError, EmptyTrustError, ShapeError
from .terms import TermMatrix

_RECIP_TOL = 1e-9

ENTROPY_FLOOR = 1e-12


class PreferenceRelation(TermMatrix):
    """m x m term matrix over m >= 2 alternatives.

    Its own rule is reciprocity (``reciprocity_violations``), which the
    scenario decoder checks on a whole stack of relations at once.
    """

    minimum_size = 2

    @property
    def m(self) -> int:
        return len(self.fields)

    @classmethod
    def stack_violations(
        cls, lower: np.ndarray, upper: np.ndarray, p: np.ndarray
    ) -> dict[int, list[Violation]]:
        return reciprocity_violations(lower, upper, p)


@records.record(frozen=True)
class Violation:
    """One broken rule of a preference relation, at cell (i, j)."""

    i: int
    j: int
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"({self.i}, {self.j}) {self.rule}: {self.detail}"


def reciprocity_violations(
    lower: np.ndarray, upper: np.ndarray, p: np.ndarray
) -> dict[int, list[Violation]]:
    """Every reciprocity violation of each relation in a stack.

    Takes the (R, m, m) unit endpoints and certainties of R relations and
    checks them all at once; only the relations found broken are worded.
    The result maps each broken relation's index to its violations:
    diagonal violations first, then each pair i < j in row-major order
    with its endpoint violation before its probability one.
    """
    tol = _RECIP_TOL
    d = np.arange(lower.shape[-1])
    # the pairs i < j in row-major order; only they are checked, so the
    # temporaries hold half of each relation
    rows, cols = np.triu_indices(lower.shape[-1], 1)
    with np.errstate(invalid="ignore", over="ignore"):
        bad_diagonal = (
            (np.abs(lower[:, d, d] - 0.5) > tol)
            | (np.abs(upper[:, d, d] - 0.5) > tol)
            | (np.abs(p[:, d, d] - 1.0) > tol)
        )
        bad_endpoints = np.abs(lower[:, rows, cols] + upper[:, cols, rows] - 1.0) > tol
        bad_endpoints |= np.abs(upper[:, rows, cols] + lower[:, cols, rows] - 1.0) > tol
        bad_p = np.abs(p[:, rows, cols] - p[:, cols, rows]) > tol
    bad_pairs = bad_endpoints | bad_p
    out: dict[int, list[Violation]] = {}
    for r in np.flatnonzero(bad_diagonal.any(axis=1) | bad_pairs.any(axis=1)).tolist():
        lo, hi, pr = lower[r], upper[r], p[r]
        found = [
            Violation(
                k, k, "diagonal",
                f"expected the indifferent point (unit 0.5, p=1), got "
                f"[{lo[k, k]:.6g}, {hi[k, k]:.6g}] p={pr[k, k]:.6g}",
            )
            for k in np.flatnonzero(bad_diagonal[r]).tolist()
        ]
        for pair in np.flatnonzero(bad_pairs[r]).tolist():
            i, j = rows[pair].item(), cols[pair].item()
            if bad_endpoints[r, pair]:
                found.append(
                    Violation(
                        i, j, "endpoint-reciprocity",
                        f"unit sums ({lo[i, j] + hi[j, i]:.6g}, {hi[i, j] + lo[j, i]:.6g}) "
                        f"differ from 1",
                    )
                )
            if bad_p[r, pair]:
                found.append(
                    Violation(
                        i, j, "probability-reciprocity", f"p={pr[i, j]:.6g} vs p={pr[j, i]:.6g}"
                    )
                )
        out[r] = found
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
    """(..., n, n) root-mean differences of p (E - 1/2) over the pairs i < j.

    Takes the (..., n, m, m) scores and certainties of one attribute's
    relations, or of a stack of attributes. Centred on 1/2, a pair reads
    the same up to sign from either side of the diagonal, so relabelling
    the alternatives moves no distance. One pass per expert a gives row a
    from column a on, mirrored into column a, so each expert pair is taken
    once. The pair axis leads, so each reduction over two columns or more
    adds pairs one by one in row-major order, and ``float_power`` squares
    through the C library's ``pow``, where pow(-x, 2) is pow(x, 2): the
    result keeps the last bit of a scalar loop over pairs.
    """
    m, n = scores.shape[-1], scores.shape[-3]
    i, j = np.triu_indices(m, 1)
    weighted = np.ascontiguousarray(np.moveaxis((certainties * (scores - 0.5))[..., i, j], -1, 0))
    total = np.zeros(weighted.shape[1:] + (n,))
    for a in range(n - 1):
        row = np.float_power(weighted[..., a, None] - weighted[..., a:], 2).sum(axis=0)
        total[..., a, a:] = total[..., a:, a] = row
    return np.sqrt(2.0 * total / (m * (m - 1)))


def outer_weights(scores: np.ndarray, certainties: np.ndarray) -> np.ndarray:
    """Distance-mass weights across experts; uniform when all coincide.

    Takes one attribute's stacked (n, m, m) scores and certainties, or a
    (q, n, m, m) stack of attributes for (q, n) weights.
    """
    n = scores.shape[-3]
    if n < 2:
        raise ShapeError("outer weights need at least two experts")
    sums = distances(scores, certainties).sum(axis=-2)
    total = sums.sum(axis=-1, keepdims=True)
    coincide = total <= 1e-12
    return np.where(coincide, 1.0 / n, sums / np.where(coincide, 1.0, total))


def deviation_totals(scores: np.ndarray, paper_literal: bool = False) -> np.ndarray:
    """``paper.inner_deviation`` of every (m, m) score matrix in a (..., m, m) stack.

    Returns the (...) totals and records nothing. One pass per third
    alternative v routes every pair through v, so no temporary holds
    more than the pairs of each matrix.
    """
    E = np.asarray(scores, dtype=float)
    m = E.shape[-1]
    if m < 3:
        return np.zeros(E.shape[:-2])
    i, j = np.triu_indices(m, 1)
    direct = E[..., i, j]
    total = None
    for v in range(m):
        # |E_ij - (E_iv - E_jv + 1/2)| for the pairs i < j that avoid v,
        # in row-major order: E_ij against its score routed through v
        keep = (i != v) & (j != v)
        through = E[..., :, v]
        deviation = np.abs(direct[..., keep] - (through[..., i[keep]] - through[..., j[keep]] + 0.5))
        if total is not None:
            deviation = np.concatenate([total[..., None], deviation], axis=-1)
        # a running sum adds the triples in (v, i, j) order, as the scalar
        # definition does, so the total keeps its last bit
        total = np.cumsum(deviation, axis=-1)[..., -1]
    if paper_literal:
        return total + 0.5 * _triple_count(m) - 0.5 * m * (m - 1)
    return total


def _triple_count(m: int) -> int:
    """Triples (v, i < j) with v distinct from i and j."""
    return m * (m - 1) * (m - 2) // 2


def _note_deviation(diag: Diagnostics | None, m: int, paper_literal: bool) -> None:
    """The event one expert's deviation records, if any."""
    if m < 3:
        record(diag, "no_indirect_path", f"m={m} has no third alternative to route through")
    elif paper_literal:
        record(
            diag, "paper_literal",
            f"printed constant m(m-1)*0.5 = {m * (m - 1) * 0.5:g} used in place of "
            f"the triple count {_triple_count(m) * 0.5:g}",
        )


def entropy_weights(deviations: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``paper.inner_weights`` of each row of (..., n) nonnegative deviations.

    Also returns the mask of the entropies that were floored. Records and
    checks nothing; a row with a negative deviation gives a meaningless
    row.
    """
    u = np.asarray(deviations, dtype=float)
    total = u.sum(axis=-1, keepdims=True)
    spread = total > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        shares = u / total
    positive = spread & (shares > 0.0)
    le = np.zeros(u.shape)
    # math.log2, one share at a time: numpy's log2 may differ in the last bit
    log2m = math.log2(m)
    le[positive] = [-(p * math.log2(p)) / log2m for p in shares[positive].tolist()]
    floored = spread & (le < ENTROPY_FLOOR)
    inv = 1.0 / np.maximum(le, ENTROPY_FLOOR)
    return np.where(spread, inv / inv.sum(axis=-1, keepdims=True), 1.0 / u.shape[-1]), floored


def _note_floor(diag: Diagnostics | None, floored: np.ndarray) -> None:
    if floored.any():
        record(
            diag, "entropy_floor",
            f"entropy floored at {ENTROPY_FLOOR:g} for experts {np.flatnonzero(floored).tolist()}",
        )


def trust_weights(psi: np.ndarray | list[float]) -> np.ndarray:
    """Normalised trust degrees."""
    psi = np.asarray(psi, dtype=float)
    if not np.all((psi >= 0.0) & (psi <= 1.0)):
        raise ConfigError("trust degrees must lie in [0, 1]")
    total = psi.sum()
    if total <= 0.0:
        raise EmptyTrustError("all trust degrees are zero")
    return psi / total


def _is_probability(v: np.ndarray) -> np.ndarray:
    """Whether each vector on ``v``'s last axis sums to 1 within 1e-9, no entry below -1e-12 (NaN fails)."""
    return (np.abs(v.sum(axis=-1) - 1.0) <= 1e-9) & np.all(v >= -1e-12, axis=-1)


def blend_weights(
    outer: np.ndarray, inner: np.ndarray, trust: np.ndarray, alpha: float, beta: float, gamma: float
) -> np.ndarray:
    """Convex combination of the three weight views.

    Each view is an (n,) probability vector or a stack of them, one per
    row; a stack of views blends row by row.
    """
    vectors = [np.asarray(v, dtype=float) for v in (outer, inner, trust)]
    n = vectors[0].shape[-1]
    for v in vectors:
        if v.shape[-1] != n:
            raise ShapeError("weight vectors must share one length")
        bad = ~_is_probability(v).ravel()
        if bad.any():
            row = v.reshape(-1, n)[np.argmax(bad)]
            raise ConfigError(f"weight vector {row.tolist()} is not a probability vector")
    coeffs = (alpha, beta, gamma)
    if not (all(0.0 <= c <= 1.0 for c in coeffs) and abs(sum(coeffs) - 1.0) <= 1e-9):
        raise ConfigError(f"blend coefficients {coeffs} must be in [0,1] and sum to 1")
    return alpha * vectors[0] + beta * vectors[1] + gamma * vectors[2]


@records.record(frozen=True, eq=False)
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
        views = {k: getattr(self, k).tolist() for k in ("outer", "inner", "trust", "blended")}
        return views | {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}


def weigh_experts(
    scores: np.ndarray,
    certainties: np.ndarray,
    trust: np.ndarray | list[float],
    alpha: float,
    beta: float,
    gamma: float,
    paper_literal: bool = False,
    diag: Diagnostics | None = None,
) -> list[ExpertWeightReport]:
    """The full weighting chain of (q, n, m, m) stacked relations, all attributes at once.

    Returns one report per attribute. Records, attribute by attribute,
    each expert's deviation event and then the attribute's entropy floor,
    and raises the printed-constant failure at the first attribute that
    meets it, as that attribute's chain alone would.
    """
    q, n, m = scores.shape[:3]
    outer = outer_weights(scores, certainties)
    deviations = deviation_totals(scores, paper_literal)
    inner, floored = entropy_weights(deviations, m)
    tru = trust_weights(trust)
    blended = blend_weights(outer, inner, tru, alpha, beta, gamma)
    for array in (outer, inner, tru, blended):
        array.setflags(write=False)
    for a in range(q):
        for _ in range(n):
            _note_deviation(diag, m, paper_literal)
        if np.any(deviations[a] < 0.0):
            # only the printed constant can make a total of absolute values negative
            raise ConfigError(
                f"deviations must be nonnegative: the printed constant m(m-1)*0.5 = "
                f"{m * (m - 1) * 0.5:g} exceeds the {_triple_count(m) * 0.5:g} "
                f"that the triples add"
            )
        _note_floor(diag, floored[a])
    return [ExpertWeightReport(outer[a], inner[a], tru, blended[a], alpha, beta, gamma) for a in range(q)]


def consensus_forms(
    scores: np.ndarray,
    certainties: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The collective-priority quadratic forms of q attributes at once.

    Takes (q, n, m, m) stacked scores and certainties and (q, n) expert
    weights, one probability vector per attribute (``weight_vector``
    checks one). Returns the (q, m, m) H, (q, m) c and (q,) const. Only
    pairs i < j enter: the model reads each relation's upper triangle.
    """
    q, n, m = scores.shape[:3]
    w = np.ascontiguousarray(weights, dtype=float)[:, None, :]

    def pair_sum(a: np.ndarray) -> np.ndarray:
        """sum_k omega_k a^k over the pairs i < j of each attribute; zero elsewhere."""
        return np.triu(np.matmul(w, a.reshape(q, n, m * m)).reshape(q, m, m), 1)

    weighted_target = certainties * (scores - 0.5)
    W = pair_sum(certainties)
    G = pair_sum(weighted_target)
    S = W + W.swapaxes(1, 2)
    diagonal = np.zeros_like(S)
    d = np.arange(m)
    diagonal[:, d, d] = S.sum(axis=2)
    H = 0.25 * (diagonal - S)
    c = 0.5 * (G.sum(axis=2) - G.sum(axis=1))
    const = pair_sum(weighted_target * (scores - 0.5)).reshape(q, m * m).sum(axis=1)
    return H, c, const


def comparison_groups(H: np.ndarray) -> list[list[int]]:
    """The connected components of one attribute's comparison graph, S_ij > 0.

    ``H`` is the attribute's (m, m) quadratic term from ``consensus_forms``,
    a quarter of the graph's weighted Laplacian, so H_ij = -S_ij / 4 off the
    diagonal. Components are listed by their first alternative.
    """
    m = len(H)
    reach = (H < 0) | np.eye(m, dtype=bool)
    for _ in range(m.bit_length()):  # each boolean square doubles the path length covered
        reach = reach @ reach
    groups = dict.fromkeys(tuple(np.flatnonzero(row).tolist()) for row in reach)
    return [list(group) for group in groups]


def weight_vector(weights: np.ndarray | list[float], n: int) -> np.ndarray:
    """``weights`` as an (n,) float array, checked to be a probability vector."""
    w = np.asarray(weights, dtype=float)
    if w.size != n:
        raise ShapeError(f"{n} relations but {w.size} expert weights")
    if not _is_probability(w.ravel()):
        raise ConfigError("expert weights must form a probability vector")
    return w


def model1_problem(
    relations: list[PreferenceRelation],
    weights: np.ndarray | list[float],
) -> SimplexWLSProblem:
    """Assemble the collective-priority problem of one attribute's relations."""
    from .paper import SimplexWLSProblem
    scores, certainties = stacked(relations)
    w = weight_vector(weights, len(relations))
    H, c, const = consensus_forms(scores[None], certainties[None], w[None])
    return SimplexWLSProblem(H=H[0], c=c[0], const=const[0])
