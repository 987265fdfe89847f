"""Linguistic Markov assessments and per-period attribute weights.

Experts judge attribute-to-attribute transitions with a term matrix of
peak intervals (``terms.TermMatrix``, as preference relations do; no
reciprocity here, since a transition matrix is not a preference). The crisp
row-stochastic matrix comes from a per-row certainty-weighted least
squares fit over the simplex, a weighted projection solved exactly by
sorting breakpoints. Entries every expert scores as the floor point (unit
score 0 at certainty 1) are pinned to an exact zero instead of the fit's
1e-9 positivity floor.

Period weights follow the power scheme omega^t = e_origin M^(Z + t - 1),
computed by repeated vector-matrix products. A variant scheme reshapes
each period's starting vector by resetting the origin attribute's mass
to an externally supplied probability before iterating.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import Diagnostics, record
from .errors import ConfigError, ShapeError
from .terms import TermMatrix

_STOCHASTIC_TOL = 1e-9

# every estimated entry that is not pinned stays at least this large
_FLOOR = 1e-9

_FLOOR_SCORE_TOL = 1e-12


class LinguisticMarkovAssessment(TermMatrix):
    """One expert's q x q term matrix of transition judgements."""

    @property
    def q(self) -> int:
        return len(self.fields)


def check_transition_matrix(M: np.ndarray) -> list[str]:
    """Violations of row-stochasticity, each up to 1e-9; empty list means valid."""
    M = np.asarray(M, dtype=float)
    tol = _STOCHASTIC_TOL
    out: list[str] = []
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        out.append(f"matrix shape {M.shape} is not square")
        return out
    for i, row in enumerate(M):
        bad = np.flatnonzero(row < -tol)
        if bad.size:
            out.append(f"row {i} has negative entries at columns {bad.tolist()}")
        s = float(row.sum())
        if abs(s - 1.0) > tol:
            out.append(f"row {i} sums to {s:.12g}, not 1")
    return out


def require_stochastic(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    problems = check_transition_matrix(M)
    if problems:
        raise ConfigError("transition matrix invalid: " + "; ".join(problems))
    return M


def estimate_transition(
    assessments: list[LinguisticMarkovAssessment],
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Row-wise certainty-weighted transition matrix from expert assessments.

    Row i minimises sum_j sum_k p_ij^k (P_ij - E_ij^k)^2 subject to
    sum_j P_ij = 1 and P_ij >= 1e-9, over the columns not pinned to zero:
    P_ij = max(1e-9, (c_j - lam) / d_j) with d_j = sum_k p_ij^k,
    c_j = sum_k p_ij^k E_ij^k and lam making the row sum to 1. Columns with
    d_j = 0 split what the others leave at lam = 0 equally, or sit at the
    floor when the others need the whole row; two or more sharing mass
    record ``degenerate_row``.
    """
    if not assessments:
        raise ShapeError("need at least one assessment")
    q = assessments[0].q
    for a in assessments:
        if a.q != q:
            raise ShapeError("assessments must share one attribute count")
    P = np.stack([a.p for a in assessments])
    E = np.stack([a.scores for a in assessments])
    # a column is pinned when every expert rates it the floor point at p = 1
    pinned_cells = (
        (np.stack([a.lower for a in assessments]) <= _FLOOR_SCORE_TOL)
        & (np.stack([a.upper for a in assessments]) <= _FLOOR_SCORE_TOL)
        & (np.abs(P - 1.0) <= _FLOOR_SCORE_TOL)
    ).all(axis=0)
    D, C = P.sum(axis=0), (P * E).sum(axis=0)

    M = np.zeros((q, q))
    for i in range(q):
        pinned = np.flatnonzero(pinned_cells[i]).tolist()
        free = np.flatnonzero(~pinned_cells[i])
        if not free.size:
            raise ConfigError(f"row {i} pins every column to zero; no transition mass left")
        if pinned:
            record(diag, "zero_pinned", f"row {i}: columns {pinned} fixed at exactly 0")
        M[i, free], degenerate = _fit_row(D[i, free], C[i, free])
        if degenerate:
            record(diag, "degenerate_row", f"row {i}: data left directions unconstrained")
    return M


def _fit_row(d: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, bool]:
    """Minimiser of sum_j d_j x_j^2 - 2 c_j x_j over sum x = 1, x >= floor.

    Also says whether two or more flat (d_j = 0) columns share mass: the
    optimum is then not unique, and their equal split is its minimum-norm
    point.
    """
    if d.size == 1:
        return np.ones(1), False
    flat = d == 0.0
    n_flat = int(flat.sum())
    x = np.full(d.size, _FLOOR)
    if n_flat:
        x[~flat] = np.maximum(_FLOOR, c[~flat] / d[~flat])
        share = (1.0 - x[~flat].sum()) / n_flat
        if share >= _FLOOR:
            x[flat] = share
            return x, n_flat > 1
    d, c = d[~flat], c[~flat]
    # column j is off the floor iff lam < breaks_j; lam_k puts exactly the
    # k largest off it, and lam is the last lam_k below its breakpoint
    breaks = c - _FLOOR * d
    order = np.argsort(-breaks, kind="stable")
    inv = 1.0 / d[order]
    k = np.arange(1, d.size + 1)
    total = 1.0 - _FLOOR * n_flat
    lam = (np.cumsum(c[order] * inv) + _FLOOR * (d.size - k) - total) / np.cumsum(inv)
    lam = lam[np.flatnonzero(breaks[order] > lam)[-1]]
    x[~flat] = np.maximum(_FLOOR, (c - lam) / d)
    return x, False


def _check_steps(M: np.ndarray, T: int, Z: int, origin: int) -> np.ndarray:
    M = require_stochastic(M)
    if T < 1:
        raise ConfigError(f"period count must be >= 1, got {T}")
    if Z < 1:
        raise ConfigError(f"iteration count must be >= 1, got {Z}")
    if not (0 <= origin < M.shape[0]):
        raise ConfigError(f"origin index {origin} outside 0..{M.shape[0] - 1}")
    return M


def period_weights(
    M: np.ndarray,
    T: int,
    Z: int,
    origin: int,
) -> np.ndarray:
    """T x q matrix of attribute weights, omega^t = e_origin M^(Z+t-1)."""
    M = _check_steps(M, T, Z, origin)
    v = np.zeros(M.shape[0])
    v[origin] = 1.0
    for _ in range(Z - 1):
        v = v @ M
    out = np.empty((T, M.shape[0]))
    for t in range(T):
        v = v @ M
        out[t] = v
    return out


def period_weights_reshaped(
    M: np.ndarray,
    T: int,
    Z: int,
    origin: int,
    updates: list[float] | np.ndarray,
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Variant scheme: reset the origin's mass each period, then iterate.

    Period t starts from the previous period's weights (the origin basis
    vector for t = 1), forces the origin component to updates[t-1],
    rescales the rest proportionally (uniformly when the previous
    non-origin mass is zero), and applies Z + t - 1 products with M.
    """
    M = _check_steps(M, T, Z, origin)
    updates = np.asarray(updates, dtype=float)
    if updates.size != T:
        raise ShapeError(f"{T} periods but {updates.size} origin updates")
    q = M.shape[0]
    prev = np.zeros(q)
    prev[origin] = 1.0
    others = np.arange(q) != origin
    out = np.empty((T, q))
    for t, update in enumerate(updates.tolist(), start=1):
        if not (0.0 <= update <= 1.0):
            raise ConfigError(f"origin update {update:g} outside [0, 1]")
        v = np.full(q, update)
        mass = float(prev[others].sum())
        if mass <= 1e-15:
            if update < 1.0 and q > 1:
                record(
                    diag, "uniform_redistribution",
                    f"period {t}: previous non-origin mass is zero, spreading "
                    f"{1.0 - update:.6g} uniformly",
                )
            v[others] = (1.0 - update) / max(q - 1, 1)
        else:
            v[others] = prev[others] * (1.0 - update) / mass
        for _ in range(Z + t - 1):
            v = v @ M
        out[t - 1] = prev = v
    return out


def export_dot(M: np.ndarray, labels: list[str]) -> str:
    """DOT digraph of the transition structure, one edge per nonzero entry.

    Edges appear in row-major order with probabilities rounded to four
    decimals, so output is deterministic and diff-friendly.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"matrix shape {M.shape} is not square")
    q = M.shape[0]
    if len(labels) != q:
        raise ShapeError(f"{q} attributes but {len(labels)} labels")
    lines = ["digraph transitions {", "  rankdir=LR;"]
    for idx, name in enumerate(labels):
        safe = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{idx} [label="{safe}"];')
    for i in range(q):
        for j in range(q):
            if M[i, j] > 0.0:
                lines.append(f'  n{i} -> n{j} [label="{M[i, j]:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
