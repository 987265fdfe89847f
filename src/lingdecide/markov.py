"""Linguistic Markov assessments and per-period attribute weights.

Experts judge attribute-to-attribute transitions with a term matrix of
peak intervals (``terms.TermMatrix``, as preference relations do; no
reciprocity here, since a transition matrix is not a preference). The crisp
row-stochastic matrix comes from a per-row certainty-weighted least
squares fit over the simplex, a weighted projection solved exactly by
sorting breakpoints, for every row in one pass. Entries every expert
scores as the floor point (unit score 0 at certainty 1) are pinned to an
exact zero instead of the fit's positivity floor, ``solver.STRICT_FLOOR``.

Period weights come from one function, ``period_weights``, and one loop
of vector-matrix products, under either of two schemes: the power scheme
omega^t = e_origin M^(Z + t - 1), or the reshape scheme, which resets
the origin attribute's mass in each period's starting vector to an
externally supplied probability before iterating.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import Diagnostics, record
from .errors import ConfigError, ShapeError
from .solver import STRICT_FLOOR as _FLOOR
from .terms import TermMatrix

_STOCHASTIC_TOL = 1e-9

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
        return [f"matrix shape {M.shape} is not square"]
    M = np.ascontiguousarray(M)  # so that each row sums as it would on its own
    negative = M < -tol
    sums = M.sum(axis=1)
    off = ~(np.abs(sums - 1.0) <= tol)  # so that a NaN sum is off too
    for i in np.flatnonzero(negative.any(axis=1) | off).tolist():
        bad = np.flatnonzero(negative[i])
        if bad.size:
            out.append(f"row {i} has negative entries at columns {bad.tolist()}")
        if off[i]:
            out.append(f"row {i} sums to {float(sums[i]):.12g}, not 1")
    return out


def estimate_transition(
    assessments: list[LinguisticMarkovAssessment],
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Row-wise certainty-weighted transition matrix from expert assessments.

    Row i minimises sum_j sum_k p_ij^k (P_ij - E_ij^k)^2 subject to
    sum_j P_ij = 1 and P_ij >= 1e-9, over the columns not pinned to zero:
    P_ij = max(1e-9, (c_j - lam) / d_j) with d_j = sum_k p_ij^k,
    c_j = sum_k p_ij^k E_ij^k and lam making the row sum to 1. Columns with
    d_j = 0, or far below the row's largest d_j, split what the others
    leave at lam = 0 equally, or sit at the floor when the others need
    the whole row; two or more sharing mass record ``degenerate_row``.
    One ``_fit_rows`` call fits every row.
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
    M, degenerate = _fit_rows(P.sum(axis=0), (P * E).sum(axis=0), pinned_cells)
    for i, (row, flagged) in enumerate(zip(pinned_cells, degenerate.tolist())):
        columns = np.flatnonzero(row).tolist()
        if len(columns) == q:
            raise ConfigError(f"row {i} pins every column to zero; no transition mass left")
        if columns:
            record(diag, "zero_pinned", f"row {i}: columns {columns} fixed at exactly 0")
        if flagged:
            record(diag, "degenerate_row", f"row {i}: data left directions unconstrained")
    return M


def _fit_rows(D: np.ndarray, C: np.ndarray, pinned: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimiser of sum_j D_rj x_rj^2 - 2 C_rj x_rj over sum_j x_rj = 1,
    x_rj >= floor for each row r, the columns ``pinned`` marks staying 0,
    and each row's flag that its optimum is not unique.

    A flat column (D_rj = 0, or tiny once scaled, below) is held out of
    the breakpoint pass, as a pinned one is; the flat columns then share
    what the others leave at lam = 0 equally, or sit at the floor when
    the others need the whole row. Two or more sharing mass leave the
    optimum not unique, and their equal split is its minimum-norm point.
    A row with one free column gets exactly 1.

    Each row is first scaled by the power of two that puts its largest D
    in [0.5, 1): each step below is exact under it while values stay
    normal. A column whose scaled D is below 2^-1000 counts as flat, so
    1 / D stays at most 2^1000 and no prefix sum overflows.
    """
    D, C = np.ldexp((D, C), -np.frexp(D.max(axis=1, keepdims=True))[1])
    flat = D < 2.0**-1000  # a pinned column has D = the expert count
    held = pinned | flat
    n_flat = flat.sum(axis=1)
    D = np.where(flat, 1.0, D)  # no flat column divides by zero
    # column j is off the floor iff lam < breaks_j; lam_k puts exactly the
    # k largest off it, and lam is the last lam_k below its breakpoint. A
    # held column's breakpoint is -inf: it sorts last, below every lam_k.
    breaks = np.where(held, -np.inf, C - _FLOOR * D)
    order = np.argsort(-breaks, axis=1, kind="stable")
    inv = 1.0 / np.take_along_axis(D, order, axis=1)
    k = np.arange(1, D.shape[1] + 1)
    cumsum = np.cumsum(np.take_along_axis(C, order, axis=1) * inv, axis=1)
    n_fit = (~held).sum(axis=1, keepdims=True)
    total = 1.0 - _FLOOR * n_flat[:, None]  # what the flat columns leave at the floor
    lam = (cumsum + _FLOOR * (n_fit - k) - total) / np.cumsum(inv, axis=1)
    below = np.take_along_axis(breaks, order, axis=1) > lam
    lam = lam[np.arange(len(lam)), below.shape[1] - 1 - np.argmax(below[:, ::-1], axis=1)]
    at_flat = np.full(len(D), _FLOOR)
    degenerate = np.zeros(len(D), bool)
    for r in np.flatnonzero(n_flat).tolist():
        # the others at lam = 0, summed alone: numpy sums pairwise, so padding would move bits
        share = (1.0 - np.maximum(_FLOOR, C[r, ~held[r]] / D[r, ~held[r]]).sum()) / n_flat[r]
        if share >= _FLOOR:
            lam[r], at_flat[r], degenerate[r] = 0.0, share, n_flat[r] > 1
    x = np.where(flat, at_flat[:, None], np.maximum(_FLOOR, (C - lam[:, None]) / D))
    x[(~pinned).sum(axis=1) == 1] = 1.0
    return np.where(pinned, 0.0, x), degenerate


def period_weights(
    M: np.ndarray, T: int, Z: int, origin: int,
    updates: list[float] | np.ndarray | None = None, diag: Diagnostics | None = None,
) -> np.ndarray:
    """T x q matrix of attribute weights, one row per period, under either scheme.

    Without ``updates`` (power scheme), omega^t = e_origin M^(Z+t-1). With
    them (reshape scheme), period t starts from the previous period's
    weights (the origin basis vector for t = 1), forces the origin
    component to updates[t-1], rescales the rest proportionally (uniformly
    when the previous non-origin mass is zero), and applies Z + t - 1
    products with M. With one attribute the update is ignored: the origin
    keeps weight 1, as no other attribute can take the rest.
    """
    M = np.asarray(M, dtype=float)
    problems = check_transition_matrix(M)
    if problems:
        raise ConfigError("transition matrix invalid: " + "; ".join(problems))
    if T < 1:
        raise ConfigError(f"period count must be >= 1, got {T}")
    if Z < 1:
        raise ConfigError(f"iteration count must be >= 1, got {Z}")
    q = M.shape[0]
    if not (0 <= origin < q):
        raise ConfigError(f"origin index {origin} outside 0..{q - 1}")
    if updates is not None:
        updates = np.asarray(updates, dtype=float)
        if updates.size != T:
            raise ShapeError(f"{T} periods but {updates.size} origin updates")
    v = np.zeros(q)
    v[origin] = 1.0
    others = np.arange(q) != origin
    out = np.empty((T, q))
    for t in range(1, T + 1):
        steps = Z if t == 1 else 1
        if updates is not None:
            update = float(updates[t - 1])
            if not (0.0 <= update <= 1.0):
                raise ConfigError(f"origin update {update:g} outside [0, 1]")
            if q == 1 and update < 1.0:
                record(diag, "origin_update_ignored", f"period {t}: update {update:.6g} "
                       "ignored, one attribute keeps weight 1")
                update = 1.0
            mass = float(v[others].sum())
            start = np.full(q, update)
            if mass <= 1e-15:
                if update < 1.0:
                    record(diag, "uniform_redistribution", f"period {t}: previous non-origin "
                           f"mass is zero, spreading {1.0 - update:.6g} uniformly")
                start[others] = (1.0 - update) / max(q - 1, 1)
            else:
                start[others] = v[others] * (1.0 - update) / mass
            v, steps = start, Z + t - 1
        for _ in range(steps):
            v = v @ M
        out[t - 1] = v
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
