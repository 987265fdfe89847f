"""The batched transition fit and row checks against their row-by-row forms, to the bit.

``estimate_transition`` fits every row with two or more free columns and
no flat one in one pass (``markov._fit_rows``) and the others with
``markov._fit_row``; ``check_transition_matrix`` finds bad rows with
whole-array masks. The references below are the row-by-row forms they
replaced, kept verbatim: the matrices must match with ``tobytes`` and the
diagnostics and messages in kind, wording and order.
"""

import numpy as np
import pytest

from lingdecide import markov
from lingdecide.diagnostics import Diagnostics
from lingdecide.errors import ConfigError
from lingdecide.markov import (
    LinguisticMarkovAssessment,
    check_transition_matrix,
    estimate_transition,
)
from helpers import SCALE
from test_markov import fields_from_units

FLOOR = 1e-9


def row_by_row_fit(d, c):
    """One row's fit, flat columns and all, in the row-by-row arithmetic."""
    if d.size == 1:
        return np.ones(1), False
    flat = d == 0.0
    n_flat = int(flat.sum())
    x = np.full(d.size, FLOOR)
    if n_flat:
        x[~flat] = np.maximum(FLOOR, c[~flat] / d[~flat])
        share = (1.0 - x[~flat].sum()) / n_flat
        if share >= FLOOR:
            x[flat] = share
            return x, n_flat > 1
    d, c = d[~flat], c[~flat]
    breaks = c - FLOOR * d
    order = np.argsort(-breaks, kind="stable")
    inv = 1.0 / d[order]
    k = np.arange(1, d.size + 1)
    total = 1.0 - FLOOR * n_flat
    lam = (np.cumsum(c[order] * inv) + FLOOR * (d.size - k) - total) / np.cumsum(inv)
    lam = lam[np.flatnonzero(breaks[order] > lam)[-1]]
    x[~flat] = np.maximum(FLOOR, (c - lam) / d)
    return x, False


def row_by_row_transition(assessments, diag):
    """``estimate_transition`` as a loop over the rows."""
    P = np.stack([a.p for a in assessments])
    E = np.stack([a.scores for a in assessments])
    pinned_cells = (
        (np.stack([a.lower for a in assessments]) <= 1e-12)
        & (np.stack([a.upper for a in assessments]) <= 1e-12)
        & (np.abs(P - 1.0) <= 1e-12)
    ).all(axis=0)
    D, C = P.sum(axis=0), (P * E).sum(axis=0)
    q = len(D)
    M = np.zeros((q, q))
    for i in range(q):
        pinned = np.flatnonzero(pinned_cells[i]).tolist()
        free = np.flatnonzero(~pinned_cells[i])
        if not free.size:
            raise ConfigError(f"row {i} pins every column to zero; no transition mass left")
        if pinned:
            diag.record("zero_pinned", f"row {i}: columns {pinned} fixed at exactly 0")
        M[i, free], degenerate = row_by_row_fit(D[i, free], C[i, free])
        if degenerate:
            diag.record("degenerate_row", f"row {i}: data left directions unconstrained")
    return M


def seeded_assessments(seed):
    """Assessments with pinned columns, flat (all p = 0) cells, a row with a
    single free column, rows whose breakpoints tie, and plain rows.

    Row 0 keeps one free column; rows 1 and 2 get a flat cell, row 2's
    beside one free column and its pins; row 3 repeats one column's cells
    in another, so their breakpoints tie; rows 3 and 4 are all free.
    """
    rng = np.random.default_rng(seed)
    q, n = int(rng.integers(6, 40)), int(rng.integers(1, 5))
    pick = rng.integers(0, 4, size=(n, q, q, 2))
    units = np.where(pick == 0, 0.0, np.where(pick == 1, 1.0, rng.random(pick.shape)))
    units = np.sort(units, axis=-1)
    p = np.where(rng.random((n, q, q)) < 0.2, 1.0, rng.uniform(0.05, 1.0, (n, q, q)))
    pinned = rng.random((q, q)) < rng.uniform(0.0, 0.6)
    pinned[0] = np.arange(q) != q - 1
    pinned[2] = np.arange(q) > 1
    pinned[3:5] = False
    units[:, 3, 1], p[:, 3, 1] = units[:, 3, 0], p[:, 3, 0]
    units[:, pinned] = 0.0
    p[:, pinned] = 1.0
    kept = rng.integers(0, q, size=q)
    kept[:3] = [q - 1, 0, 0]
    units[0, np.arange(q), kept, 1] = np.maximum(units[0, np.arange(q), kept, 1], 0.25)
    p[:, np.arange(q), kept] = np.maximum(p[:, np.arange(q), kept], 0.05)
    p[:, 1, 2] = p[:, 2, 1] = 0.0
    return [
        LinguisticMarkovAssessment.from_fields(SCALE, fields_from_units(u, pk))
        for u, pk in zip(units, p)
    ]


@pytest.mark.parametrize("seed", range(24))
def test_batched_rows_match_the_row_by_row_fit_to_the_bit(seed):
    assessments = seeded_assessments(seed)
    diag, ref_diag = Diagnostics(), Diagnostics()
    got = estimate_transition(assessments, diag=diag)
    want = row_by_row_transition(assessments, ref_diag)
    assert got.tobytes() == want.tobytes()
    assert diag.events == ref_diag.events
    assert "zero_pinned" in diag.kinds()
    assert got[0].tolist() == [0.0] * (len(got) - 1) + [1.0]


@pytest.mark.parametrize("seed", range(24))
def test_fit_row_matches_the_row_by_row_arithmetic_to_the_bit(seed):
    """``_fit_row`` leaves its flat-free rows to ``_fit_rows``; the floor
    case there, where the flat columns get no share, is seeded too."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 12))
    d = np.where(rng.random(size) < 0.3, 0.0, rng.uniform(0.1, 3.0, size))
    c = d * rng.uniform(0.0, 1.0, size) * rng.choice([1.0, 3.0])
    c[rng.random(size) < 0.3] = c[0]
    got, degenerate = markov._fit_row(d, c)
    want, want_degenerate = row_by_row_fit(d, c)
    assert got.tobytes() == want.tobytes() and degenerate == want_degenerate


def row_by_row_check(M):
    """``check_transition_matrix`` as a loop over the rows."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return [f"matrix shape {M.shape} is not square"]
    out = []
    for i, row in enumerate(M):
        bad = np.flatnonzero(row < -1e-9)
        if bad.size:
            out.append(f"row {i} has negative entries at columns {bad.tolist()}")
        s = float(row.sum())
        if abs(s - 1.0) > 1e-9:
            out.append(f"row {i} sums to {s:.12g}, not 1")
    return out


@pytest.mark.parametrize("seed", range(24))
def test_row_checks_match_the_row_by_row_messages(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 70))
    M = rng.random((q, q)) * 10.0 ** rng.uniform(-4, 4, (q, q))
    M /= M.sum(axis=1, keepdims=True)
    M[rng.random((q, q)) < 0.05] *= -1.0
    M[rng.random(q) < 0.2] += 1e-9 * rng.choice([0.5, 2.0])
    M[rng.random(q) < 0.1, 0] = np.nan
    for matrix in (M, np.asfortranarray(M), M.T, M.tolist()):
        assert check_transition_matrix(matrix) == row_by_row_check(matrix)
    assert check_transition_matrix(M[:, :-1]) == row_by_row_check(M[:, :-1])
