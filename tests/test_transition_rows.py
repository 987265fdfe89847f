"""The batched transition fit and row checks against their row-by-row forms, to the bit.

``estimate_transition`` fits every row in one pass (``markov._fit_rows``),
single free columns and flat ones included; ``check_transition_matrix``
finds bad rows with whole-array masks. The references below are the
row-by-row forms they replaced: the matrices must match with ``tobytes``
and the diagnostics and messages in kind, wording and order.
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lingdecide import markov
from lingdecide.diagnostics import Diagnostics
from lingdecide.errors import ConfigError
from lingdecide.markov import (
    LinguisticMarkovAssessment,
    check_transition_matrix,
    estimate_transition,
)
from lingdecide.scenario import scenario_from_dict
from helpers import SCALE
from test_cli import src_env
from test_generated_scenarios import decide, generate
from test_markov import fields_from_units

FLOOR = 1e-9
DATA = Path(__file__).parent / "data"


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
    """One row of free columns, some flat, as a one-row stack; the floor
    case, where the flat columns get no share, is seeded too."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 12))
    d = np.where(rng.random(size) < 0.3, 0.0, rng.uniform(0.1, 3.0, size))
    c = d * rng.uniform(0.0, 1.0, size) * rng.choice([1.0, 3.0])
    c[rng.random(size) < 0.3] = c[0]
    got, degenerate = markov._fit_rows(d[None], c[None], np.zeros((1, size), bool))
    want, want_degenerate = row_by_row_fit(d, c)
    assert got[0].tobytes() == want.tobytes() and degenerate.tolist() == [want_degenerate]


def test_decide_fits_flat_columns_as_the_row_by_row_fit_does(tmp_path):
    """In row 0 two flat columns (every expert gives p = 0) share what the
    low-scored others leave; in row 1 one flat column sits at the floor,
    because the high-scored others need the whole row."""
    data = json.loads(generate.scenario_text(5, m=4, q=4, n=3, periods=2, scheme="power"))
    flat, low, high = generate.term(8, 8, 0.0), generate.term(1, 1, 0.5), generate.term(32, 32, 0.5)
    for rows in data["markov"]["assessments"].values():
        rows[0] = [flat, flat, low, low]
        rows[1] = [flat, high, high, high]
    path = tmp_path / "flat_columns.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = decide(path)
    assert (code, err) == (0, "")
    report = json.loads(out)
    ref_diag = Diagnostics()
    want = row_by_row_transition(scenario_from_dict(data).markov.assessments, ref_diag)
    assert np.array(report["transition"]).tobytes() == want.tobytes()
    assert report["diagnostics"] == [e.as_dict() for e in ref_diag.events] == [
        {"kind": "degenerate_row", "detail": "row 0: data left directions unconstrained"}
    ]
    assert want[0, 0] == want[0, 1] > FLOOR and want[1, 0] == FLOOR


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-900, 900))
def test_a_row_scaled_by_a_power_of_two_fits_to_the_same_bits(seed, k):
    """The fit is exact under a power-of-two scale of a row's D and C
    while every value stays normal, so scaling a row moves no bit."""
    rng = np.random.default_rng(seed)
    rows, size = int(rng.integers(1, 5)), int(rng.integers(2, 10))
    D = np.where(rng.random((rows, size)) < 0.3, 0.0, rng.uniform(0.1, 3.0, (rows, size)))
    C = D * rng.uniform(0.0, 1.0, (rows, size)) * rng.choice([1.0, 3.0])
    pinned = rng.random((rows, size)) < 0.15
    r = int(rng.integers(rows))
    D2, C2 = D.copy(), C.copy()
    D2[r], C2[r] = np.ldexp(D[r], k), np.ldexp(C[r], k)
    for x in (D2[r], C2[r], FLOOR * D2[r]):
        assume(np.all((x == 0.0) | (np.abs(x) >= np.finfo(float).tiny)))
    want, want_degenerate = markov._fit_rows(D, C, pinned)
    got, degenerate = markov._fit_rows(D2, C2, pinned)
    assert got.tobytes() == want.tobytes()
    assert degenerate.tolist() == want_degenerate.tolist()


@pytest.mark.parametrize("stage", [["--stage", "markov"], []], ids=["markov", "all"])
def test_subnormal_certainties_fit_a_stochastic_transition(tmp_path, stage):
    """Every expert gives row 0 certainties of 5e-324: the row's certainty
    sums D are subnormal, and 1 / D overflows unless the row is scaled.
    Then every expert gives cell (0, 1) alone that certainty: its D lies
    far below the row's largest, and 1 / D overflows unless it is flat."""
    for cells in (slice(None), slice(1, 2)):
        data = json.loads((DATA / "solver_paths.json").read_text(encoding="utf-8"))
        for rows in data["markov"]["assessments"].values():
            for cell in rows[0][cells]:
                cell["p"] = 5e-324
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "lingdecide.cli", str(path), "--report", "json", *stage],
            capture_output=True,
            text=True,
            timeout=120,
            env=src_env(),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        M = np.array(json.loads(proc.stdout)["transition"])
        assert np.isfinite(M).all() and np.abs(M.sum(axis=1) - 1.0).max() <= 1e-9


def test_a_certainty_sum_far_below_the_row_s_largest_fits_as_a_flat_column():
    """Nine D of 1e-307 beside a D of 1: their 1 / D would overflow its
    prefix sum, so they fit as flat columns, as nine D of 1e-300 nearly do."""
    target = np.array([0.3] + [0.5] * 9)
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tiny in (1e-307, 1e-300):
            D = np.array([[1.0] + [tiny] * 9])
            rows.append(markov._fit_rows(D, D * target, np.zeros(D.shape, bool))[0])
    assert np.abs(rows[0] - rows[1]).max() <= 1e-12
    assert np.abs(rows[0] - ([0.3] + [0.7 / 9] * 9)).max() <= 1e-12


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
        if not abs(s - 1.0) <= 1e-9:  # a NaN sum too
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
