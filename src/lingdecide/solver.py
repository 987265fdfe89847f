"""Convex quadratics over the probability simplex.

The collective-priority model reduces to the quadratic form

    minimise   x.Hx - 2 c.x + const
    subject to sum(x) = 1,  x_i >= 1e-9

with H symmetric positive semidefinite; the floor is the constant
``STRICT_FLOOR``, so every coordinate stays positive. ``solve_stack``
runs a primal active-set method on the bound constraints of a stack of
such problems at once, and ``solve`` is its stack of one. Each subproblem
is the bordered KKT system of the sum constraint, solved for the
minimum-norm step, so rank-deficient objectives (for the priority model,
a disconnected comparison graph) resolve to the minimum-norm optimum,
flagged as degenerate.

``brute_force_oracle`` is the independent check: the exact minimum of the
objective over the discretised simplex {v / N}. It enumerates every grid
point, fiber by fiber; along the last free coordinate the objective is an
exact one-dimensional quadratic, so each fiber contributes its clamped
vertex and endpoints. The result equals naive exhaustive enumeration
(tests cross-check that) at a fraction of the cost.
"""

from __future__ import annotations

import math

import numpy as np

from . import records
from .errors import NumericalError, OracleScopeError, ShapeError

STRICT_FLOOR = 1e-9

_VIOLATION_TOL = 1e-12
_RELEASE_TOL = 1e-10


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


def _flat_minimisers(
    H: np.ndarray, c: np.ndarray, at: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (r, m) minimisers on each problem's flat and the (r,) degeneracy flags.

    The coordinates in the (r, m) mask ``at`` sit at the floor. Each
    bordered KKT system [[H_ff, 1], [1^T, 0]], with an identity row per
    floored coordinate, is solved for the step from its flat's centroid:
    all regular systems in one batched call, and each singular one (an
    eigenvalue within lstsq's cutoff, eps (m + 1) max |eigenvalue|) for
    lstsq's minimum-norm step. No eigenvectors: on a 2-vCPU host LAPACK
    took over 100 ms for eight bordered Laplacians of m = 30 (clustered).
    """
    r, m = c.shape
    free = ~at
    f = free.sum(axis=1)
    centroid = np.where(free, ((1.0 - STRICT_FLOOR * (m - f)) / f)[:, None], STRICT_FLOOR)
    K = np.zeros((r, m + 1, m + 1))
    K[:, :m, :m] = np.where(free[:, :, None] & free[:, None, :], H, np.eye(m) * at[:, :, None])
    K[:, :m, m] = K[:, m, :m] = free
    rhs = np.zeros((r, m + 1))
    rhs[:, :m] = np.where(free, c - (H @ centroid[..., None])[..., 0], 0.0)
    w = np.abs(np.linalg.eigvalsh(K))
    singular = w.min(axis=1) <= np.finfo(float).eps * (m + 1) * w.max(axis=1)
    step = np.empty((r, m + 1))
    step[~singular] = np.linalg.solve(K[~singular], rhs[~singular, :, None])[..., 0]
    for i in np.flatnonzero(singular):
        step[i] = np.linalg.lstsq(K[i], rhs[i], rcond=None)[0]
    return np.where(free, centroid + step[:, :m], STRICT_FLOOR), singular


def solve_stack(H: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """KKT-optimal points of q convex quadratics over the m-simplex at once.

    Takes (q, m, m) H and (q, m) c; returns the (q, m) points, the (q, m)
    mask of coordinates held at the floor and the (q,) degeneracy flags.
    Each problem runs its own active-set sequence: it steps toward the
    minimiser on its flat, holding the first coordinate to meet the floor
    there, and at the minimiser releases the bound with the most negative
    multiplier, or is done. Each iteration serves all still running at once.
    """
    q, m = c.shape
    x = np.full((q, m), 1.0 / m)
    floored = np.zeros((q, m), dtype=bool)
    degenerate = np.zeros(q, dtype=bool)
    running = np.arange(q)
    for _ in range(4 * m + 16):
        Hr, cr, at, xr = H[running], c[running], floored[running], x[running]
        target, degenerate[running] = _flat_minimisers(Hr, cr, at)
        rows = np.arange(running.size)
        # step toward the target; the first coordinate to meet the floor stops there
        blocked = ~at & (target < STRICT_FLOOR - _VIOLATION_TOL)
        hit = blocked.any(axis=1)
        ratio = np.full(xr.shape, np.inf)
        np.divide(xr - STRICT_FLOOR, xr - target, out=ratio, where=blocked)
        stop = np.argmin(ratio, axis=1)
        alpha = np.clip(ratio[rows, stop], 0.0, 1.0)[:, None]
        xr = np.where(hit[:, None], xr + alpha * (target - xr), target)
        xr[rows[hit], stop[hit]] = STRICT_FLOOR
        at[rows[hit], stop[hit]] = True
        # at the target, release the bound with the most negative multiplier
        grad = 2.0 * ((Hr @ xr[..., None])[..., 0] - cr)
        mu = -np.where(at, 0.0, grad).sum(axis=1) / (~at).sum(axis=1)
        nu = np.where(at, grad + mu[:, None], np.inf)
        j = np.argmin(nu, axis=1)
        release = ~hit & (nu[rows, j] < -_RELEASE_TOL)
        at[rows[release], j[release]] = False

        x[running], floored[running] = xr, at
        running = running[hit | release]
        if not running.size:
            return np.maximum(x, STRICT_FLOOR), floored, degenerate
    raise NumericalError("active-set method did not settle")


def solve(problem: SimplexWLSProblem) -> SimplexSolution:
    """KKT-optimal point of the convex quadratic over the simplex: ``solve_stack`` of one."""
    x, floored, degenerate = solve_stack(problem.H[None], problem.c[None])
    return SimplexSolution(
        vector=x[0],
        objective=problem.objective(x[0]),
        active_bounds=tuple(np.flatnonzero(floored[0]).tolist()),
        status="degenerate" if degenerate[0] else "optimal",
    )


def stationarity_residual(problem: SimplexWLSProblem, x: np.ndarray) -> float:
    """Projected-gradient optimality residual at a feasible point.

    Zero at a KKT point: free coordinates share one multiplier, bound
    coordinates only need a nonnegative one.
    """
    grad = 2.0 * (problem.H @ x - problem.c)
    at_bound = x <= STRICT_FLOOR + 1e-9
    free = ~at_bound
    if not free.any():
        return 0.0
    mu = -float(np.mean(grad[free]))
    res = float(np.max(np.abs(grad[free] + mu)))
    if at_bound.any():
        nu = grad[at_bound] + mu
        res = max(res, float(-np.minimum(nu, 0.0).min(initial=0.0)))
    return res


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
