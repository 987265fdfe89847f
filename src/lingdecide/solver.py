"""Convex quadratics over the probability simplex.

The collective-priority model reduces to the quadratic form

    minimise   x.Hx - 2 c.x + const
    subject to sum(x) = 1,  x_i >= 1e-9

with H symmetric positive semidefinite; the floor is the constant
``STRICT_FLOOR``, so every coordinate stays positive. ``solve_stack``
runs a primal active-set method on the bound constraints of a stack of
such problems at once. Each subproblem is the bordered KKT system of the
sum constraint, solved for the minimum-norm step, so rank-deficient
objectives (for the priority model, a disconnected comparison graph)
resolve to the minimum-norm optimum, flagged as degenerate.

The one-problem forms (``SimplexWLSProblem``, ``solve`` and the grid
oracle) live in ``lingdecide.paper``; ``stationarity_residual`` checks one.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

STRICT_FLOOR = 1e-9

_VIOLATION_TOL = 1e-12
_RELEASE_TOL = 1e-10


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
