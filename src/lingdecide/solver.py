"""Convex quadratics over the probability simplex.

The collective-priority model reduces to the quadratic form

    minimise   x.Hx - 2 c.x + const
    subject to sum(x) = 1,  x_i >= 1e-9

with H symmetric positive semidefinite; the floor is the constant
``STRICT_FLOOR``, so every coordinate stays positive. The solver runs a
primal active-set method on the bound constraints: each subproblem is an
equality-constrained solve performed in the nullspace of the sum
constraint, so rank-deficient objectives resolve to the minimum-norm
optimum (flagged as degenerate).

``brute_force_oracle`` is the independent check: the exact minimum of the
objective over the discretised simplex {v / N}. It enumerates every grid
point, fiber by fiber; along the last free coordinate the objective is an
exact one-dimensional quadratic, so each fiber contributes its clamped
vertex and endpoints. The result equals naive exhaustive enumeration
(tests cross-check that) at a fraction of the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, OracleScopeError, ShapeError

STRICT_FLOOR = 1e-9

_VIOLATION_TOL = 1e-12
_RELEASE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SimplexSolution:
    vector: np.ndarray
    objective: float
    active_bounds: tuple[int, ...]
    status: str


def _sum_zero_basis(f: int) -> np.ndarray:
    """Orthonormal basis of {z : sum(z) = 0} as the columns of an (f, f-1) array.

    They are the last f-1 columns of the Householder reflector that maps
    ones / sqrt(f) to e_1, so they are orthogonal to the ones vector.
    """
    r = math.sqrt(f)
    return np.vstack([np.full((1, f - 1), 1.0 / r), np.eye(f - 1) - 1.0 / (f - r)])


def _equality_solve(
    H: np.ndarray, c: np.ndarray, free: list[int], active: list[int]
) -> tuple[np.ndarray, bool]:
    """Minimise over the free coordinates with the active ones at the floor.

    Returns the free-coordinate vector and a degeneracy flag. Ties resolve
    to the minimum-norm point: the base point is the centroid of the
    constraint flat and lstsq returns the minimum-norm nullspace step.
    """
    f = len(free)
    s = 1.0 - STRICT_FLOOR * len(active)
    if s <= 0.0:
        raise NumericalError("positivity floor is infeasible for this dimension")
    if f == 1:
        return np.array([s]), False
    Hff = H[np.ix_(free, free)]
    shift = np.zeros(f)
    if active:
        Hfa = H[np.ix_(free, active)]
        shift = Hfa @ np.full(len(active), STRICT_FLOOR)
    x0 = np.full(f, s / f)
    N = _sum_zero_basis(f)
    G = N.T @ Hff @ N
    g = N.T @ (Hff @ x0 + shift - c[free])
    z, _, rank, _ = np.linalg.lstsq(G, -g, rcond=None)
    return x0 + N @ z, rank < G.shape[0]


def solve(problem: SimplexWLSProblem) -> SimplexSolution:
    """KKT-optimal point of the convex quadratic over the simplex."""
    m = problem.m
    H, c = problem.H, problem.c

    active: list[int] = []
    degenerate = False
    x = np.full(m, 1.0 / m)
    for _ in range(4 * m + 16):
        free = [i for i in range(m) if i not in active]
        if not free:
            raise NumericalError("active-set iteration fixed every coordinate")
        xf, degenerate = _equality_solve(H, c, free, active)
        x = np.full(m, STRICT_FLOOR)
        x[free] = xf

        below = [i for i in free if x[i] < STRICT_FLOOR - _VIOLATION_TOL]
        if below:
            worst = min(below, key=lambda i: x[i])
            active.append(worst)
            continue

        grad = 2.0 * (H @ x - c)
        mu = -float(np.mean(grad[free]))
        if active:
            nu = grad[active] + mu
            j = int(np.argmin(nu))
            if nu[j] < -_RELEASE_TOL:
                active.pop(j)
                continue
        break
    else:
        raise NumericalError("active-set method did not settle")

    x = np.maximum(x, STRICT_FLOOR)
    return SimplexSolution(
        vector=x,
        objective=problem.objective(x),
        active_bounds=tuple(sorted(active)),
        status="degenerate" if degenerate else "optimal",
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
