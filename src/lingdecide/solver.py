"""Weighted least squares over the probability simplex.

The collective-priority model reduces to

    minimise   sum_t  w_t * (a_t . x - b_t)^2
    subject to sum(x) = 1,  x_i >= floor

with floor = 1e-9 (strict positivity) or 0. The solver runs a primal
active-set method on the bound constraints: each subproblem is an
equality-constrained normal-equation solve performed in the nullspace of
the sum constraint, so rank-deficient objectives resolve to the
minimum-norm optimum (flagged as degenerate).

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
from functools import cached_property

import numpy as np

from .errors import NumericalError, OracleScopeError, ShapeError

STRICT_FLOOR = 1e-9

_VIOLATION_TOL = 1e-12
_RELEASE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SimplexWLSProblem:
    """Weighted least-squares data over an m-simplex.

    Term t has design row ``rows[t]`` (length m), target ``targets[t]``
    and nonnegative weight ``weights[t]``; ``strict`` selects the 1e-9
    positivity floor. The arrays are used as given, not copied, so they
    must not change once the problem is built.
    """

    m: int
    rows: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    strict: bool = True

    def __post_init__(self):
        if self.m < 1:
            raise ShapeError(f"dimension must be >= 1, got {self.m}")
        rows = np.asarray(self.rows, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.m:
            raise ShapeError(f"design rows of shape {rows.shape}, expected (terms, {self.m})")
        if targets.shape != (rows.shape[0],) or weights.shape != targets.shape:
            raise ShapeError(
                f"{rows.shape[0]} design rows but {targets.size} targets and {weights.size} weights"
            )
        if np.any(weights < 0.0):
            raise ShapeError(f"negative term weight {weights.min()}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "weights", weights)

    @property
    def floor(self) -> float:
        return STRICT_FLOOR if self.strict else 0.0

    @cached_property
    def normal_equations(self) -> tuple[np.ndarray, np.ndarray]:
        """H = A^T W A and c = A^T W b: the objective is x.Hx - 2 c.x + const."""
        H = (self.rows * self.weights[:, None]).T @ self.rows
        c = self.rows.T @ (self.weights * self.targets)
        return H, c

    def objective(self, x: np.ndarray) -> float:
        res = self.rows @ np.asarray(x, dtype=float) - self.targets
        return float(np.dot(self.weights, res * res))


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
    H: np.ndarray, c: np.ndarray, free: list[int], active: list[int], floor: float
) -> tuple[np.ndarray, bool]:
    """Minimise over the free coordinates with the active ones at the floor.

    Returns the free-coordinate vector and a degeneracy flag. Ties resolve
    to the minimum-norm point: the base point is the centroid of the
    constraint flat and lstsq returns the minimum-norm nullspace step.
    """
    f = len(free)
    s = 1.0 - floor * len(active)
    if s <= 0.0:
        raise NumericalError("positivity floor is infeasible for this dimension")
    if f == 1:
        return np.array([s]), False
    Hff = H[np.ix_(free, free)]
    shift = np.zeros(f)
    if active:
        Hfa = H[np.ix_(free, active)]
        shift = Hfa @ np.full(len(active), floor)
    x0 = np.full(f, s / f)
    N = _sum_zero_basis(f)
    G = N.T @ Hff @ N
    g = N.T @ (Hff @ x0 + shift - c[free])
    z, _, rank, _ = np.linalg.lstsq(G, -g, rcond=None)
    return x0 + N @ z, rank < G.shape[0]


def solve(problem: SimplexWLSProblem) -> SimplexSolution:
    """KKT-optimal point of the convex quadratic over the simplex."""
    m = problem.m
    floor = problem.floor
    H, c = problem.normal_equations

    active: list[int] = []
    degenerate = False
    x = np.full(m, 1.0 / m)
    for _ in range(4 * m + 16):
        free = [i for i in range(m) if i not in active]
        if not free:
            raise NumericalError("active-set iteration fixed every coordinate")
        xf, degenerate = _equality_solve(H, c, free, active, floor)
        x = np.full(m, floor)
        x[free] = xf

        below = [i for i in free if x[i] < floor - _VIOLATION_TOL]
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

    x = np.maximum(x, floor)
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
    H, c = problem.normal_equations
    grad = 2.0 * (H @ x - c)
    at_bound = x <= problem.floor + 1e-9
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
    A: np.ndarray,
    b: np.ndarray,
    w: np.ndarray,
    prefix: np.ndarray,
    remainder: np.ndarray,
    N: int,
) -> tuple[float, int, int]:
    """Exact grid minimum over a batch of fibers.

    Each fiber fixes the first m-2 integer coordinates (``prefix`` rows)
    and spreads ``remainder`` over the last two as (u, R-u). Returns the
    best objective with the row index and u attaining it.
    """
    T = A.shape[0]
    m = A.shape[1]
    s = (A[:, m - 2] - A[:, m - 1]) / N
    Aq = float(np.dot(w, s * s))

    if prefix.shape[1]:
        r0 = (prefix / N) @ A[:, : m - 2].T
    else:
        r0 = np.zeros((prefix.shape[0], T))
    r0 += (remainder / N)[:, None] * A[:, m - 1][None, :]
    res0 = r0 - b[None, :]
    f0 = (res0 * res0) @ w
    B = res0 @ (2.0 * w * s)

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
    admitted even under strict positivity; they sit within the floor of a
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

    A, b, w = problem.rows, problem.targets, problem.weights
    if A.shape[0] == 0:
        A = np.zeros((1, m))
        b = np.zeros(1)
        w = np.zeros(1)

    best = (math.inf, None)

    def consider(prefix: np.ndarray, remainder: np.ndarray) -> None:
        nonlocal best
        f, row, u = _fiber_batch_min(A, b, w, prefix, remainder, N)
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
