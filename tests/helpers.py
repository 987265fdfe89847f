"""Builders shared across test modules, and loop references.

The ``reference_*`` functions are the scalar loop forms of the expert
weighting chain, the collective-priority model builder and the scenario
decoder's term matrices, which are read one cell at a time into
``PeakIntervalTerm`` objects. The package computes the same quantities on
arrays; tests compare the two. ``reference_transition`` is the transition
estimate as a general active-set solve per row, against which the
closed-form projection is checked. ``problem_from_rows`` turns design
rows into the quadratic form the solver takes; it is the reference
builder for the solver tests and for ``reference_transition``.
``reference_solve`` is the solver as it was before it ran on stacks:
one problem at a time, each subproblem solved with ``lstsq`` in an
orthonormal basis of the sum constraint's nullspace
(``sum_zero_basis``). ``projected_gradient`` is an independent
reference that shares no step with either.
``reference_consistent_relation`` builds a consistent relation one
``PeakIntervalTerm`` cell at a time, as ``prefs.consistent_relation``
did before it computed the fields array at once.

The ``per_attribute_*`` functions are the array code the package ran
before it stacked every attribute's relations: the weighting chain and
the model builder on one attribute at a time, and step 3 of the
pipeline as a loop over attributes. ``per_matrix_decode_preferences``
is the scenario decoder as it was before it stacked the relations: one
term matrix at a time, each checked on its own. The stacked code must
give their results bit for bit, and their messages in their order.
"""

import itertools
import math

import numpy as np

from lingdecide.diagnostics import Diagnostics, record
from lingdecide.errors import ConfigError, NumericalError, RangeError, ShapeError
from lingdecide.cells import _read_cells
from lingdecide.paper import (
    PeakIntervalTerm,
    SimplexSolution,
    SimplexWLSProblem,
    from_unit,
    score,
    solve,
    to_unit,
)
from lingdecide.prefs import (
    ExpertWeightReport,
    PreferenceRelation,
    Violation,
    stacked,
    trust_weights,
)
from lingdecide.reader import _bulk_fields
from lingdecide.scale import LinguisticScale, TermCoord, parse_term
from lingdecide.solver import STRICT_FLOOR
from lingdecide.terms import field_faults, unit_arrays

SCALE = LinguisticScale(4, 4)


def cell_at(matrix, i, j):
    """Cell (i, j) of a term matrix, built from its fields."""
    tl, kl, th, kh, p = matrix.fields[i, j].tolist()
    return PeakIntervalTerm(matrix.scale, TermCoord(tl, kl), TermCoord(th, kh), p)


def violations(matrix):
    """Breaks of the matrix type's own rules: its ``stack_violations`` on a stack of one."""
    return matrix.stack_violations(matrix.lower[None], matrix.upper[None], matrix.p[None]).get(0, [])


def pt(t, k, p, scale=SCALE):
    return PeakIntervalTerm(scale, TermCoord(t, k), TermCoord(t, k), p)


def iv(lo, hi, p, scale=SCALE):
    return PeakIntervalTerm(scale, TermCoord(*lo), TermCoord(*hi), p)


def mirrored(term):
    return PeakIntervalTerm(
        term.scale,
        TermCoord(-term.upper.t, -term.upper.k),
        TermCoord(-term.lower.t, -term.lower.k),
        term.p,
    )


def relation(upper, m, scale=SCALE):
    """Reciprocal relation from an {(i, j): term} upper triangle, i < j."""
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if i == j:
                row.append(pt(0, 0, 1.0, scale))
            elif i < j:
                row.append(upper[(i, j)])
            else:
                row.append(mirrored(upper[(j, i)]))
        rows.append(tuple(row))
    return PreferenceRelation(scale, tuple(rows))


def problem_from_rows(rows, targets, weights):
    """The quadratic form (A^T W A, A^T W b, b^T W b) of design rows A.

    The objective sum_t w_t (a_t . x - b_t)^2 expands to x.Hx - 2 c.x + const.
    The constant is summed exactly (``math.fsum``): it adds thousands of
    terms at the model's sizes, where a running sum drifts by about 1e-14.
    """
    A = np.asarray(rows, dtype=float)
    b = np.asarray(targets, dtype=float)
    w = np.asarray(weights, dtype=float)
    return SimplexWLSProblem(H=(A * w[:, None]).T @ A, c=A.T @ (w * b), const=math.fsum(w * b * b))


def sum_zero_basis(f):
    """Orthonormal basis of {z : sum(z) = 0} as the columns of an (f, f-1) array.

    They are the last f-1 columns of the Householder reflector that maps
    ones / sqrt(f) to e_1, so they are orthogonal to the ones vector.
    """
    r = math.sqrt(f)
    return np.vstack([np.full((1, f - 1), 1.0 / r), np.eye(f - 1) - 1.0 / (f - r)])


def reference_equality_solve(H, c, free, active):
    """Minimise over the free coordinates with the active ones at the floor.

    Returns the free-coordinate vector and a degeneracy flag. Ties resolve
    to the minimum-norm point: the base point is the centroid of the
    constraint flat and lstsq returns the minimum-norm nullspace step.
    """
    f = len(free)
    s = 1.0 - STRICT_FLOOR * len(active)
    if f == 1:
        return np.array([s]), False
    Hff = H[np.ix_(free, free)]
    shift = np.zeros(f)
    if active:
        shift = H[np.ix_(free, active)] @ np.full(len(active), STRICT_FLOOR)
    x0 = np.full(f, s / f)
    N = sum_zero_basis(f)
    G = N.T @ Hff @ N
    g = N.T @ (Hff @ x0 + shift - c[free])
    z, _, rank, _ = np.linalg.lstsq(G, -g, rcond=None)
    return x0 + N @ z, rank < G.shape[0]


def reference_solve(problem):
    """The solver one problem at a time, in the nullspace of the sum constraint.

    Each iteration solves the subproblem on the current flat in an
    orthonormal nullspace basis and jumps to its minimiser; a coordinate
    that lands below the floor is fixed there, the lowest first. It cycles
    on some general PSD problems (``test_solver.test_the_cycling_case_settles``)
    but never on the priority model's Laplacian forms.
    """
    m = problem.m
    H, c = problem.H, problem.c
    active = []
    degenerate = False
    for _ in range(4 * m + 16):
        free = [i for i in range(m) if i not in active]
        xf, degenerate = reference_equality_solve(H, c, free, active)
        x = np.full(m, STRICT_FLOOR)
        x[free] = xf
        below = [i for i in free if x[i] < STRICT_FLOOR - 1e-12]
        if below:
            active.append(min(below, key=lambda i: x[i]))
            continue
        grad = 2.0 * (H @ x - c)
        mu = -float(np.mean(grad[free]))
        if active:
            nu = grad[active] + mu
            j = int(np.argmin(nu))
            if nu[j] < -1e-10:
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


def simplex_projection(v, floor=STRICT_FLOOR):
    """Euclidean projection of v onto {x : sum(x) = 1, x >= floor}, by sorting.

    The simplex shifted by the floor (Duchi et al. 2008; Condat 2016).
    """
    m = v.size
    u = np.sort(v - floor)[::-1]
    total = 1.0 - m * floor
    cumulative = np.cumsum(u) - total
    k = np.flatnonzero(u - cumulative / np.arange(1, m + 1) > 0.0)[-1]
    return np.maximum(v - floor - cumulative[k] / (k + 1), 0.0) + floor


def projected_gradient(problem, iterations=50000):
    """Minimiser over the floored simplex by accelerated projected gradient.

    An independent reference for the solver: no active set and no linear
    solve. Steps of 1/L (L = 2 max eig H) from the centroid, with Nesterov
    momentum that restarts whenever it points uphill (O'Donoghue and
    Candes 2015); it stops once an iterate no longer moves.
    """
    H, c = problem.H, problem.c
    step = 0.5 / max(float(np.linalg.eigvalsh(H)[-1]), 1e-300)
    x = y = np.full(problem.m, 1.0 / problem.m)
    t = 1.0
    for _ in range(iterations):
        x_next = simplex_projection(y - step * 2.0 * (H @ y - c))
        if np.abs(x_next - x).max() <= 1e-15:
            return x_next
        if np.dot(y - x_next, x_next - x) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
    return x


def terms_arrays(m, terms):
    """Design rows, targets and weights of (row, target, weight) triples."""
    rows = np.array([row for row, _, _ in terms], dtype=float).reshape(len(terms), m)
    targets = np.array([target for _, target, _ in terms], dtype=float)
    weights = np.array([weight for _, _, weight in terms], dtype=float)
    return rows, targets, weights


def problem_from_terms(m, terms):
    """Problem from (row, target, weight) triples."""
    return problem_from_rows(*terms_arrays(m, terms))


def random_terms(rng, m, n_terms=10):
    terms = []
    for _ in range(n_terms):
        row = tuple(float(x) for x in rng.uniform(-1.0, 1.0, m))
        target = float(rng.uniform(-0.5, 1.5))
        weight = float(rng.uniform(0.05, 1.0))
        terms.append((row, target, weight))
    return terms


def random_problem(rng, m, n_terms=10):
    return problem_from_terms(m, random_terms(rng, m, n_terms))


def naive_grid_min(m, terms, step):
    """Direct enumeration of the simplex grid, scored on the design rows.

    Only for coarse steps. It shares no arithmetic with the quadratic form
    the oracle reads.
    """
    rows, targets, weights = terms_arrays(m, terms)
    N = round(1.0 / step)
    best = (np.inf, None)
    for combo in itertools.product(range(N + 1), repeat=m - 1):
        rest = N - sum(combo)
        if rest < 0:
            continue
        x = np.array(list(combo) + [rest], dtype=float) / N
        res = rows @ x - targets
        f = float(np.dot(weights, res * res))
        if f < best[0]:
            best = (f, x)
    return best


def uniform_scenario_dict(m=3, q=2, n=2, periods=2):
    """Fully symmetric scenario: every judgement is the indifferent point."""
    point0 = {"point": [0, 0], "p": 1.0}
    rel = [[point0 for _ in range(m)] for _ in range(m)]
    assessment = [[point0 for _ in range(q)] for _ in range(q)]
    attributes = [f"Q{i + 1}" for i in range(q)]
    return {
        "format": 1,
        "scale": {"tau": 4, "zeta": 4},
        "attributes": attributes,
        "alternatives": [f"A{i + 1}" for i in range(m)],
        "experts": [{"name": f"e{i + 1}", "trust": 0.5} for i in range(n)],
        "markov": {
            "periods": periods,
            "iterations": 1,
            "origin": attributes[0],
            "assessments": {f"e{i + 1}": assessment for i in range(n)},
        },
        "preferences": {
            a: {f"e{i + 1}": rel for i in range(n)} for a in attributes
        },
    }


def reference_score_matrix(relation):
    m = relation.m
    E = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            E[i, j] = score(cell_at(relation, i, j))
    return E


def reference_certainty_matrix(relation):
    m = relation.m
    P = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            P[i, j] = cell_at(relation, i, j).p
    return P


def reference_distance(p, q):
    """Root-mean difference of p (E - 1/2) over i < j."""
    if p.m != q.m:
        raise ShapeError(f"relation sizes differ: {p.m} vs {q.m}")
    m = p.m
    Ep, Eq = reference_score_matrix(p), reference_score_matrix(q)
    Pp, Pq = reference_certainty_matrix(p), reference_certainty_matrix(q)
    total = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            total += (Pp[i, j] * (Ep[i, j] - 0.5) - Pq[i, j] * (Eq[i, j] - 0.5)) ** 2
    return math.sqrt(2.0 * total / (m * (m - 1)))


def reference_outer_weights(relations):
    """Distance-mass weights across experts; uniform when all coincide."""
    n = len(relations)
    if n < 2:
        raise ShapeError("outer weights need at least two experts")
    d = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            d[a, b] = d[b, a] = reference_distance(relations[a], relations[b])
    sums = d.sum(axis=0)
    total = sums.sum()
    if total <= 1e-12:
        return np.full(n, 1.0 / n)
    return sums / total


def indirect_score(E, i, j, v):
    """Score of (i, j) routed through a third alternative v."""
    return E[i, v] - E[j, v] + 0.5


def reference_inner_deviation(E, paper_literal=False, diag=None):
    """Total direct-vs-indirect score deviation, one triple at a time."""
    m = E.shape[0]
    if m < 3:
        record(diag, "no_indirect_path", f"m={m} has no third alternative to route through")
        return 0.0
    total = 0.0
    count = 0
    for v in range(m):
        for i in range(m):
            if i == v:
                continue
            for j in range(i + 1, m):
                if j == v:
                    continue
                total += abs(E[i, j] - indirect_score(E, i, j, v))
                count += 1
    if paper_literal:
        record(
            diag, "paper_literal",
            f"printed constant m(m-1)*0.5 = {m * (m - 1) * 0.5:g} used in place of "
            f"the triple count {count * 0.5:g}",
        )
        return total + 0.5 * count - 0.5 * m * (m - 1)
    return total


def reference_model_terms(scores, certainties, weights):
    """(row, target, weight) triples of the collective-priority model."""
    m = scores[0].shape[0]
    w = np.asarray(weights, dtype=float)
    terms = []
    for k, (E, P) in enumerate(zip(scores, certainties)):
        for i in range(m):
            for j in range(i + 1, m):
                row = [0.0] * m
                row[i] = 0.5
                row[j] = -0.5
                terms.append((tuple(row), E[i, j] - 0.5, float(w[k] * P[i, j])))
    return tuple(terms)


def reference_decode_coord(scale, raw, where, faults):
    """One ``[t, k]`` or literal coordinate; faults go to ``faults``."""
    if isinstance(raw, str):
        maker = lambda: parse_term(raw)
    elif (
        isinstance(raw, (list, tuple))
        and len(raw) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
    ):
        maker = lambda: TermCoord(float(raw[0]), float(raw[1]))
    else:
        faults.append(f"{where}: expected [t, k] or a term literal, got {raw!r}")
        return None
    try:
        coord = maker()
        to_unit(scale, coord)
        return coord
    except (ValueError, OverflowError) as exc:
        faults.append(f"{where}: {exc}")
        return None


def reference_decode_entry(scale, raw, where, faults):
    """One JSON cell as a ``PeakIntervalTerm``, or None with its faults."""
    if not isinstance(raw, dict):
        faults.append(f"{where}: expected an object, got {type(raw).__name__}")
        return None
    if "p" not in raw:
        faults.append(f"{where}: missing certainty field 'p'")
        return None
    p = raw["p"]
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        faults.append(f"{where}: 'p' must be a number, got {p!r}")
        return None
    if "point" in raw:
        c = reference_decode_coord(scale, raw["point"], where + ".point", faults)
        if c is None:
            return None
        lower = upper = c
    elif "interval" in raw:
        iv = raw["interval"]
        if not isinstance(iv, (list, tuple)) or len(iv) != 2:
            faults.append(f"{where}.interval: expected [LO, HI]")
            return None
        lower = reference_decode_coord(scale, iv[0], where + ".interval[0]", faults)
        upper = reference_decode_coord(scale, iv[1], where + ".interval[1]", faults)
        if lower is None or upper is None:
            return None
    else:
        faults.append(f"{where}: entry needs 'interval' or 'point'")
        return None
    try:
        return PeakIntervalTerm(scale, lower, upper, float(p))
    except (ValueError, OverflowError) as exc:
        faults.append(f"{where}: {exc}")
        return None


def reference_decode_matrix(kind, scale, raw, size, where):
    """(faults, matrix) for one JSON term matrix, built cell by cell.

    The matrix is None when any fault was found; the type's own rules
    (``violations``) are checked only on a matrix whose cells all decoded.
    """
    faults = []
    if not isinstance(raw, list) or len(raw) != size:
        return [f"{where}: expected {size} rows"], None
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != size:
            faults.append(f"{where}[{i}]: expected {size} entries")
            continue
        rows.append(
            tuple(
                reference_decode_entry(scale, cell, f"{where}[{i}][{j}]", faults)
                for j, cell in enumerate(row)
            )
        )
    if len(rows) < size or any(term is None for row in rows for term in row):
        return faults, None
    matrix = kind(scale, tuple(rows))
    faults += [f"{where}: {v}" for v in violations(matrix)]
    return faults, None if faults else matrix


def reference_transition(assessments, diag=None):
    """Transition matrix with one ``solver.solve`` per row.

    Row i is the weighted least-squares problem with one identity design
    row per expert and free column, target E_ij^k and weight p_ij^k; cells
    every expert rates the floor point at p = 1 are pinned to 0.
    """
    q = assessments[0].q
    n = len(assessments)
    P = np.stack([a.p for a in assessments])
    E = np.stack([a.scores for a in assessments])
    pinned_cells = (
        (np.stack([a.lower for a in assessments]) <= 1e-12)
        & (np.stack([a.upper for a in assessments]) <= 1e-12)
        & (np.abs(P - 1.0) <= 1e-12)
    ).all(axis=0)
    M = np.zeros((q, q))
    for i in range(q):
        pinned = np.flatnonzero(pinned_cells[i]).tolist()
        free = np.flatnonzero(~pinned_cells[i])
        if pinned:
            record(diag, "zero_pinned", f"row {i}: columns {pinned} fixed at exactly 0")
        problem = problem_from_rows(
            np.tile(np.eye(free.size), (n, 1)), E[:, i, free].ravel(), P[:, i, free].ravel()
        )
        sol = solve(problem)
        if sol.status == "degenerate":
            record(diag, "degenerate_row", f"row {i}: data left directions unconstrained")
        M[i, free] = sol.vector
    return M


def per_attribute_distances(scores, certainties):
    """(n, n) distances of one attribute's (n, m, m) stacked arrays."""
    m = scores.shape[1]
    i, j = np.triu_indices(m, 1)
    weighted = (certainties * (scores - 0.5))[:, i, j].T
    diff = weighted[:, :, None] - weighted[:, None, :]
    total = np.float_power(diff, 2).sum(axis=0)
    return np.sqrt(2.0 * total / (m * (m - 1)))


def per_attribute_outer_weights(scores, certainties):
    n = scores.shape[0]
    if n < 2:
        raise ShapeError("outer weights need at least two experts")
    sums = per_attribute_distances(scores, certainties).sum(axis=0)
    total = sums.sum()
    if total <= 1e-12:
        return np.full(n, 1.0 / n)
    return sums / total


def per_attribute_inner_deviation(scores, paper_literal=False, diag=None):
    E = np.asarray(scores, dtype=float)
    m = E.shape[0]
    if m < 3:
        record(diag, "no_indirect_path", f"m={m} has no third alternative to route through")
        return 0.0
    i, j = np.triu_indices(m, 1)
    deviation = np.abs(E[i, j] - (E.T[:, i] - E.T[:, j] + 0.5))
    v = np.arange(m)[:, None]
    triples = deviation[(v != i) & (v != j)]
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


def per_attribute_inner_weights(deviations, m, diag=None):
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
    floored = le < 1e-12
    if floored.any():
        record(
            diag, "entropy_floor",
            f"entropy floored at {1e-12:g} for experts {np.flatnonzero(floored).tolist()}",
        )
        le = np.maximum(le, 1e-12)
    inv = 1.0 / le
    return inv / inv.sum()


def per_attribute_blend_weights(outer, inner, trust, alpha, beta, gamma):
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


def per_attribute_expert_weights(
    relations, trust, alpha, beta, gamma, paper_literal=False, diag=None
):
    """The full weighting chain of one attribute's relations."""
    scores, certainties = stacked(relations)
    outer = per_attribute_outer_weights(scores, certainties)
    deviations = [per_attribute_inner_deviation(E, paper_literal, diag) for E in scores]
    m = scores.shape[1]
    if min(deviations) < 0.0:
        raise ConfigError(
            f"deviations must be nonnegative: the printed constant m(m-1)*0.5 = "
            f"{m * (m - 1) * 0.5:g} exceeds the {m * (m - 1) * (m - 2) // 2 * 0.5:g} "
            f"that the triples add"
        )
    inner = per_attribute_inner_weights(deviations, m, diag)
    tru = trust_weights(trust)
    blended = per_attribute_blend_weights(outer, inner, tru, alpha, beta, gamma)
    return ExpertWeightReport(outer, inner, tru, blended, alpha, beta, gamma)


def per_attribute_consensus_form(scores, certainties, weights):
    """The collective-priority form of one attribute's (n, m, m) stacked arrays."""
    n = scores.shape[0]
    w = np.asarray(weights, dtype=float)
    if w.size != n:
        raise ShapeError(f"{n} relations but {w.size} expert weights")
    if abs(w.sum() - 1.0) > 1e-9 or np.any(w < -1e-12):
        raise ConfigError("expert weights must form a probability vector")

    def pair_sum(a):
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


def per_attribute_step3(scenario, paper_literal=False):
    """Step 3 of the pipeline, one attribute at a time.

    Returns the expert weight reports, model weights, forms and
    priorities by attribute and the diagnostics, or raises what the loop
    meets first.
    """
    diag = Diagnostics()
    ov = scenario.overrides
    reports, model_weights, forms, priorities, degenerate = {}, {}, {}, {}, []
    for attr in scenario.attributes:
        relations = scenario.preferences.get(attr)
        if relations is not None:
            reports[attr] = per_attribute_expert_weights(
                list(relations), list(scenario.trust), scenario.alpha, scenario.beta,
                scenario.gamma, paper_literal=paper_literal, diag=diag,
            )
        if attr in ov.priority_vectors:
            record(diag, "override_applied", f"priority_vectors.{attr}")
            total = float(np.sum(ov.priority_vectors[attr]))
            if abs(total - 1.0) > 1e-6:
                record(
                    diag, "override_vector_sum",
                    f"priorities {attr} sums to {total:.6g}, not 1 (kept verbatim)",
                )
            priorities[attr] = np.array(ov.priority_vectors[attr], dtype=float)
            continue
        if relations is None:
            raise ConfigError(
                f"no preference relations for attribute {attr!r} and no priority override"
            )
        if attr in ov.expert_weight_vectors:
            record(diag, "override_applied", f"expert_weight_vectors.{attr}")
            w = np.array(ov.expert_weight_vectors[attr], dtype=float)
            total = float(w.sum())
            if total <= 0.0:
                raise ConfigError(f"expert weight override for {attr} has zero mass")
            if abs(total - 1.0) > 1e-9:
                record(
                    diag, "override_normalized",
                    f"expert_weight_vectors.{attr} summed to {total:.6g}; normalized for the model",
                )
                w = w / total
        else:
            w = reports[attr].blended
        model_weights[attr] = w
        forms[attr] = per_attribute_consensus_form(*stacked(list(relations)), w)
        solution = solve(forms[attr])
        priorities[attr] = solution.vector
        if solution.status == "degenerate":
            degenerate.append(attr)
    for attr in degenerate:
        certainties = stacked(list(scenario.preferences[attr]))[1]
        groups = searched_groups(np.einsum("k,kij->ij", model_weights[attr], certainties))
        record(
            diag, "degenerate_priorities",
            f"{attr}: comparisons at certainty above 0 leave the alternatives in unlinked groups "
            + " ".join("[" + ", ".join(scenario.alternatives[i] for i in g) + "]" for g in groups)
            + "; the priorities are the minimum-norm optimum, one of many",
        )
    return reports, model_weights, forms, priorities, diag


def searched_groups(S):
    """The components of the graph S_ij > 0, by depth-first search from each unseen vertex."""
    groups, seen = [], set()
    for start in range(len(S)):
        if start in seen:
            continue
        group, todo = [], [start]
        seen.add(start)
        while todo:
            i = todo.pop()
            group.append(i)
            for j in range(len(S)):
                if j not in seen and (S[i, j] > 0 or S[j, i] > 0):
                    seen.add(j)
                    todo.append(j)
        groups.append(sorted(group))
    return groups


def per_matrix_validate_relation(relation):
    """Every reciprocity violation of one relation, checked on its own."""
    out = []
    lo, hi, p = relation.lower, relation.upper, relation.p
    tol = 1e-9
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


def per_matrix_decode_relation(scale, raw, size, where, faults):
    """One JSON relation, decoded and checked on its own; None when faulty."""
    if not isinstance(raw, list) or len(raw) != size:
        faults.append(f"{where}: expected {size} rows")
        return None
    packed = _bulk_fields(raw, size)
    found = {}
    if packed is None:
        fields, found = _read_cells(raw, size)
    else:
        fields = np.frombuffer(packed).reshape(size, size, 5)
    try:
        matrix = PreferenceRelation.from_fields(scale, fields)
    except RangeError:
        matrix = None
        for i, j, slot, message in field_faults(scale, *unit_arrays(scale, fields)[:3]):
            point = "point" in raw[i][j]
            if slot == 1 and point:
                continue
            suffix = "" if slot == 2 else ".point" if point else f".interval[{slot}]"
            found.setdefault((i, j), {}).setdefault(slot, (suffix, message))
    for (i, j), slots in sorted(found.items()):
        here = f"{where}[{i}]" if j < 0 else f"{where}[{i}][{j}]"
        shown = [slots[s] for s in (-1, 0, 1) if s in slots] or [slots[2]]
        for suffix, message in shown:
            faults.append(f"{here}{suffix}: {message}")
    if found:
        return None
    broken = per_matrix_validate_relation(matrix)
    faults += [f"{where}: {v}" for v in broken]
    return None if broken else matrix


def per_matrix_decode_preferences(raw, scale, attributes, experts, m, covered=()):
    """(faults, relations by attribute) of a ``preferences`` block, one matrix at a time.

    ``covered`` names the attributes a priority override covers.
    """
    faults, out = [], {}
    unknown = [a for a in raw if a not in attributes]
    if unknown:
        faults.append(f"preferences: unknown attributes {unknown}")
    for attr in attributes:
        where = f"preferences.{attr}"
        if attr not in raw:
            if attr not in covered:
                faults.append(
                    f"{where}: required unless overrides.priority_vectors covers this attribute"
                )
            continue
        sub = raw[attr]
        if not isinstance(sub, dict):
            faults.append(f"{where}: expected an object, got {type(sub).__name__}")
            continue
        missing = [e for e in experts if e not in sub]
        extra = [e for e in sub if e not in experts]
        if missing:
            faults.append(f"{where}: missing experts {missing}")
        if extra:
            faults.append(f"{where}: unknown experts {extra}")
        if missing or extra:
            continue
        relations = [
            per_matrix_decode_relation(scale, sub[e], m, f"{where}.{e}", faults) for e in experts
        ]
        if all(r is not None for r in relations):
            out[attr] = tuple(relations)
    return faults, out


def reference_consistent_relation(scale, priorities, p=1.0, half_gradient=False):
    """``consistent_relation``, built from one checked cell at a time."""
    w = np.asarray(priorities, dtype=float)
    m = w.size
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
