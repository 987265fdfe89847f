import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lingdecide.errors import OracleScopeError, ShapeError
from lingdecide.errors import NumericalError
from lingdecide.prefs import consensus_forms
from lingdecide.solver import (
    STRICT_FLOOR,
    SimplexWLSProblem,
    brute_force_oracle,
    solve,
    solve_stack,
    stationarity_residual,
)
from helpers import (
    naive_grid_min,
    problem_from_rows,
    problem_from_terms,
    projected_gradient,
    random_problem,
    random_terms,
    reference_solve,
    sum_zero_basis,
)


class TestBasics:
    def test_m1_is_the_whole_simplex(self):
        sol = solve(problem_from_terms(1, []))
        assert sol.vector.tolist() == [1.0]
        assert sol.status == "optimal"

    def test_row_length_validated(self):
        # H is (m, m) with m = len(c) >= 1
        with pytest.raises(ShapeError):
            SimplexWLSProblem(H=np.eye(3)[:, :2], c=np.zeros(3))
        with pytest.raises(ShapeError):
            SimplexWLSProblem(H=np.eye(2), c=np.zeros(3))
        with pytest.raises(ShapeError):
            SimplexWLSProblem(H=np.zeros((0, 0)), c=np.zeros(0))
        assert SimplexWLSProblem(H=np.eye(3), c=np.zeros(3)).m == 3

    def test_no_terms_returns_uniform(self):
        sol = solve(problem_from_terms(4, []))
        assert sol.vector == pytest.approx(np.full(4, 0.25))
        # without data every direction is flat
        assert sol.status == "degenerate"

    def test_objective_matches_direct_computation(self):
        problem = problem_from_terms(
            2, [([0.5, -0.5], 0.1, 1.0), ([1.0, 0.0], 0.7, 2.0)]
        )
        x = np.array([0.6, 0.4])
        want = 1.0 * (0.5 * 0.6 - 0.5 * 0.4 - 0.1) ** 2 + 2.0 * (0.6 - 0.7) ** 2
        assert problem.objective(x) == pytest.approx(want, abs=1e-15)


class TestClosedForms:
    def test_pairwise_score_formula(self):
        # one pairwise term (w1 - w2)/2 = E - 1/2 with E = 0.6 gives (0.6, 0.4)
        problem = problem_from_terms(2, [([0.5, -0.5], 0.1, 1.0)])
        sol = solve(problem)
        assert sol.vector == pytest.approx([0.6, 0.4], abs=1e-12)
        assert sol.objective == pytest.approx(0.0, abs=1e-15)

    def test_equal_scores_split_evenly(self):
        # basis rows with equal targets: min (x1-e)^2 + (x2-e)^2, sum = 1
        problem = problem_from_terms(
            2, [([1.0, 0.0], 0.8, 1.0), ([0.0, 1.0], 0.8, 1.0)]
        )
        assert solve(problem).vector == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_feasible_scores_kept_verbatim(self):
        targets = [0.2105, 0.4854, 0.2969, 0.0072]
        pairs = []
        for j, t in enumerate(targets):
            row = [0.0] * 4
            row[j] = 1.0
            pairs.append((row, t, 0.7))
        sol = solve(problem_from_terms(4, pairs))
        assert sol.vector == pytest.approx(targets, abs=1e-12)

    def test_certainty_weighted_two_columns(self):
        # closed form: P1 = sum(p1k E1k + p2k (1 - E2k)) / sum(p1k + p2k)
        pairs = [
            ([1.0, 0.0], 0.7, 1.0),
            ([0.0, 1.0], 0.4, 0.5),
            ([1.0, 0.0], 0.6, 0.8),
            ([0.0, 1.0], 0.2, 1.0),
        ]
        want = (1.0 * 0.7 + 0.5 * 0.6 + 0.8 * 0.6 + 1.0 * 0.8) / 3.3
        sol = solve(problem_from_terms(2, pairs))
        assert sol.vector[0] == pytest.approx(want, abs=1e-12)
        assert sol.vector[1] == pytest.approx(1.0 - want, abs=1e-12)


class TestFloor:
    def test_strict_floor_respected(self):
        # all mass pushed to the first coordinate
        problem = problem_from_terms(
            3,
            [
                ([1.0, 0.0, 0.0], 1.0, 1.0),
                ([0.0, 1.0, 0.0], -1.0, 1.0),
                ([0.0, 0.0, 1.0], -1.0, 1.0),
            ],
        )
        sol = solve(problem)
        assert np.all(sol.vector >= STRICT_FLOOR - 1e-15)
        assert sol.vector[1] == pytest.approx(STRICT_FLOOR, abs=1e-12)
        assert sol.vector[2] == pytest.approx(STRICT_FLOOR, abs=1e-12)
        assert set(sol.active_bounds) == {1, 2}
        assert sol.vector.sum() == pytest.approx(1.0, abs=1e-9)

    def test_stationarity_residual_small_at_optimum(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            problem = random_problem(rng, 4)
            sol = solve(problem)
            assert stationarity_residual(problem, sol.vector) < 1e-7

    def test_stationarity_residual_positive_off_optimum(self):
        problem = problem_from_terms(2, [([0.5, -0.5], 0.3, 1.0)])
        assert stationarity_residual(problem, np.array([0.5, 0.5])) > 1e-3


class TestOracle:
    def test_scope_errors(self):
        with pytest.raises(OracleScopeError):
            brute_force_oracle(problem_from_terms(5, []), 0.01)
        with pytest.raises(OracleScopeError):
            brute_force_oracle(problem_from_terms(3, []), 1e-4)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_naive_enumeration(self, m):
        rng = np.random.default_rng(17 + m)
        for _ in range(5):
            terms = random_terms(rng, m, n_terms=6)
            fast = brute_force_oracle(problem_from_terms(m, terms), step=0.05)
            naive_f, naive_x = naive_grid_min(m, terms, step=0.05)
            assert fast.objective == pytest.approx(naive_f, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_solver_never_worse_than_grid(self, m):
        rng = np.random.default_rng(29 + m)
        for _ in range(10):
            problem = random_problem(rng, m)
            sol = solve(problem)
            grid = brute_force_oracle(problem, step=1e-3 if m < 4 else 5e-3)
            assert sol.objective <= grid.objective + 1e-6

    def test_oracle_reports_status(self):
        problem = problem_from_terms(2, [([0.5, -0.5], 0.1, 1.0)])
        assert brute_force_oracle(problem, 0.05).status == "oracle"


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40)
def test_solution_always_on_simplex(m, seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, m, n_terms=int(rng.integers(1, 12)))
    sol = solve(problem)
    assert sol.vector.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(sol.vector >= STRICT_FLOOR - 1e-12)
    assert np.all(np.isfinite(sol.vector))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30)
def test_solution_beats_random_feasible_points(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    problem = random_problem(rng, m)
    sol = solve(problem)
    for _ in range(20):
        x = rng.dirichlet(np.ones(m))
        x = np.maximum(x, STRICT_FLOOR)
        x = x / x.sum()
        assert sol.objective <= problem.objective(x) + 1e-9


def test_sum_zero_basis_is_orthonormal():
    for f in range(2, 65):
        N = sum_zero_basis(f)
        assert N.shape == (f, f - 1)
        assert np.abs(N.T @ N - np.eye(f - 1)).max() <= 1e-13, f
        assert np.abs(np.ones(f) @ N).max() <= 1e-13, f


def model_shaped_problem(rng, m):
    """Identity rows (transition model), pairwise rows (priority model) or dense rows.

    Some weights are zero and some terms repeat, as in real inputs where a
    certainty is 0 or several experts give the same judgement.
    """
    shape = rng.integers(3)
    if shape == 0:
        rows = np.tile(np.eye(m), (int(rng.integers(1, 4)), 1))
        targets = rng.uniform(0.0, 1.0, len(rows))
    elif shape == 1:
        i, j = np.triu_indices(m, 1)
        rows = np.zeros((len(i), m))
        rows[np.arange(len(i)), i] = 0.5
        rows[np.arange(len(i)), j] = -0.5
        targets = rng.uniform(-0.5, 0.5, len(rows))
    else:
        rows = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 2 * m)), m))
        targets = rng.uniform(-0.5, 1.5, len(rows))
    weights = rng.uniform(0.05, 1.0, len(rows))
    weights[rng.random(len(rows)) < 0.2] = 0.0
    repeat = rng.integers(len(rows), size=int(rng.integers(0, len(rows) + 1)))
    rows = np.vstack([rows, rows[repeat]])
    targets = np.concatenate([targets, targets[repeat]])
    weights = np.concatenate([weights, weights[repeat]])
    return problem_from_rows(rows, targets, weights)


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_solution_optimal_at_model_sizes(m, seed):
    rng = np.random.default_rng(seed)
    problem = model_shaped_problem(rng, m)
    sol = solve(problem)
    assert sol.vector.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(sol.vector >= STRICT_FLOOR - 1e-12)
    assert stationarity_residual(problem, sol.vector) <= 1e-9
    for _ in range(50):
        x = np.maximum(rng.dirichlet(np.ones(m)), STRICT_FLOOR)
        x = x / x.sum()
        assert sol.objective <= problem.objective(x) + 1e-9


def cycling_problem():
    """The first draw of the seeded sweep on which the nullspace reference cycles.

    A rank-3 general PSD problem at m = 17: jumping to each flat's
    minimiser and fixing its lowest coordinate repeats itself every 8
    iterations.
    """
    rng = np.random.default_rng(7)
    for m in range(1, 25):
        for _ in range(150):
            problem = random_problem(rng, m, n_terms=int(rng.integers(0, 3 * m + 2)))
            if m == 17:
                return problem


def test_the_cycling_case_settles():
    problem = cycling_problem()
    with pytest.raises(NumericalError, match="did not settle"):
        reference_solve(problem)
    sol = solve(problem)
    assert sol.vector.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(sol.vector >= STRICT_FLOOR)
    assert stationarity_residual(problem, sol.vector) <= 1e-9
    assert sol.objective <= problem.objective(projected_gradient(problem)) + 1e-9


@st.composite
def form_stacks(draw, max_m=40):
    """(H, c, const, S) of q in 1..8 priority models over one m in 2..max_m.

    Each certainty is 0, 1 or uniform, so some pairs go unweighed and
    some comparison graphs fall apart; S holds each model's edge weights.
    """
    q = draw(st.integers(1, 8))
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    priorities = rng.dirichlet(np.ones(m), (q, n))
    spread = rng.uniform(0.0, 0.5, (q, n, 1, 1))
    scores = np.clip(
        0.5 + (priorities[..., :, None] - priorities[..., None, :]) / 2
        + spread * rng.uniform(-1.0, 1.0, (q, n, m, m)),
        0.0, 1.0,
    )
    kind = rng.integers(3, size=(q, n, m, m))
    certainties = np.select([kind == 0, kind == 1], [0.0, 1.0], rng.uniform(0.0, 1.0, kind.shape))
    weights = rng.dirichlet(np.ones(n), q)
    H, c, const = consensus_forms(scores, certainties, weights)
    S = np.einsum("qk,qkij->qij", weights, np.triu(certainties, 1))
    return H, c, const, S + S.swapaxes(1, 2)


def connected(S):
    """Whether the graph with edge weights S links every vertex to vertex 0."""
    reach = np.zeros(len(S), dtype=bool)
    reach[0] = True
    for _ in range(len(S)):
        reach = reach | (S[reach] > 0.0).any(axis=0)
    return bool(reach.all())


@settings(max_examples=60, deadline=None)
@given(form_stacks())
def test_stacked_solve_matches_the_nullspace_reference(stack):
    H, c, const, S = stack
    x, floored, degenerate = solve_stack(H, c)
    for a in range(len(c)):
        problem = SimplexWLSProblem(H[a], c[a], const[a])
        alone = solve(problem)
        assert alone.vector.tobytes() == x[a].tobytes()
        assert alone.active_bounds == tuple(np.flatnonzero(floored[a]))
        assert (alone.status == "degenerate") == degenerate[a]
        want = reference_solve(problem)
        event("some bound active" if floored[a].any() else "interior")
        if connected(S[a]):
            assert np.abs(alone.vector - want.vector).max() <= 1e-12
            assert alone.active_bounds == want.active_bounds
            assert alone.status == want.status == "optimal"
        else:
            event("disconnected")
            assert alone.objective == pytest.approx(want.objective, rel=0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(form_stacks(max_m=60))
def test_solver_objective_matches_projected_gradient(stack):
    H, c, const, _ = stack
    x = solve_stack(H, c)[0]
    for a in range(len(c)):
        problem = SimplexWLSProblem(H[a], c[a], const[a])
        reference = projected_gradient(problem)
        assert reference.sum() == pytest.approx(1.0, abs=1e-12)
        assert reference.min() >= STRICT_FLOOR
        assert problem.objective(x[a]) == pytest.approx(problem.objective(reference), rel=0, abs=1e-9)
