import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingdecide.diagnostics import Diagnostics
from lingdecide.errors import ConfigError, ShapeError
from lingdecide.markov import (
    LinguisticMarkovAssessment,
    check_transition_matrix,
    estimate_transition,
    export_dot,
    period_weights,
    period_weights_reshaped,
    require_stochastic,
)
from lingdecide.scenario import load_bundled_scenario
from lingdecide.terms import PeakIntervalTerm
from helpers import SCALE, reference_transition

# the transition matrix of the bundled crisis scenario, also used as a
# generic well-formed stochastic matrix throughout
CRISIS_M = np.array(
    [
        [0.2105, 0.4854, 0.2969, 0.0072],
        [0.0000, 0.4429, 0.0000, 0.5571],
        [0.0000, 0.0000, 0.5679, 0.4321],
        [0.5050, 0.0000, 0.0000, 0.4950],
    ]
)


def units_assessment(units, p=1.0):
    """Point assessment whose entry (i, j) sits at unit score units[i][j].

    ``p`` is every entry's certainty, or a matrix of them.
    """
    certainties = np.broadcast_to(np.asarray(p, dtype=float), np.shape(units)).tolist()
    rows = [
        tuple(PeakIntervalTerm.from_units(SCALE, u, u, pu) for u, pu in zip(row, prow))
        for row, prow in zip(units, certainties)
    ]
    return LinguisticMarkovAssessment(SCALE, tuple(rows))


class TestChecks:
    def test_valid_matrix_is_clean(self):
        assert check_transition_matrix(CRISIS_M) == []

    def test_not_square(self):
        msgs = check_transition_matrix(np.ones((2, 3)))
        assert len(msgs) == 1 and "square" in msgs[0]

    def test_negative_entry(self):
        M = np.array([[1.1, -0.1], [0.5, 0.5]])
        msgs = check_transition_matrix(M)
        assert any("negative" in m for m in msgs)

    def test_row_sum_off(self):
        M = np.array([[0.6, 0.3], [0.5, 0.5]])
        msgs = check_transition_matrix(M)
        assert any("row 0" in m and "sums to" in m for m in msgs)

    def test_require_stochastic_raises(self):
        with pytest.raises(ConfigError):
            require_stochastic(np.array([[0.6, 0.3], [0.5, 0.5]]))

    def test_require_stochastic_passes_through(self):
        out = require_stochastic(CRISIS_M)
        assert np.array_equal(out, CRISIS_M)


class TestEstimate:
    def test_feasible_single_expert_verbatim(self):
        a = units_assessment([list(r) for r in CRISIS_M])
        got = estimate_transition([a])
        # rows already on the simplex, so the fit returns the scores,
        # except that exact zeros sit at the positivity floor
        assert got == pytest.approx(CRISIS_M, abs=1e-8)

    def test_conflicting_row_splits_mass(self):
        a = units_assessment([[0.8, 0.8], [0.2, 0.8]])
        got = estimate_transition([a])
        assert got[0] == pytest.approx([0.5, 0.5], abs=1e-9)
        assert got[1] == pytest.approx([0.2, 0.8], abs=1e-9)

    def test_unanimous_floor_pins_exact_zero(self):
        a1 = units_assessment([[0.0, 0.9], [0.5, 0.5]])
        a2 = units_assessment([[0.0, 0.7], [0.4, 0.6]])
        diag = Diagnostics()
        got = estimate_transition([a1, a2], diag=diag)
        assert got[0, 0] == 0.0
        assert got[0, 1] == 1.0
        assert "zero_pinned" in diag.kinds()

    def test_non_unanimous_floor_stays_free(self):
        a1 = units_assessment([[0.0, 0.9], [0.5, 0.5]])
        a2 = units_assessment([[0.1, 0.7], [0.4, 0.6]])
        got = estimate_transition([a1, a2])
        assert got[0, 0] > 1e-9 / 2

    def test_low_certainty_expert_ignored(self):
        strong = units_assessment([[0.3, 0.7], [0.6, 0.4]])
        noise = units_assessment([[0.9, 0.1], [0.1, 0.9]], p=0.0)
        both = estimate_transition([strong, noise])
        alone = estimate_transition([strong])
        assert both == pytest.approx(alone, abs=1e-9)

    def test_bundled_assessments_zero_pattern(self):
        scn = load_bundled_scenario()
        diag = Diagnostics()
        got = estimate_transition(scn.markov.assessments, diag=diag)
        assert check_transition_matrix(got) == []
        for i, j in [(1, 0), (1, 2), (2, 0), (2, 1), (3, 1), (3, 2)]:
            assert got[i, j] == 0.0
        # those six positions are the whole zero pattern, one diag per row
        assert int((got == 0.0).sum()) == 6
        assert diag.kinds().count("zero_pinned") == 3

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        units = rng.uniform(0.1, 0.9, size=(3, 3))
        a = units_assessment(units.tolist())
        sigma = [1, 2, 0]
        permuted = units_assessment(units[np.ix_(sigma, sigma)].tolist())
        M = estimate_transition([a])
        Mp = estimate_transition([permuted])
        assert Mp == pytest.approx(M[np.ix_(sigma, sigma)], abs=1e-9)

    def test_certainty_zero_expert_is_ignored(self):
        a = units_assessment([[0.2, 0.8], [0.5, 0.5]])
        b = units_assessment([[0.8, 0.2], [0.5, 0.5]], p=0.0)
        tilted = estimate_transition([a, b])
        assert tilted[0] == pytest.approx([0.2, 0.8], abs=1e-9)

    def test_fully_pinned_row_rejected(self):
        a = units_assessment([[0.0]])
        with pytest.raises(ConfigError):
            estimate_transition([a])

    def test_mismatched_sizes_rejected(self):
        a = units_assessment([[0.3, 0.7], [0.6, 0.4]])
        b = units_assessment([[1.0]])
        with pytest.raises(ShapeError):
            estimate_transition([a, b])
        with pytest.raises(ShapeError):
            estimate_transition([])


# A column no expert weighs (certainty 0) leaves the row objective flat in
# it. Each case: one expert whose every row reads ``targets`` at
# certainties ``weights``, the expected row, and whether it is degenerate.
FLAT_COLUMN_CASES = {
    "one flat column takes the leftover": ([0.2, 0.3, 0.9], [1, 1, 0], [0.2, 0.3, 0.5], False),
    "flat column at the floor when overfilled": (
        [0.7, 0.6, 0.9], [1, 1, 0], [0.55, 0.45, 1e-9], False
    ),
    "flat column at the floor when less than the floor is left": (
        [0.4, 0.6 - 5e-10, 0.9], [1, 1, 0], [0.4, 0.6, 1e-9], False
    ),
    "flat columns split the leftover": ([0.2, 0.9, 0.9], [1, 0, 0], [0.2, 0.4, 0.4], True),
    "all-flat row is uniform": ([0.2, 0.9, 0.9], [0, 0, 0], [1 / 3] * 3, True),
    "lone free column": ([0.4], [0], [1.0], False),
    "lone column left by a pin": ([0.0, 0.4], [1, 0], [0.0, 1.0], False),
}


class TestFlatColumns:
    @pytest.mark.parametrize("case", FLAT_COLUMN_CASES, ids=list(FLAT_COLUMN_CASES))
    def test_matches_the_active_set_solve(self, case):
        targets, weights, want, degenerate = FLAT_COLUMN_CASES[case]
        q = len(targets)
        a = units_assessment([targets] * q, p=[weights] * q)
        diag, ref_diag = Diagnostics(), Diagnostics()
        got = estimate_transition([a], diag=diag)
        ref = reference_transition([a], diag=ref_diag)
        assert np.max(np.abs(got - ref)) <= 1e-12
        assert diag.events == ref_diag.events
        for row in got:
            assert row == pytest.approx(want, abs=1e-9)
        assert diag.kinds().count("degenerate_row") == (q if degenerate else 0)
        pinned = [j for j, w in enumerate(weights) if w == 1 and targets[j] == 0.0]
        assert diag.kinds().count("zero_pinned") == (q if pinned else 0)


def fields_from_units(units, p, scale=SCALE):
    """(size, size, 5) fields of interval cells at unit endpoints ``units[..., 0:2]``.

    Each endpoint takes ``from_unit``'s canonical coordinate.
    """
    x = 2.0 * scale.tau * units - scale.tau
    t = np.where(units >= 1.0, scale.tau, np.floor(x))
    k = np.where(units >= 1.0, 0.0, scale.zeta * (x - t))
    return np.stack([t[..., 0], k[..., 0], t[..., 1], k[..., 1], p], axis=-1)


@given(
    q=st.integers(1, 60),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_rows_match_the_active_set_reference(q, n, seed):
    rng = np.random.default_rng(seed)

    def mixed(shape):
        """0, 1 or uniform on [0, 1], about a third each."""
        pick = rng.integers(0, 3, size=shape)
        return np.where(pick == 0, 0.0, np.where(pick == 1, 1.0, rng.uniform(0.0, 1.0, shape)))

    units = np.sort(mixed((n, q, q, 2)), axis=-1)
    p = mixed((n, q, q))
    pinned = rng.random((q, q)) < rng.uniform(0.0, 0.9)
    rows, kept = np.arange(q), rng.integers(0, q, size=q)
    pinned[rows, kept] = False
    units[:, pinned] = 0.0
    p[:, pinned] = 1.0
    # one cell per row stays off the floor point, so no row is fully pinned
    units[0, rows, kept, 1] = np.maximum(units[0, rows, kept, 1], 0.25)
    assessments = [
        LinguisticMarkovAssessment.from_fields(SCALE, fields_from_units(u, pk))
        for u, pk in zip(units, p)
    ]

    diag, ref_diag = Diagnostics(), Diagnostics()
    got = estimate_transition(assessments, diag=diag)
    ref = reference_transition(assessments, diag=ref_diag)
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert diag.events == ref_diag.events
    assert np.all(got[pinned] == 0.0)


class TestPeriodWeights:
    def test_first_period_is_origin_row(self):
        out = period_weights(CRISIS_M, T=3, Z=1, origin=0)
        assert out[0] == pytest.approx(CRISIS_M[0], abs=1e-12)

    def test_matches_matrix_power_route(self):
        out = period_weights(CRISIS_M, T=4, Z=2, origin=2)
        for t in range(4):
            want = np.linalg.matrix_power(CRISIS_M, 2 + t)[2]
            assert out[t] == pytest.approx(want, abs=1e-12)

    def test_crisis_third_period_regression(self):
        out = period_weights(CRISIS_M, T=3, Z=1, origin=0)
        want = [0.214004832775, 0.163743433194, 0.145480884209, 0.476770849822]
        assert out[2] == pytest.approx(want, abs=1e-9)

    def test_identity_matrix_is_fixed(self):
        out = period_weights(np.eye(3), T=5, Z=4, origin=1)
        assert np.array_equal(out, np.tile([0.0, 1.0, 0.0], (5, 1)))

    def test_rows_stay_stochastic(self):
        out = period_weights(CRISIS_M, T=6, Z=3, origin=3)
        assert out.sum(axis=1) == pytest.approx(np.ones(6), abs=1e-12)
        assert np.all(out >= 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            period_weights(CRISIS_M, T=0, Z=1, origin=0)
        with pytest.raises(ConfigError):
            period_weights(CRISIS_M, T=1, Z=0, origin=0)
        with pytest.raises(ConfigError):
            period_weights(CRISIS_M, T=1, Z=1, origin=4)
        with pytest.raises(ConfigError):
            period_weights(np.array([[0.6, 0.3], [0.5, 0.5]]), T=1, Z=1, origin=0)


class TestReshapedScheme:
    UPDATES = [0.25, 0.80, 1.00]

    def test_regression_vectors(self):
        out = period_weights_reshaped(CRISIS_M, T=3, Z=1, origin=0, updates=self.UPDATES)
        assert out[0] == pytest.approx([0.178875, 0.232075, 0.2162, 0.37285], abs=1e-9)
        assert out[1] == pytest.approx(
            [0.098105786637, 0.287077541549, 0.215485008759, 0.399331663055], abs=1e-9
        )
        assert out[2] == pytest.approx(
            [0.214004832775, 0.163743433194, 0.145480884209, 0.476770849822], abs=1e-9
        )

    def test_full_update_resets_to_power_scheme(self):
        # forcing all mass back onto the origin reproduces the plain scheme
        reshaped = period_weights_reshaped(CRISIS_M, T=3, Z=2, origin=1, updates=[1.0, 1.0, 1.0])
        plain = period_weights(CRISIS_M, T=3, Z=2, origin=1)
        assert reshaped == pytest.approx(plain, abs=1e-12)

    def test_first_period_spreads_uniformly(self):
        diag = Diagnostics()
        out = period_weights_reshaped(
            CRISIS_M, T=1, Z=1, origin=0, updates=[0.25], diag=diag
        )
        start = np.array([0.25, 0.25, 0.25, 0.25])
        assert out[0] == pytest.approx(start @ CRISIS_M, abs=1e-12)
        assert "uniform_redistribution" in diag.kinds()

    def test_rows_stay_stochastic(self):
        out = period_weights_reshaped(CRISIS_M, T=3, Z=1, origin=0, updates=self.UPDATES)
        assert out.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)

    def test_update_count_must_match(self):
        with pytest.raises(ShapeError):
            period_weights_reshaped(CRISIS_M, T=3, Z=1, origin=0, updates=[0.5, 0.5])

    def test_update_range_checked(self):
        with pytest.raises(ConfigError):
            period_weights_reshaped(CRISIS_M, T=1, Z=1, origin=0, updates=[1.5])


class TestDotExport:
    def test_identity_self_loops(self):
        dot = export_dot(np.eye(3), ["a", "b", "c"])
        edges = [ln for ln in dot.splitlines() if "->" in ln]
        assert edges == [
            '  n0 -> n0 [label="1.0000"];',
            '  n1 -> n1 [label="1.0000"];',
            '  n2 -> n2 [label="1.0000"];',
        ]

    def test_crisis_edge_count(self):
        dot = export_dot(CRISIS_M, ["IRR", "ALR", "FLR", "CR"])
        edges = [ln for ln in dot.splitlines() if "->" in ln]
        assert len(edges) == int(np.count_nonzero(CRISIS_M))
        assert '  n0 -> n1 [label="0.4854"];' in edges

    def test_snapshot(self):
        dot = export_dot(np.array([[0.25, 0.75], [0.0, 1.0]]), ["x", "y"])
        assert dot == (
            "digraph transitions {\n"
            "  rankdir=LR;\n"
            '  n0 [label="x"];\n'
            '  n1 [label="y"];\n'
            '  n0 -> n0 [label="0.2500"];\n'
            '  n0 -> n1 [label="0.7500"];\n'
            '  n1 -> n1 [label="1.0000"];\n'
            "}\n"
        )

    def test_label_escaping(self):
        dot = export_dot(np.eye(1), ['say "hi"\\now'])
        assert '[label="say \\"hi\\"\\\\now"]' in dot

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            export_dot(np.ones((2, 3)), ["a", "b"])
        with pytest.raises(ShapeError):
            export_dot(np.eye(2), ["only"])
