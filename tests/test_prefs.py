import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lingdecide.diagnostics import Diagnostics
from lingdecide.errors import ConfigError, EmptyTrustError, EngineError, RangeError, ShapeError
from lingdecide.paper import (
    PeakIntervalTerm,
    SimplexWLSProblem,
    collective_priorities,
    compute_expert_weights,
    consistent_relation,
    from_unit,
    inner_deviation,
    inner_weights,
    solve,
)
from lingdecide.pipeline import run_pipeline
from lingdecide.prefs import (
    PreferenceRelation,
    blend_weights,
    comparison_groups,
    consensus_forms,
    distances,
    entropy_weights,
    model1_problem,
    outer_weights,
    reciprocity_violations,
    score_matrix,
    stacked,
    trust_weights,
)
from lingdecide.scale import LinguisticScale
from lingdecide.scenario import MarkovSpec, Overrides, Scenario, scenario_from_dict
from helpers import (
    SCALE,
    cell_at,
    indirect_score,
    iv,
    per_attribute_consensus_form,
    per_attribute_distances,
    per_attribute_expert_weights,
    per_attribute_inner_deviation,
    per_attribute_inner_weights,
    per_attribute_outer_weights,
    per_attribute_step3,
    problem_from_terms,
    pt,
    reference_certainty_matrix,
    reference_consistent_relation,
    reference_inner_deviation,
    reference_model_terms,
    reference_outer_weights,
    reference_score_matrix,
    relation,
    uniform_scenario_dict,
)


def distance(p, q):
    return distances(*stacked([p, q]))[0, 1]


def form(scores, certainties, w):
    """The quadratic form of one attribute's (n, m, m) arrays: ``consensus_forms`` of one."""
    H, c, const = consensus_forms(scores[None], certainties[None], np.asarray(w)[None])
    return SimplexWLSProblem(H[0], c[0], const[0])


def sample_relation(p12=0.4):
    return relation(
        {
            (0, 1): iv((-2, 0), (-2, 1), p12),
            (0, 2): iv((1, -2), (1, 0), 0.5),
            (1, 2): pt(2, -1, 0.4),
        },
        m=3,
    )


def validate_relation(relation):
    """Every reciprocity violation of one relation, as a stack of one."""
    return reciprocity_violations(relation.lower[None], relation.upper[None], relation.p[None]).get(0, [])


def sample_rows():
    """The cells of ``sample_relation``, as mutable rows."""
    r = sample_relation()
    return [[cell_at(r, i, j) for j in range(r.m)] for i in range(r.m)]


class TestValidation:
    def test_valid_relation_clean(self):
        assert validate_relation(sample_relation()) == []

    def test_broken_diagonal(self):
        rows = sample_rows()
        rows[1][1] = pt(1, 0, 1.0)
        bad = PreferenceRelation(SCALE, tuple(tuple(r) for r in rows))
        rules = [v.rule for v in validate_relation(bad)]
        assert "diagonal" in rules

    def test_broken_probability_reciprocity(self):
        rows = sample_rows()
        entry = rows[1][0]
        rows[1][0] = PeakIntervalTerm(SCALE, entry.lower, entry.upper, 0.9)
        bad = PreferenceRelation(SCALE, tuple(tuple(r) for r in rows))
        violations = validate_relation(bad)
        assert any(v.rule == "probability-reciprocity" for v in violations)
        assert any((v.i, v.j) == (0, 1) for v in violations)

    def test_broken_endpoint_reciprocity(self):
        rows = sample_rows()
        rows[1][0] = pt(2, 0, 0.4)
        bad = PreferenceRelation(SCALE, tuple(tuple(r) for r in rows))
        assert any(v.rule == "endpoint-reciprocity" for v in validate_relation(bad))

    def test_all_violations_collected(self):
        rows = sample_rows()
        rows[0][0] = pt(1, 0, 1.0)
        rows[1][0] = pt(2, 0, 0.9)
        bad = PreferenceRelation(SCALE, tuple(tuple(r) for r in rows))
        rules = {v.rule for v in validate_relation(bad)}
        assert {"diagonal", "endpoint-reciprocity", "probability-reciprocity"} <= rules

    def test_messages_and_their_order(self):
        rows = sample_rows()
        rows[0][0] = pt(1, 0, 1.0)
        rows[2][2] = pt(0, 0, 0.5)
        rows[1][0] = pt(2, 0, 0.9)
        rows[2][1] = pt(-2, 1, 0.7)
        bad = PreferenceRelation(SCALE, tuple(tuple(r) for r in rows))
        assert [str(v) for v in validate_relation(bad)] == [
            "(0, 0) diagonal: expected the indifferent point (unit 0.5, p=1), got [0.625, 0.625] p=1",
            "(2, 2) diagonal: expected the indifferent point (unit 0.5, p=1), got [0.5, 0.5] p=0.5",
            "(0, 1) endpoint-reciprocity: unit sums (1, 1.03125) differ from 1",
            "(0, 1) probability-reciprocity: p=0.4 vs p=0.9",
            "(1, 2) probability-reciprocity: p=0.4 vs p=0.7",
        ]

    def test_cells_on_another_scale_rejected(self):
        rows = sample_rows()
        rows[0][1] = pt(1, 0, 0.4, scale=LinguisticScale(3, 2))
        with pytest.raises(ShapeError):
            PreferenceRelation(SCALE, tuple(tuple(r) for r in rows))

    def test_too_small(self):
        with pytest.raises(ShapeError):
            PreferenceRelation(SCALE, ((pt(0, 0, 1.0),),))


class TestScoresAndDistance:
    def test_scores_reciprocal(self):
        E = score_matrix(sample_relation())
        assert np.allclose(E + E.T, 1.0)
        assert E[0, 0] == 0.5

    def test_distance_zero_on_equal(self):
        r = sample_relation()
        assert distance(r, r) == 0.0

    def test_distance_hand_value(self):
        a = relation({(0, 1): pt(2, 0, 1.0)}, m=2)
        b = relation({(0, 1): pt(2, 0, 0.5)}, m=2)
        Ea = 0.75
        want = math.sqrt(2.0 / 2.0 * ((Ea - 0.5) * 1.0 - (Ea - 0.5) * 0.5) ** 2)
        assert distance(a, b) == pytest.approx(want, abs=1e-12)

    def test_distance_shape_mismatch(self):
        with pytest.raises(ShapeError):
            distance(sample_relation(), relation({(0, 1): pt(1, 0, 0.5)}, m=2))

    def test_outer_weights_uniform_on_identical(self):
        r = sample_relation()
        assert outer_weights(*stacked([r, r, r])) == pytest.approx(np.full(3, 1 / 3))

    def test_outer_weights_mass_follows_distance(self):
        # third expert sits far away, so (as printed) it weighs most
        near1 = relation({(0, 1): pt(0, 0, 1.0)}, m=2)
        near2 = relation({(0, 1): pt(0, 1, 1.0)}, m=2)
        far = relation({(0, 1): pt(4, 0, 1.0)}, m=2)
        w = outer_weights(*stacked([near1, near2, far]))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[2] == max(w)


class TestConsistency:
    def test_indirect_score_formula(self):
        E = np.array([[0.5, 0.7, 0.6], [0.3, 0.5, 0.4], [0.4, 0.6, 0.5]])
        assert indirect_score(E, 0, 1, 2) == pytest.approx(0.6 - 0.4 + 0.5)

    def test_consistent_relation_has_zero_deviation(self):
        w = np.array([0.5, 0.3, 0.2])
        rel = consistent_relation(SCALE, w, p=0.8)
        assert inner_deviation(score_matrix(rel)) == pytest.approx(0.0, abs=1e-9)

    def test_single_perturbation_counts_twice(self):
        # perturbing one raw score shows up in exactly two triples at m = 3
        w = np.array([0.4, 0.35, 0.25])
        E = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                E[i, j] = w[i] - w[j] + 0.5
        delta = 0.07
        E[0, 1] += delta
        assert inner_deviation(E) == pytest.approx(2 * delta, abs=1e-12)

    def test_m2_has_no_indirect_path(self):
        diag = Diagnostics()
        out = inner_deviation(np.full((2, 2), 0.5), diag=diag)
        assert out == 0.0
        assert "no_indirect_path" in diag.kinds()

    def test_paper_literal_constant_cancels_at_m4(self):
        rng = np.random.default_rng(5)
        w = rng.dirichlet(np.ones(4)) * 0.5 + 0.125
        E = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                E[i, j] = w[i] - w[j] + 0.5
        E[0, 2] += 0.1
        default = inner_deviation(E)
        literal = inner_deviation(E, paper_literal=True)
        assert literal == pytest.approx(default, abs=1e-12)

    def test_paper_literal_shifts_at_m3(self):
        E = np.full((3, 3), 0.5)
        # 3 triples of 0.5 each minus the printed constant 3
        assert inner_deviation(E, paper_literal=True) == pytest.approx(-1.5)
        assert inner_deviation(E) == 0.0


class TestWeightVectors:
    def test_inner_weights_reward_consistency(self):
        w = inner_weights([0.5, 2.0, 2.0], m=4)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[0] == max(w)

    def test_inner_weights_uniform_when_all_zero(self):
        assert inner_weights([0.0, 0.0], m=3) == pytest.approx([0.5, 0.5])

    def test_entropy_floor_path(self):
        diag = Diagnostics()
        w = inner_weights([0.0, 1.0, 1.0], m=4, diag=diag)
        assert np.all(np.isfinite(w))
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert w[0] == max(w)
        assert "entropy_floor" in diag.kinds()

    def test_inner_weights_validation(self):
        with pytest.raises(ShapeError):
            inner_weights([1.0], m=3)
        with pytest.raises(ConfigError):
            inner_weights([-0.1, 0.5], m=3)
        with pytest.raises(ConfigError, match="deviations must be nonnegative"):
            inner_weights([np.nan, 1.0, 2.0], m=4)

    def test_trust_normalisation_golden(self):
        got = trust_weights([0.80, 0.90, 0.70, 0.80])
        assert got == pytest.approx([0.2500, 0.2812, 0.2188, 0.2500], abs=1e-4)

    def test_trust_empty(self):
        with pytest.raises(EmptyTrustError):
            trust_weights([0.0, 0.0])

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_trust_range(self, bad):
        with pytest.raises(ConfigError, match=re.escape("trust degrees must lie in [0, 1]")):
            trust_weights([bad, 1.0])

    def test_blend_golden(self):
        out = np.array([0.2253, 0.3320, 0.2439, 0.1988])
        inn = np.array([0.2898, 0.2401, 0.2212, 0.2489])
        tru = np.array([0.2500, 0.2812, 0.2188, 0.2500])
        got = blend_weights(out, inn, tru, 0.5, 0.3, 0.2)
        assert got == pytest.approx([0.2496, 0.2943, 0.2321, 0.2241], abs=1e-4)

    def test_blend_validation(self):
        u = np.full(3, 1 / 3)
        with pytest.raises(ConfigError):
            blend_weights(u, u, u, 0.5, 0.3, 0.3)
        with pytest.raises(ConfigError):
            blend_weights(u, u, np.array([0.5, 0.2, 0.2]), 0.5, 0.3, 0.2)
        with pytest.raises(ShapeError):
            blend_weights(u, u, np.full(4, 0.25), 0.5, 0.3, 0.2)
        half = np.array([0.5, 0.5])
        with pytest.raises(ConfigError, match=r"weight vector \[nan, 0.5\] is not a probability"):
            blend_weights([np.nan, 0.5], half, half, 0.5, 0.3, 0.2)
        with pytest.raises(ConfigError, match="blend coefficients"):
            blend_weights(u, u, u, np.nan, 0.3, 0.2)


class TestModel1:
    def test_consistent_recovery(self):
        w = np.array([0.35, 0.1, 0.3, 0.25])
        rel = consistent_relation(SCALE, w, p=0.9, half_gradient=True)
        got = collective_priorities([rel], [1.0])
        assert got == pytest.approx(w, abs=1e-6)

    def test_single_pair_two_alternatives(self):
        # with (w_i - w_j)/2 residuals and w0 + w1 = 1, a lone pair
        # scored E resolves to exactly (E, 1 - E)
        rel = relation({(0, 1): pt(1, -2, 1.0)}, m=2)
        assert score_matrix(rel)[0, 1] == pytest.approx(0.5625)
        got = collective_priorities([rel], [1.0])
        assert got == pytest.approx([0.5625, 0.4375], abs=1e-9)

    def test_certainty_zero_pairs_ignored(self):
        rel_certain = relation({(0, 1): pt(2, 0, 1.0)}, m=2)
        rel_void = relation({(0, 1): pt(-3, 0, 0.0)}, m=2)
        both = collective_priorities([rel_certain, rel_void], [0.5, 0.5])
        alone = collective_priorities([rel_certain], [1.0])
        assert both == pytest.approx(alone, abs=1e-9)

    def test_weight_vector_validated(self):
        rel = sample_relation()
        with pytest.raises(ShapeError):
            model1_problem([rel], [0.5, 0.5])
        with pytest.raises(ConfigError):
            model1_problem([rel, rel], [0.7, 0.7])
        with pytest.raises(ConfigError, match="expert weights must form a probability vector"):
            model1_problem([rel, rel], [np.nan, 1.0])

    def test_priorities_on_simplex(self):
        rels = [sample_relation(), sample_relation(0.9), sample_relation(0.1)]
        got = collective_priorities(rels, np.full(3, 1 / 3))
        assert got.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(got >= 1e-9 - 1e-15)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=5))
@settings(max_examples=25)
def test_recovery_property(seed, m):
    rng = np.random.default_rng(seed)
    w = 0.5 * rng.dirichlet(np.ones(m)) + 0.5 / m
    rel = consistent_relation(LinguisticScale(4, 4), w, p=float(rng.uniform(0.1, 1.0)), half_gradient=True)
    n = int(rng.integers(1, 4))
    got = collective_priorities([rel] * n, rng.dirichlet(np.ones(n)))
    assert got == pytest.approx(w, abs=1e-6)


@given(
    st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-0.2, 1.2)), min_size=1, max_size=9),
    st.sampled_from(["raw", "normalised", "normalised"]),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(-0.5, 1.5)),
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
)
@settings(max_examples=300)
def test_consistent_relation_fields_match_the_per_cell_build(w, form, p, tau, zeta, half_gradient):
    """Bit-equal fields as the per-cell build, and its errors.

    With a valid p an error keeps its type and wording. An invalid p is
    reported as from_fields locates a bad cell, and only once every score
    is found in [0, 1], where the per-cell build stopped at the first
    faulty cell in row-major order.
    """
    scale = LinguisticScale(tau, zeta)
    if form == "normalised" and sum(w) > 0.0:
        w = [abs(x) / sum(map(abs, w)) for x in w]
    try:
        want = reference_consistent_relation(scale, w, p, half_gradient).fields
    except EngineError as exc:
        event(type(exc).__name__)
        with pytest.raises(EngineError) as raised:
            consistent_relation(scale, w, p, half_gradient)
        if 0.0 <= p <= 1.0:
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        elif isinstance(raised.value, RangeError):
            assert str(raised.value) == f"cell (0, 1): {exc}"
        return
    got = consistent_relation(scale, w, p, half_gradient)
    assert got.fields.tobytes() == want.tobytes()


def test_compute_expert_weights_end_to_end():
    rels = [sample_relation(), sample_relation(0.9), sample_relation(0.1), sample_relation(0.6)]
    rep = compute_expert_weights(rels, [0.8, 0.9, 0.7, 0.8], 0.5, 0.3, 0.2)
    for vec in (rep.outer, rep.inner, rep.trust, rep.blended):
        assert vec.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(vec >= 0.0)
    d = rep.as_dict()
    assert set(d) == {"outer", "inner", "trust", "blended", "alpha", "beta", "gamma"}


def random_reciprocal_relation(rng, m):
    """Relation with random point and interval cells above the diagonal."""
    upper = {}
    for i in range(m):
        for j in range(i + 1, m):
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
            if rng.random() < 0.5:
                hi = lo
            p = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
            upper[(i, j)] = PeakIntervalTerm(SCALE, from_unit(SCALE, lo), from_unit(SCALE, hi), p)
    return relation(upper, m)


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_array_chain_matches_loop_references(m, n, seed):
    rng = np.random.default_rng(seed)
    rels = [random_reciprocal_relation(rng, m) for _ in range(n)]
    assert all(validate_relation(r) == [] for r in rels)
    loop_scores = [reference_score_matrix(r) for r in rels]
    scores, certainties = stacked(rels)
    assert np.array_equal(scores, loop_scores)

    assert outer_weights(scores, certainties) == pytest.approx(
        reference_outer_weights(rels), rel=0, abs=1e-12
    )
    for literal in (False, True):
        got = [inner_deviation(E, literal) for E in scores]
        want = [reference_inner_deviation(E, literal) for E in loop_scores]
        assert got == pytest.approx(want, rel=0, abs=1e-12)
        if m >= 3 and min(want) >= 0.0:
            assert inner_weights(got, m) == pytest.approx(inner_weights(want, m), rel=0, abs=1e-12)

    w = rng.dirichlet(np.ones(n))
    loop_certainties = [reference_certainty_matrix(r) for r in rels]
    assert_matches_design_rows(model1_problem(rels, w), loop_scores, loop_certainties, w)


def assert_matches_design_rows(problem, scores, certainties, w):
    """The closed-form model equals the loop's design-row form, and so do their solutions.

    The two sum in different orders, so they agree to rounding, not bit for bit.
    """
    loop = problem_from_terms(problem.m, reference_model_terms(scores, certainties, w))
    assert np.abs(problem.H - loop.H).max() <= 1e-14
    assert np.abs(problem.c - loop.c).max() <= 1e-14
    assert problem.const == pytest.approx(loop.const, rel=0, abs=1e-14)
    assert np.abs(solve(problem).vector - solve(loop).vector).max() <= 1e-12


@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_model_form_matches_design_rows_at_panel_size(m, n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.0, 1.0, (n, m, m))
    kind = rng.integers(3, size=(n, m, m))
    certainties = np.select([kind == 0, kind == 1], [0.0, 1.0], rng.uniform(0.0, 1.0, (n, m, m)))
    w = rng.dirichlet(np.ones(n))
    assert_matches_design_rows(form(scores, certainties, w), scores, certainties, w)


def drawn_relation(rng, m):
    """A reciprocal relation; each certainty is 0, 1 or uniform.

    One in four is consistent, with a deviation of zero or nearly so.
    """
    if rng.random() < 0.25:
        w = rng.dirichlet(np.ones(m))
        return consistent_relation(SCALE, w, p=float(rng.uniform()), half_gradient=True)
    upper = {}
    for i in range(m):
        for j in range(i + 1, m):
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
            if rng.random() < 0.5:
                hi = lo
            p = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
            upper[(i, j)] = PeakIntervalTerm(SCALE, from_unit(SCALE, lo), from_unit(SCALE, hi), p)
    return relation(upper, m)


@st.composite
def weighing_scenarios(draw):
    """A scenario for step 3 alone: q <= 8 attributes, n in 2..6 experts, m in 2..8.

    Attributes may repeat one relation across experts or copy another
    attribute's relations, and may carry a priority override (with or
    without relations) or an expert-weight override (summing to 1, to
    another total, or to 0).
    """
    q = draw(st.integers(1, 8))
    n = draw(st.integers(2, 6))
    m = draw(st.sampled_from([2, 3, 4, 2, 3, 4, 5, 6, 7, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    attributes = tuple(f"Q{a + 1}" for a in range(q))
    preferences, priority, expert_weights = {}, {}, {}
    for attr in attributes:
        kind = draw(st.sampled_from(["independent", "identical", "copied", "repeated", "none"]))
        if kind == "none" or (kind == "copied" and not preferences):
            kind = "none" if kind == "none" else "independent"
        if kind == "independent":
            preferences[attr] = tuple(drawn_relation(rng, m) for _ in range(n))
        elif kind == "identical":
            preferences[attr] = (drawn_relation(rng, m),) * n
        elif kind == "copied":
            preferences[attr] = preferences[draw(st.sampled_from(sorted(preferences)))]
        elif kind == "repeated":
            first = drawn_relation(rng, m)
            preferences[attr] = tuple(
                first if draw(st.booleans()) else drawn_relation(rng, m) for _ in range(n)
            )
        if kind == "none" or not draw(st.integers(0, 4)):
            priority[attr] = rng.dirichlet(np.ones(m))
        elif not draw(st.integers(0, 3)):
            w = draw(st.sampled_from(["unit", "scaled", "zero"]))
            vector = rng.dirichlet(np.ones(n))
            expert_weights[attr] = {"unit": vector, "scaled": 0.5 * vector, "zero": np.zeros(n)}[w]
    trust = tuple(float(x) for x in rng.choice([0.0, 1.0, 0.5, rng.uniform()], n))
    if not any(trust):
        trust = (1.0,) + trust[1:]
    alpha, beta = sorted(rng.uniform(0.0, 1.0, 2))
    return Scenario(
        scale=SCALE,
        attributes=attributes,
        alternatives=tuple(f"A{x + 1}" for x in range(m)),
        experts=tuple(f"e{k + 1}" for k in range(n)),
        trust=trust,
        alpha=float(alpha),
        beta=float(beta - alpha),
        gamma=float(1.0 - beta),
        markov=MarkovSpec(1, 1, 0, "power", None, None),
        preferences=preferences,
        overrides=Overrides(
            transition_matrix=np.eye(q),
            priority_vectors=priority,
            expert_weight_vectors=expert_weights,
        ),
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150)
@given(scenario=weighing_scenarios(), paper_literal=st.booleans())
def test_stacked_chain_matches_the_per_attribute_chain(scenario, paper_literal):
    try:
        want = per_attribute_step3(scenario, paper_literal)
    except EngineError as exc:
        event(type(exc).__name__)
        with pytest.raises(type(exc)) as err:
            run_pipeline(scenario, stage="priorities", paper_literal=paper_literal)
        assert str(err.value) == f"step 3 (expert weights and priorities): {exc}"
        return
    reports, model_weights, forms, priorities, diag = want
    event("runs")
    before = run_pipeline(scenario, stage="weights").diagnostics.events
    got = run_pipeline(scenario, stage="priorities", paper_literal=paper_literal)
    assert got.diagnostics.events == before + diag.events
    assert list(got.expert_weights) == list(reports)
    for attr, report in reports.items():
        for view in ("outer", "inner", "trust", "blended"):
            assert same_bits(getattr(got.expert_weights[attr], view), getattr(report, view)), view
    assert list(got.model_weights) == list(model_weights)
    for attr, w in model_weights.items():
        assert same_bits(got.model_weights[attr], w)
    assert list(got.priorities) == list(priorities)
    for attr, vector in priorities.items():
        assert same_bits(got.priorities[attr], vector)

    # the stacked forms of every attribute with relations, under its model weights
    solved = [a for a in scenario.attributes if a in forms]
    if not solved:
        return
    scores, certainties = stacked([r for a in solved for r in scenario.preferences[a]])
    scores = scores.reshape(len(solved), -1, *scores.shape[1:])
    certainties = certainties.reshape(scores.shape)
    weights = np.array([model_weights[a] for a in solved])
    H, c, const = consensus_forms(scores, certainties, weights)
    for a, attr in enumerate(solved):
        for one in (forms[attr], form(scores[a], certainties[a], weights[a])):
            assert same_bits(H[a], one.H)
            assert same_bits(c[a], one.c)
            assert same_bits(const[a], one.const)


def test_step_3_records_every_attribute_s_chain_before_the_overrides():
    # the chain's events of every attribute, then the override events, then the rest
    data = uniform_scenario_dict(m=2, q=2, n=2, periods=1)
    data["overrides"] = {"priority_vectors": {"Q1": [0.5, 0.5]}}
    report = run_pipeline(scenario_from_dict(data))
    assert [(e.kind, e.detail) for e in report.diagnostics] == [
        ("no_indirect_path", "m=2 has no third alternative to route through")
    ] * 4 + [
        ("override_applied", "priority_vectors.Q1"),
        ("tie", "alternatives [0, 1] share U=0.5; using index order"),
    ]


def test_a_later_attribute_s_printed_constant_fails_before_an_earlier_override():
    # Q1's cyclic relations deviate by 4.5 > 3, so only Q2's indifferent ones fail the
    # printed constant; Q1's zero-mass override comes after every attribute's chain
    data = uniform_scenario_dict(m=3, q=2, n=2, periods=1)
    one, zero, half = ({"point": [t, 0], "p": 1.0} for t in (4, -4, 0))
    cyclic = [[half, one, zero], [zero, half, one], [one, zero, half]]
    data["preferences"]["Q1"] = {"e1": cyclic, "e2": cyclic}
    data["overrides"] = {"expert_weight_vectors": {"Q1": [0.0, 0.0]}}
    with pytest.raises(ConfigError, match="the printed constant m\\(m-1\\)\\*0.5 = 3 exceeds"):
        run_pipeline(scenario_from_dict(data), paper_literal=True)
    with pytest.raises(ConfigError, match="expert weight override for Q1 has zero mass"):
        run_pipeline(scenario_from_dict(data))


def scalar_distances(scores, certainties):
    """(n, n) distances of one attribute's arrays, one expert pair and one
    alternative pair i < j at a time, in row-major order."""
    n, m = scores.shape[0], scores.shape[1]
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            total = 0.0
            for i in range(m):
                for j in range(i + 1, m):
                    x = float(certainties[a, i, j]) * (float(scores[a, i, j]) - 0.5)
                    y = float(certainties[b, i, j]) * (float(scores[b, i, j]) - 0.5)
                    total += math.pow(x - y, 2)
            out[a, b] = math.sqrt(2.0 * total / (m * (m - 1)))
    return out


@given(
    m=st.integers(2, 9),
    n=st.integers(2, 6),
    q=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60)
def test_distances_match_a_scalar_pair_loop_bit_for_bit(m, n, q, seed):
    # each expert pair is computed once and mirrored, on one attribute and on a stack
    rng = np.random.default_rng(seed)
    scores, certainties = stacked([drawn_relation(rng, m) for _ in range(q * n)])
    scores = scores.reshape(q, n, m, m)
    certainties = certainties.reshape(q, n, m, m)
    got = distances(scores, certainties)
    for k in range(q):
        want = scalar_distances(scores[k], certainties[k])
        assert same_bits(got[k], want)
        assert same_bits(distances(scores[k], certainties[k]), want)


@given(
    m=st.integers(2, 12),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    paper_literal=st.booleans(),
)
@settings(max_examples=80)
def test_one_attribute_functions_match_the_per_attribute_code(m, n, seed, paper_literal):
    rng = np.random.default_rng(seed)
    rels = [drawn_relation(rng, m) for _ in range(n)]
    scores, certainties = stacked(rels)
    assert same_bits(distances(scores, certainties), per_attribute_distances(scores, certainties))
    assert same_bits(
        outer_weights(scores, certainties), per_attribute_outer_weights(scores, certainties)
    )
    for E in scores:
        got, want = Diagnostics(), Diagnostics()
        assert same_bits(
            inner_deviation(E, paper_literal, got),
            per_attribute_inner_deviation(E, paper_literal, want),
        )
        assert got.events == want.events
    trust = rng.uniform(0.1, 1.0, n)
    got, want = Diagnostics(), Diagnostics()
    try:
        expected = per_attribute_expert_weights(rels, trust, 0.5, 0.3, 0.2, paper_literal, want)
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=re.escape(str(exc))):
            compute_expert_weights(rels, trust, 0.5, 0.3, 0.2, paper_literal, got)
    else:
        report = compute_expert_weights(rels, trust, 0.5, 0.3, 0.2, paper_literal, got)
        for view in ("outer", "inner", "trust", "blended"):
            assert same_bits(getattr(report, view), getattr(expected, view)), view
        assert got.events == want.events
    w = rng.dirichlet(np.ones(n))
    problem, expected = model1_problem(rels, w), per_attribute_consensus_form(scores, certainties, w)
    for part in ("H", "c", "const"):
        assert same_bits(getattr(problem, part), getattr(expected, part)), part


# shares whose numpy log2 differs from math.log2 in the last bit, so that
# entropy weights computed with numpy's log2 would differ from the
# per-attribute code
@pytest.mark.parametrize(
    "deviations",
    [[1.588, 3.122, 1.353, 3.345], [2.359, 1.125, 0.181, 2.318], [0.872, 3.281]],
)
def test_entropy_weights_keep_the_scalar_log(deviations):
    want = per_attribute_inner_weights(deviations, 4)
    assert same_bits(inner_weights(deviations, 4), want)
    stack = np.array([deviations, deviations[::-1]])
    weights, floored = entropy_weights(stack, 4)
    assert same_bits(weights[0], want)
    assert same_bits(weights[1], per_attribute_inner_weights(deviations[::-1], 4))
    assert not floored.any()


@given(st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_comparison_groups_are_the_linked_components(m, seed):
    """Each group is linked as a chain in shuffled order, so reaching across one takes many hops."""
    rng = np.random.default_rng(seed)
    label = rng.integers(rng.integers(1, m + 1), size=m)
    S = np.zeros((m, m))
    for g in np.unique(label):
        chain = rng.permutation(np.flatnonzero(label == g))
        S[chain[:-1], chain[1:]] = rng.uniform(0.1, 1.0, chain.size - 1)
    S += S.T
    H = 0.25 * (np.diag(S.sum(axis=1)) - S)
    want = sorted(np.flatnonzero(label == g).tolist() for g in np.unique(label))
    assert comparison_groups(H) == want
