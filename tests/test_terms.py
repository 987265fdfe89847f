import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lingdecide.diagnostics import Diagnostics
from lingdecide.errors import EmptyEvidenceError, RangeError, ShapeError
from lingdecide.markov import LinguisticMarkovAssessment
from lingdecide.paper import (
    FuzzyIntervalSet,
    FuzzyIntervalTerm,
    PeakIntervalTerm,
    ProbabilisticTermSet,
    peak,
    plts_score,
    score,
    to_unit,
)
from lingdecide.prefs import PreferenceRelation
from lingdecide.scale import TermCoord, parse_term, unit_value
from lingdecide.terms import TermMatrix
from helpers import SCALE, iv, pt, violations


def fiv(lo, hi, fd, scale):
    return FuzzyIntervalTerm(scale, TermCoord(*lo), TermCoord(*hi), fd)


class TestValidation:
    def test_interval_order(self, scale):
        with pytest.raises(RangeError):
            PeakIntervalTerm(scale, TermCoord(2, 0), TermCoord(1, 0), 0.5)

    def test_certainty_range(self, scale):
        with pytest.raises(RangeError):
            pt(0, 0, 1.5)
        with pytest.raises(RangeError):
            pt(0, 0, -0.1)

    def test_the_first_broken_rule_is_raised(self, scale):
        # the lower coordinate, the upper one, then the cell's own rules
        with pytest.raises(RangeError, match=r"^first-hierarchy subscript t=9.0 "):
            PeakIntervalTerm(scale, TermCoord(9, 0), TermCoord(0, 9), 2.0)
        with pytest.raises(RangeError, match=r"^second-hierarchy subscript k=9.0 "):
            PeakIntervalTerm(scale, TermCoord(1, 0), TermCoord(0, 9), 2.0)
        with pytest.raises(RangeError, match=r"^interval endpoints out of order"):
            PeakIntervalTerm(scale, TermCoord(1, 0), TermCoord(0, 0), 2.0)
        with pytest.raises(RangeError, match=r"^first-hierarchy subscript t=-9.0 "):
            fiv((-9, 0), (0, 0), 2.0, scale)

    def test_non_real_fields_are_a_type_error(self, scale):
        with pytest.raises(TypeError, match="must be real number, not str"):
            PeakIntervalTerm(scale, TermCoord("1", 0), TermCoord(1, 0), 0.5)
        with pytest.raises(TypeError, match="must be real number, not NoneType"):
            pt(0, 0, None)

    def test_fd_sum_capped(self, scale):
        with pytest.raises(RangeError):
            FuzzyIntervalSet((fiv((-1, 0), (0, 0), 0.7, scale), fiv((0, 0), (1, 0), 0.4, scale)))

    def test_empty_set(self):
        with pytest.raises(EmptyEvidenceError):
            FuzzyIntervalSet(())

    def test_mixed_scales_rejected(self, scale, small_scale):
        with pytest.raises(RangeError):
            FuzzyIntervalSet(
                (fiv((0, 0), (1, 0), 0.2, scale), fiv((0, 0), (1, 0), 0.2, small_scale))
            )


class TestPeak:
    def test_min_fd_wins(self, scale):
        evidence = FuzzyIntervalSet(
            (
                fiv((-1, 0), (1, 0), 0.5, scale),
                fiv((1, 0), (2, 0), 0.2, scale),
                fiv((2, 0), (3, 0), 0.3, scale),
            )
        )
        chosen = peak(evidence)
        assert chosen.lower == TermCoord(1, 0)
        assert chosen.p == pytest.approx(0.8)

    def test_tie_prefers_narrow_then_left(self, scale):
        diag = Diagnostics()
        evidence = FuzzyIntervalSet(
            (
                fiv((-2, 0), (2, 0), 0.3, scale),
                fiv((1, 0), (2, 0), 0.3, scale),
                fiv((-1, 0), (0, 0), 0.3, scale),
            )
        )
        chosen = peak(evidence, diag)
        assert chosen.lower == TermCoord(-1, 0)
        assert chosen.upper == TermCoord(0, 0)
        assert "peak_tie" in diag.kinds()

    def test_single_interval_no_tie(self, scale):
        diag = Diagnostics()
        peak(FuzzyIntervalSet((fiv((0, 0), (1, 0), 0.4, scale),)), diag)
        assert len(diag) == 0


class TestScoreAndSigma:
    def test_score_is_midpoint(self, scale):
        term = iv((-2, 0), (-2, 1), 0.4)
        assert score(term) == pytest.approx((0.25 + 0.28125) / 2)


class TestProbabilisticTermSet:
    def test_probability_validation(self, scale):
        with pytest.raises(RangeError):
            ProbabilisticTermSet(scale, ((TermCoord(0, 0), 0.7), (TermCoord(1, 0), 0.4)))
        with pytest.raises(RangeError, match=r"^probability -0\.1 negative$"):
            ProbabilisticTermSet(scale, ((TermCoord(0, 0), -0.1),))
        with pytest.raises(RangeError, match="^probability nan is not a number$"):
            ProbabilisticTermSet(scale, ((TermCoord(1, 0), float("nan")),))

    def test_symmetric_bimodal_scores_center_exactly(self, scale):
        plts = ProbabilisticTermSet(
            scale, ((TermCoord(-2, 0), 0.4), (TermCoord(2, 0), 0.4))
        )
        mean = plts_score(plts)
        assert mean == TermCoord(0.0, 0.0)
        assert to_unit(scale, mean) == 0.5

    def test_score_weighted_mean(self, scale):
        plts = ProbabilisticTermSet(
            scale, ((TermCoord(1, 0), 0.75), (TermCoord(3, 0), 0.25))
        )
        mean = plts_score(plts)
        assert mean.t == pytest.approx(1.5)
        assert mean.k == pytest.approx(0.0)

    def test_score_normalises_partial_mass(self, scale):
        full = ProbabilisticTermSet(scale, ((TermCoord(2, 0), 1.0),))
        partial = ProbabilisticTermSet(scale, ((TermCoord(2, 0), 0.3),))
        assert plts_score(full) == plts_score(partial)

    def test_empty_mass_rejected(self, scale):
        with pytest.raises(EmptyEvidenceError):
            plts_score(ProbabilisticTermSet(scale, ((TermCoord(0, 0), 0.0),)))


# coordinates whose unit value lies in [0, 1]: integer subscripts,
# including non-canonical pairs such as (1, -2), fractional subscripts whose
# unit value rounds, and coordinates read from term literals
integer_coords = st.builds(TermCoord, st.integers(-4, 4), st.integers(-4, 4))
real_coords = st.builds(TermCoord, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
literal_coords = st.sampled_from(
    ["s1(o-2)", "s-1(o2)", "s-4(o0)", "s4(o0)", "s0.3(o-1.7)", "s-3(o4)"]
).map(parse_term)
coords = st.one_of(integer_coords, real_coords, literal_coords).filter(
    lambda c: 0.0 <= unit_value(SCALE, c.t, c.k) <= 1.0
)


@st.composite
def peak_cells(draw):
    p = draw(st.floats(0.0, 1.0))
    a = draw(coords)
    if draw(st.booleans()):
        return PeakIntervalTerm(SCALE, a, a, p)
    lower, upper = sorted((a, draw(coords)), key=lambda c: to_unit(SCALE, c))
    return PeakIntervalTerm(SCALE, lower, upper, p)


@given(data=st.data())
def test_relation_and_assessment_carry_the_same_arrays(data):
    size = data.draw(st.integers(2, 5))
    rows = tuple(tuple(data.draw(peak_cells()) for _ in range(size)) for _ in range(size))
    relation = PreferenceRelation(SCALE, rows)
    assessment = LinguisticMarkovAssessment(SCALE, rows)
    for name in ("lower", "upper", "p", "scores"):
        assert getattr(relation, name).tobytes() == getattr(assessment, name).tobytes()
    for i in range(size):
        for j in range(size):
            cell = rows[i][j]
            assert relation.lower[i, j] == to_unit(SCALE, cell.lower)
            assert relation.upper[i, j] == to_unit(SCALE, cell.upper)
            assert relation.scores[i, j] == score(cell)
            assert relation.p[i, j] == cell.p


class TestTermMatrix:
    def test_arrays_are_read_only(self):
        matrix = TermMatrix(SCALE, ((pt(1, -2, 0.5),),))
        assert matrix.scores[0, 0] == to_unit(SCALE, TermCoord(1, -2))
        with pytest.raises(ValueError):
            matrix.scores[0, 0] = 0.0

    def test_rows_must_match_the_row_count(self):
        with pytest.raises(ShapeError, match="row 1 has 1 entries, expected 2"):
            TermMatrix(SCALE, ((pt(0, 0, 1.0), pt(0, 0, 1.0)), (pt(0, 0, 1.0),)))

    def test_minimum_size_is_per_type(self):
        single = ((pt(0, 0, 1.0),),)
        assert LinguisticMarkovAssessment(SCALE, single).q == 1
        with pytest.raises(ShapeError, match="PreferenceRelation needs at least 2 rows"):
            PreferenceRelation(SCALE, single)

    def test_only_relations_have_their_own_rule(self):
        rows = ((pt(0, 0, 1.0), pt(1, 0, 0.5)), (pt(1, 0, 0.5), pt(0, 0, 1.0)))
        assert violations(LinguisticMarkovAssessment(SCALE, rows)) == []
        rules = [v.rule for v in violations(PreferenceRelation(SCALE, rows))]
        assert rules == ["endpoint-reciprocity"]

    def test_cells_and_fields_build_equal_matrices(self):
        rows = ((pt(0, 0, 1.0), iv((1, -2), (2, 0), 0.5)), (iv((-2, 0), (-1, 2), 0.5), pt(0, 0, 1.0)))
        from_cells = PreferenceRelation(SCALE, rows)
        from_fields = PreferenceRelation.from_fields(SCALE, from_cells.fields)
        assert from_fields == from_cells
        assert from_fields.fields.tolist() == [
            [[c.lower.t, c.lower.k, c.upper.t, c.upper.k, c.p] for c in row] for row in rows
        ]
        assert from_fields.scores.tobytes() == from_cells.scores.tobytes()
        assert from_fields != LinguisticMarkovAssessment(SCALE, rows)

    def test_from_fields_checks_each_cell(self):
        fields = TermMatrix(SCALE, ((pt(0, 0, 1.0), pt(1, 0, 0.5)),) * 2).fields.copy()
        fields[1, 0] = (4, 1, 4, 1, 0.5)
        with pytest.raises(RangeError, match=r"cell \(1, 0\): coordinate \(t=4.0, k=1.0\)"):
            TermMatrix.from_fields(SCALE, fields)
        fields[1, 0] = (1, 0, 0, 0, 0.5)
        with pytest.raises(RangeError, match=r"cell \(1, 0\): interval endpoints out of order"):
            TermMatrix.from_fields(SCALE, fields)
        with pytest.raises(ShapeError, match="PreferenceRelation needs at least 2 rows"):
            PreferenceRelation.from_fields(SCALE, fields[:1, :1])
        with pytest.raises(ShapeError, match=r"fields need shape \(size, size, 5\)"):
            TermMatrix.from_fields(SCALE, fields[:, :1])

    def test_matrices_are_read_only(self):
        matrix = TermMatrix(SCALE, ((pt(0, 0, 1.0),),))
        with pytest.raises(AttributeError):
            matrix.scale = None

    @pytest.mark.parametrize("kind", [LinguisticMarkovAssessment, PreferenceRelation])
    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"]
    )
    def test_copies_keep_the_type_and_read_only_arrays(self, kind, duplicate):
        rows = ((pt(0, 0, 1.0), iv((1, -2), (2, 0), 0.5)), (iv((-2, 0), (-1, 2), 0.5), pt(0, 0, 1.0)))
        matrix = kind(SCALE, rows)
        twin = duplicate(matrix)
        assert type(twin) is kind and twin == matrix
        for name in ("fields", "lower", "upper", "p", "scores"):
            array = getattr(twin, name)
            assert array.tobytes() == getattr(matrix, name).tobytes()
            assert not array.flags.writeable, name
