import pytest

from lingdecide.diagnostics import Diagnostics
from lingdecide.errors import EmptyEvidenceError, RangeError
from lingdecide.scale import TermCoord, to_unit
from lingdecide.terms import (
    FuzzyIntervalSet,
    FuzzyIntervalTerm,
    PeakIntervalTerm,
    ProbabilisticTermSet,
    peak,
    plts_score,
    score,
)
from helpers import iv, pt


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
        with pytest.raises(RangeError):
            ProbabilisticTermSet(scale, ((TermCoord(0, 0), -0.1),))

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
