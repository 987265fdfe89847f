"""Fuzzy linguistic interval terms and their peak intervals.

Evidence arrives as linguistic intervals [lower, upper] on a
double-hierarchy scale, each carrying a fuzzy degree fd (how much of the
assessment stays unexplained). The peak of a set of such intervals is the
interval with the smallest fd; its certainty is p = 1 - fd. A peak
interval scores as its unit midpoint (g_l + g_r) / 2.

Both kinds of matrix evidence, preference relations and Markov
assessments, are square ``TermMatrix`` grids of peak intervals; the
matrix derives the unit arrays the numerics run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable

import numpy as np

from .diagnostics import Diagnostics, record
from .errors import EmptyEvidenceError, RangeError, ShapeError
from .scale import LinguisticScale, TermCoord, from_unit, to_unit, unit_value

_TOL = 1e-12


@dataclass(frozen=True)
class LinguisticInterval:
    """A linguistic interval [lower, upper] whose endpoints are in unit order."""

    scale: LinguisticScale
    lower: TermCoord
    upper: TermCoord

    def __post_init__(self):
        gl = to_unit(self.scale, self.lower)
        gr = to_unit(self.scale, self.upper)
        if gl > gr + _TOL:
            raise RangeError(f"interval endpoints out of order: unit {gl} > {gr}")

    @property
    def unit_lower(self) -> float:
        return to_unit(self.scale, self.lower)

    @property
    def unit_upper(self) -> float:
        return to_unit(self.scale, self.upper)


@dataclass(frozen=True)
class FuzzyIntervalTerm(LinguisticInterval):
    """One linguistic interval with its fuzzy degree fd in [0, 1]."""

    fd: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.fd <= 1.0):
            raise RangeError(f"fuzzy degree fd={self.fd} outside [0, 1]")


@dataclass(frozen=True)
class FuzzyIntervalSet:
    """A nonempty collection of fuzzy interval terms over one scale.

    The fuzzy degrees sum to at most 1; the remainder up to 1 is the
    unexplained part of the assessment. Completeness of the underlying
    evidence is the assessor's responsibility, not validated here.
    """

    intervals: tuple[FuzzyIntervalTerm, ...]

    def __post_init__(self):
        if not self.intervals:
            raise EmptyEvidenceError("a fuzzy interval set needs at least one interval")
        scales = {iv.scale for iv in self.intervals}
        if len(scales) != 1:
            raise RangeError("all intervals in a set must share one scale")
        total = math.fsum(iv.fd for iv in self.intervals)
        if total > 1.0 + 1e-9:
            raise RangeError(f"fuzzy degrees sum to {total} > 1")

    @property
    def scale(self) -> LinguisticScale:
        return self.intervals[0].scale


@dataclass(frozen=True)
class PeakIntervalTerm(LinguisticInterval):
    """The minimum-fd interval of an assessment, with certainty p = 1 - fd."""

    p: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.p <= 1.0):
            raise RangeError(f"certainty p={self.p} outside [0, 1]")

    @classmethod
    def from_units(
        cls, scale: LinguisticScale, gl: float, gr: float, p: float
    ) -> "PeakIntervalTerm":
        return cls(scale, from_unit(scale, gl), from_unit(scale, gr), p)

    @classmethod
    def point(cls, scale: LinguisticScale, coord: TermCoord, p: float) -> "PeakIntervalTerm":
        return cls(scale, coord, coord, p)


@dataclass(frozen=True)
class TermMatrix:
    """Square matrix of peak intervals over one scale.

    Construction checks the shape and that every cell uses ``scale``, and
    derives the read-only unit arrays the numerics run on: endpoints
    ``lower`` and ``upper``, certainties ``p`` and midpoint scores
    ``scores``. Each array entry equals its cell's ``unit_lower``,
    ``unit_upper``, ``p`` or ``score`` exactly: the arithmetic is the
    scalar one, applied elementwise. The cells stay for decoding, messages
    and reports.
    """

    #: the fewest rows (and columns) a matrix of this type may have
    minimum_size: ClassVar[int] = 1

    scale: LinguisticScale
    entries: tuple[tuple[PeakIntervalTerm, ...], ...]
    lower: np.ndarray = field(init=False, repr=False, compare=False)
    upper: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False, repr=False, compare=False)
    scores: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = len(self.entries)
        if size < self.minimum_size:
            raise ShapeError(
                f"a {type(self).__name__} needs at least {self.minimum_size} rows, got {size}"
            )
        for i, row in enumerate(self.entries):
            if len(row) != size:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {size}")
            for term in row:
                if term.scale is not self.scale and term.scale != self.scale:
                    raise ShapeError("all entries must use the matrix's scale")
        fields = np.array(
            [[(c.lower.t, c.lower.k, c.upper.t, c.upper.k, c.p) for c in row] for row in self.entries],
            dtype=float,
        )
        lower = unit_value(self.scale, fields[..., 0], fields[..., 1])
        upper = unit_value(self.scale, fields[..., 2], fields[..., 3])
        arrays = (lower, upper, fields[..., 4].copy(), (lower + upper) / 2.0)
        for name, value in zip(("lower", "upper", "p", "scores"), arrays):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def entry(self, i: int, j: int) -> PeakIntervalTerm:
        return self.entries[i][j]

    def violations(self) -> list:
        """Breaks of rules beyond shape and scale; a plain matrix has none."""
        return []


def peak(evidence: FuzzyIntervalSet, diag: Diagnostics | None = None) -> PeakIntervalTerm:
    """Select the minimum-fd interval; p = 1 - fd.

    Ties on fd resolve to the narrowest unit width, then to the smallest
    unit left endpoint; any tie is recorded as a diagnostic event.
    """
    best_fd = min(iv.fd for iv in evidence.intervals)
    candidates = [iv for iv in evidence.intervals if iv.fd == best_fd]
    if len(candidates) > 1:
        record(diag, "peak_tie", f"{len(candidates)} intervals share fd={best_fd:g}")
    chosen = min(
        candidates,
        key=lambda iv: (iv.unit_upper - iv.unit_lower, iv.unit_lower),
    )
    return PeakIntervalTerm(chosen.scale, chosen.lower, chosen.upper, 1.0 - chosen.fd)


def score(term: PeakIntervalTerm) -> float:
    """Expected unit value of a peak interval: the midpoint (g_l + g_r) / 2."""
    return (term.unit_lower + term.unit_upper) / 2.0


@dataclass(frozen=True)
class ProbabilisticTermSet:
    """Plain probabilistic linguistic evidence: (term, probability) pairs.

    This is the single-valued baseline representation the peak intervals
    improve on; it is kept for the comparison harness and the paradox
    regression tests.
    """

    scale: LinguisticScale
    entries: tuple[tuple[TermCoord, float], ...]

    def __post_init__(self):
        for coord, prob in self.entries:
            to_unit(self.scale, coord)
            if prob < 0.0:
                raise RangeError(f"probability {prob} negative")
        total = math.fsum(prob for _, prob in self.entries)
        if total > 1.0 + 1e-9:
            raise RangeError(f"probabilities sum to {total} > 1")


def plts_score(evidence: ProbabilisticTermSet) -> TermCoord:
    """Probability-weighted mean term.

    The first-hierarchy subscript is the weighted mean subscript; the
    second hierarchy averages the same way, which by linearity of the unit
    transform is exactly the weighted mean in unit space.
    """
    total = math.fsum(prob for _, prob in evidence.entries)
    if total <= 0.0:
        raise EmptyEvidenceError("total probability is zero")
    t = math.fsum(coord.t * prob for coord, prob in evidence.entries) / total
    k = math.fsum(coord.k * prob for coord, prob in evidence.entries) / total
    return TermCoord(t, k)


def evidence_from_pairs(
    scale: LinguisticScale, pairs: Iterable[tuple[TermCoord, TermCoord, float]]
) -> FuzzyIntervalSet:
    """Convenience constructor from (lower, upper, fd) triples."""
    return FuzzyIntervalSet(
        tuple(FuzzyIntervalTerm(scale, lo, hi, fd) for lo, hi, fd in pairs)
    )
