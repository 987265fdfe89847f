"""Fuzzy linguistic interval terms and their peak-interval algebra.

Evidence arrives as linguistic intervals [lower, upper] on a
double-hierarchy scale, each carrying a fuzzy degree fd (how much of the
assessment stays unexplained). The peak of a set of such intervals is the
interval with the smallest fd; its certainty is p = 1 - fd.

A peak interval is modelled by a normal density whose mean is the unit
midpoint and whose standard deviation spreads the interval over six sigma:

    mu = (g_l + g_r) / 2,    sigma = (g_r - g_l) / 6

so the interval carries 99.73% of the mass. Addition, fusion and scalar
multiplication below are the closed forms of that model; certainty
propagates through binary operations as the minimum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
from scipy.integrate import quad

from .diagnostics import Diagnostics, record
from .errors import (
    DegenerateFusionError,
    EmptyEvidenceError,
    EvaluationError,
    RangeError,
    ShapeError,
)
from .scale import LinguisticScale, TermCoord, from_unit, to_unit, unit_value

_TOL = 1e-12


@dataclass(frozen=True)
class FuzzyIntervalTerm:
    """One linguistic interval with its fuzzy degree fd in [0, 1]."""

    scale: LinguisticScale
    lower: TermCoord
    upper: TermCoord
    fd: float

    def __post_init__(self):
        gl = to_unit(self.scale, self.lower)
        gr = to_unit(self.scale, self.upper)
        if gl > gr + _TOL:
            raise RangeError(f"interval endpoints out of order: unit {gl} > {gr}")
        if not (0.0 <= self.fd <= 1.0):
            raise RangeError(f"fuzzy degree fd={self.fd} outside [0, 1]")

    @property
    def unit_lower(self) -> float:
        return to_unit(self.scale, self.lower)

    @property
    def unit_upper(self) -> float:
        return to_unit(self.scale, self.upper)


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
class PeakIntervalTerm:
    """The minimum-fd interval of an assessment, with certainty p = 1 - fd.

    ``clamped`` flags that an arithmetic result was cut back to the unit
    interval; it is metadata and does not take part in equality.
    """

    scale: LinguisticScale
    lower: TermCoord
    upper: TermCoord
    p: float
    clamped: bool = field(default=False, compare=False)

    def __post_init__(self):
        gl = to_unit(self.scale, self.lower)
        gr = to_unit(self.scale, self.upper)
        if gl > gr + _TOL:
            raise RangeError(f"interval endpoints out of order: unit {gl} > {gr}")
        if not (0.0 <= self.p <= 1.0):
            raise RangeError(f"certainty p={self.p} outside [0, 1]")

    @property
    def unit_lower(self) -> float:
        return to_unit(self.scale, self.lower)

    @property
    def unit_upper(self) -> float:
        return to_unit(self.scale, self.upper)

    @classmethod
    def from_units(
        cls, scale: LinguisticScale, gl: float, gr: float, p: float, clamped: bool = False
    ) -> "PeakIntervalTerm":
        return cls(scale, from_unit(scale, gl), from_unit(scale, gr), p, clamped)

    @classmethod
    def point(cls, scale: LinguisticScale, coord: TermCoord, p: float) -> "PeakIntervalTerm":
        return cls(scale, coord, coord, p)


def unit_arrays(
    scale: LinguisticScale, entries: tuple[tuple[PeakIntervalTerm, ...], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unit lower, unit upper, certainty and score arrays of a term matrix.

    Every cell must use ``scale``. Each array entry equals its cell's
    ``unit_lower``, ``unit_upper``, ``p`` or ``score`` exactly: the
    arithmetic is the scalar one, applied elementwise. The arrays are
    read-only, because the frozen matrices that hold them share them.
    """
    for row in entries:
        for term in row:
            if term.scale is not scale and term.scale != scale:
                raise ShapeError("all entries must use the matrix's scale")
    fields = np.array(
        [[(c.lower.t, c.lower.k, c.upper.t, c.upper.k, c.p) for c in row] for row in entries],
        dtype=float,
    )
    lower = unit_value(scale, fields[..., 0], fields[..., 1])
    upper = unit_value(scale, fields[..., 2], fields[..., 3])
    p = fields[..., 4].copy()
    scores = (lower + upper) / 2.0
    for a in (lower, upper, p, scores):
        a.setflags(write=False)
    return lower, upper, p, scores


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


def linguistic_integral(
    scale: LinguisticScale,
    density: Callable[[float], float],
    a: TermCoord,
    b: TermCoord,
) -> float:
    """Integrate a unit-space density between two linguistic bounds.

    The bounds map through the unit transform; a > b yields the negated
    value. Adaptive quadrature with absolute tolerance 1e-9.
    """
    ga = to_unit(scale, a)
    gb = to_unit(scale, b)

    def checked(x: float) -> float:
        v = density(x)
        if not math.isfinite(v):
            raise EvaluationError(f"density returned non-finite value {v!r} at x={x}")
        return v

    value, _ = quad(checked, ga, gb, epsabs=1e-9, limit=200)
    if not math.isfinite(value):
        raise EvaluationError("quadrature did not converge to a finite value")
    return value


@dataclass(frozen=True)
class NormalPeakModel:
    """Normal density summarising a peak interval in unit space."""

    mu: float
    sigma: float

    def density(self, x: float) -> float:
        if self.sigma <= 0.0:
            raise EvaluationError("a point interval has no density")
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))


def peak_model(term: PeakIntervalTerm) -> NormalPeakModel:
    gl, gr = term.unit_lower, term.unit_upper
    return NormalPeakModel(mu=(gl + gr) / 2.0, sigma=(gr - gl) / 6.0)


def score(term: PeakIntervalTerm, density: Callable[[float], float] | None = None) -> float:
    """Expected unit value of a peak interval.

    Under the default normal model this is exactly the midpoint
    (g_l + g_r) / 2. With an explicit density it is the literal integral
    of x * f(x) over the interval, unnormalised.
    """
    if density is None:
        return (term.unit_lower + term.unit_upper) / 2.0
    return linguistic_integral(
        term.scale, lambda x: x * density(x), term.lower, term.upper
    )


def expectation_term(term: PeakIntervalTerm) -> TermCoord:
    """The linguistic term sitting at the score."""
    return from_unit(term.scale, score(term))


def sigma(term: PeakIntervalTerm) -> float:
    """Unit-space standard deviation (g_r - g_l) / 6; zero for points."""
    return (term.unit_upper - term.unit_lower) / 6.0


def linguistic_sigma(term: PeakIntervalTerm) -> TermCoord:
    """The deviation presented as a term: from_unit(sigma + 1/2)."""
    return from_unit(term.scale, sigma(term) + 0.5)


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def compare(a: PeakIntervalTerm, b: PeakIntervalTerm) -> Ordering:
    """Order by score; equal scores fall back to smaller sigma winning."""
    sa, sb = score(a), score(b)
    if sa < sb:
        return Ordering.LESS
    if sa > sb:
        return Ordering.GREATER
    da, db = sigma(a), sigma(b)
    if da < db:
        return Ordering.GREATER
    if da > db:
        return Ordering.LESS
    return Ordering.EQUAL


def interval_add(
    a: PeakIntervalTerm, b: PeakIntervalTerm, diag: Diagnostics | None = None
) -> PeakIntervalTerm:
    """Sum of two independent peak intervals under the normal model.

    Means add, variances add; the six-sigma interval is rebuilt around the
    summed model and cut back to [0, 1] if it overflows (flagged).
    Certainty propagates as min(p_a, p_b).
    """
    mu = score(a) + score(b)
    sd = math.hypot(sigma(a), sigma(b))
    lo, hi = mu - 3.0 * sd, mu + 3.0 * sd
    clamped = lo < -_TOL or hi > 1.0 + _TOL
    if clamped:
        record(diag, "clamp", f"sum interval [{lo:.6g}, {hi:.6g}] clamped to [0, 1]")
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, 0.0), 1.0)
    return PeakIntervalTerm.from_units(
        a.scale, lo, hi, min(a.p, b.p), clamped=clamped
    )


def interval_fuse(a: PeakIntervalTerm, b: PeakIntervalTerm) -> PeakIntervalTerm:
    """Precision-weighted fusion of two assessments of the same quantity.

    mu = (mu1*s2^2 + mu2*s1^2) / (s1^2 + s2^2), var = s1^2*s2^2 / (s1^2+s2^2).
    A point dominates (it has infinite precision); two distinct points are
    contradictory and raise.
    """
    m1, m2 = score(a), score(b)
    s1, s2 = sigma(a), sigma(b)
    if s1 == 0.0 and s2 == 0.0:
        if m1 == m2:
            return PeakIntervalTerm(a.scale, a.lower, a.upper, min(a.p, b.p))
        raise DegenerateFusionError(
            f"cannot fuse contradictory points at units {m1:g} and {m2:g}"
        )
    if s1 == 0.0:
        return PeakIntervalTerm(a.scale, a.lower, a.upper, min(a.p, b.p))
    if s2 == 0.0:
        return PeakIntervalTerm(b.scale, b.lower, b.upper, min(a.p, b.p))
    v1, v2 = s1 * s1, s2 * s2
    mu = (m1 * v2 + m2 * v1) / (v1 + v2)
    sd = math.sqrt(v1 * v2 / (v1 + v2))
    return PeakIntervalTerm.from_units(a.scale, mu - 3.0 * sd, mu + 3.0 * sd, min(a.p, b.p))


def interval_scale(lam: float, a: PeakIntervalTerm) -> PeakIntervalTerm:
    """Scalar multiple: (lam*mu, lam*sigma); certainty unchanged."""
    if not (0.0 <= lam <= 1.0):
        raise RangeError(f"lambda={lam} outside [0, 1]")
    mu = lam * score(a)
    sd = lam * sigma(a)
    return PeakIntervalTerm.from_units(a.scale, mu - 3.0 * sd, mu + 3.0 * sd, a.p)


@dataclass(frozen=True)
class ProbabilisticTermSet:
    """Plain probabilistic linguistic evidence: (term, probability) pairs.

    This is the single-valued baseline representation the interval algebra
    improves on; it is kept for the comparison harness and the paradox
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


def plts_deviation(evidence: ProbabilisticTermSet) -> float:
    """Root-mean deviation of the subscripts about the mean subscript.

    Subscripts of double-hierarchy entries enter as their continuous
    first-hierarchy equivalent r = 2*tau*gamma - tau.
    """
    total = math.fsum(prob for _, prob in evidence.entries)
    if total <= 0.0:
        raise EmptyEvidenceError("total probability is zero")
    tau = evidence.scale.tau
    rs = [2.0 * tau * to_unit(evidence.scale, coord) - tau for coord, _ in evidence.entries]
    mean = math.fsum(r * prob for r, (_, prob) in zip(rs, evidence.entries)) / total
    sq = math.fsum((prob * (r - mean)) ** 2 for r, (_, prob) in zip(rs, evidence.entries))
    return math.sqrt(sq / total)


def evidence_from_pairs(
    scale: LinguisticScale, pairs: Iterable[tuple[TermCoord, TermCoord, float]]
) -> FuzzyIntervalSet:
    """Convenience constructor from (lower, upper, fd) triples."""
    return FuzzyIntervalSet(
        tuple(FuzzyIntervalTerm(scale, lo, hi, fd) for lo, hi, fd in pairs)
    )
