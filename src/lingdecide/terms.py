"""Fuzzy linguistic interval terms and their peak intervals.

Evidence arrives as linguistic intervals [lower, upper] on a
double-hierarchy scale, each carrying a fuzzy degree fd (how much of the
assessment stays unexplained). The peak of a set of such intervals is the
interval with the smallest fd; its certainty is p = 1 - fd. A peak
interval scores as its unit midpoint (g_l + g_r) / 2.

Both kinds of matrix evidence, preference relations and Markov
assessments, are square ``TermMatrix`` grids of peak intervals. A
matrix is held as one array of subscripts and certainties, from which
it derives the unit arrays the numerics run on. ``field_faults`` states
a cell's rules once, on arrays: a lone cell checks itself with it on its
own fields, and a matrix built from cells or fields goes through one
checked build (``TermMatrix.from_fields``). Both work on a stack of
matrices as on one, so a decoder checks and derives many matrices in one
pass and hands out each as a read-only view of the stack
(``TermMatrix.stack``).
"""

from __future__ import annotations

import math
import numbers
from typing import ClassVar, Iterable

import numpy as np

from . import records
from .diagnostics import Diagnostics, record
from .errors import EmptyEvidenceError, RangeError, ShapeError
from .scale import (
    LinguisticScale,
    TermCoord,
    coord_fault,
    from_unit,
    off_scale,
    to_unit,
    unit_value,
)

_TOL = 1e-12


@records.record(frozen=True)
class LinguisticInterval:
    """A linguistic interval [lower, upper] whose endpoints are in unit order."""

    scale: LinguisticScale
    lower: TermCoord
    upper: TermCoord

    def __post_init__(self):
        _check_cell(self.scale, self.lower, self.upper, 1.0)

    @property
    def unit_lower(self) -> float:
        return unit_value(self.scale, self.lower.t, self.lower.k)

    @property
    def unit_upper(self) -> float:
        return unit_value(self.scale, self.upper.t, self.upper.k)


@records.record(frozen=True)
class FuzzyIntervalTerm(LinguisticInterval):
    """One linguistic interval with its fuzzy degree fd in [0, 1]."""

    fd: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.fd <= 1.0):
            raise RangeError(f"fuzzy degree fd={self.fd} outside [0, 1]")


@records.record(frozen=True)
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


@records.record(frozen=True)
class PeakIntervalTerm(LinguisticInterval):
    """The minimum-fd interval of an assessment, with certainty p = 1 - fd."""

    p: float

    def __post_init__(self):
        _check_cell(self.scale, self.lower, self.upper, self.p)

    @classmethod
    def from_units(
        cls, scale: LinguisticScale, gl: float, gr: float, p: float
    ) -> "PeakIntervalTerm":
        return cls(scale, from_unit(scale, gl), from_unit(scale, gr), p)


#: the arrays a term matrix holds, in the order ``unit_arrays`` gives them
_ARRAYS = ("fields", "lower", "upper", "p", "scores")


def unit_arrays(scale: LinguisticScale, fields: np.ndarray) -> tuple[np.ndarray, ...]:
    """``fields`` and the unit arrays derived from it, all made read-only.

    ``fields`` is a (..., size, size, 5) array of t_lo, k_lo, t_hi, k_hi,
    p per cell, one matrix or a stack of them; it is frozen in place. The
    derived arrays are the endpoints ``lower`` and ``upper``, the
    certainties ``p`` and the midpoint scores ``scores``, each of shape
    (..., size, size). Cells that break a rule give meaningless entries
    but no floating-point warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        lower = unit_value(scale, fields[..., 0], fields[..., 1])
        upper = unit_value(scale, fields[..., 2], fields[..., 3])
        arrays = (fields, lower, upper, fields[..., 4].copy(), (lower + upper) / 2.0)
    for value in arrays:
        value.setflags(write=False)
    return arrays


class TermMatrix:
    """Square matrix of peak intervals over one scale, held as arrays.

    The matrix keeps one read-only (size, size, 5) float array ``fields``:
    per cell the lower coordinate (t, k), the upper coordinate (t, k) and
    the certainty p. From it the matrix derives the read-only unit arrays
    the numerics run on: endpoints ``lower`` and ``upper``, certainties
    ``p`` and midpoint scores ``scores``. Each array entry equals its
    cell's ``unit_lower``, ``unit_upper``, ``p`` or ``score`` exactly: the
    arithmetic is the scalar one, applied elementwise. The arrays may be
    views of a stack shared with other matrices (``stack``).
    """

    #: the fewest rows (and columns) a matrix of this type may have
    minimum_size: ClassVar[int] = 1

    def __init__(self, scale: LinguisticScale, cells):
        """A matrix from rows of ``PeakIntervalTerm`` cells on ``scale``.

        The cells' fields are built and checked as ``from_fields`` does.
        """
        rows = tuple(tuple(row) for row in cells)
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise ShapeError(f"row {i} has {len(row)} entries, expected {len(rows)}")
            if any(cell.scale != scale for cell in row):
                raise ShapeError("all entries must use the matrix's scale")
        fields = [[(c.lower.t, c.lower.k, c.upper.t, c.upper.k, c.p) for c in row] for row in rows]
        built = self.from_fields(scale, np.reshape(fields, (len(rows), len(rows), 5)))
        self.__dict__.update(vars(built))

    @classmethod
    def from_fields(cls, scale: LinguisticScale, fields) -> "TermMatrix":
        """A matrix from a (size, size, 5) array of t_lo, k_lo, t_hi, k_hi, p.

        The array is copied. A cell that breaks a peak-interval rule
        raises ``RangeError`` with the first of ``field_faults``.
        """
        fields = np.array(fields, dtype=float)
        if fields.ndim != 3 or fields.shape[0] != fields.shape[1] or fields.shape[2] != 5:
            raise ShapeError(f"fields need shape (size, size, 5), got {fields.shape}")
        if len(fields) < cls.minimum_size:
            raise ShapeError(
                f"a {cls.__name__} needs at least {cls.minimum_size} rows, got {len(fields)}"
            )
        arrays = unit_arrays(scale, fields)
        faults = field_faults(scale, *arrays[:3])
        if faults:
            i, j, _, message = faults[0]
            raise RangeError(f"cell ({i}, {j}): {message}")
        matrix = cls.__new__(cls)
        matrix._hold(scale, arrays)
        return matrix

    @classmethod
    def stack(
        cls, scale: LinguisticScale, arrays: tuple[np.ndarray, ...], indices: Iterable[int]
    ) -> list["TermMatrix"]:
        """Matrices that are read-only views of a stack of ``unit_arrays``.

        ``arrays`` are ``unit_arrays`` of an (R, size, size, 5) fields
        stack; matrix r of the result views entry ``indices[r]`` of each.
        The caller has checked those entries' cells (``field_faults``).
        """
        out = []
        for r in indices:
            matrix = cls.__new__(cls)
            matrix._hold(scale, [a[r] for a in arrays])
            out.append(matrix)
        return out

    def _hold(self, scale: LinguisticScale, arrays) -> None:
        object.__setattr__(self, "scale", scale)
        for name, value in zip(_ARRAYS, arrays):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        # copies and unpickled matrices go through from_fields: read-only
        # again, and owning their arrays rather than viewing a stack
        return type(self).from_fields, (self.scale, self.fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.fields, other.fields)

    def __hash__(self):
        return hash((self.scale, self.fields.shape))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scale={self.scale!r}, size={len(self.fields)})"

    @classmethod
    def stack_violations(
        cls, lower: np.ndarray, upper: np.ndarray, p: np.ndarray
    ) -> dict[int, list]:
        """Breaks of the type's own rules, beyond shape and cells, per matrix.

        Takes the (R, size, size) unit arrays of a stack and maps the
        index of each matrix that breaks a rule to its breaks. A plain
        matrix has no such rule.
        """
        return {}


def field_faults(
    scale: LinguisticScale, fields: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> list[tuple]:
    """Every peak-interval rule the cells of a fields array break.

    ``lower`` and ``upper`` are the array's unit endpoints, as
    ``unit_arrays`` derives them; where a coordinate is off the scale they
    mean nothing. The rules: each coordinate lies on the scale
    (``coord_fault``); then, where both do, the endpoints are in unit
    order and, where they are, p lies in [0, 1]. They are applied to all
    cells of the (..., 5) array at once: one lone cell, one matrix or a
    stack. Each fault is the cell's index followed by ``(slot, message)``:
    ``(slot, message)`` for a lone cell, ``(i, j, slot, message)`` for one
    matrix and ``(r, i, j, slot, message)`` for a stack, slot 0 and 1 for
    the lower and upper coordinate and 2 for the cell's own rules, in
    index order.
    """
    t, k, p = fields[..., 0:4:2], fields[..., 1:4:2], fields[..., 4]
    with np.errstate(invalid="ignore"):
        off = np.stack(
            [
                off_scale(scale, t[..., 0], k[..., 0], lower),
                off_scale(scale, t[..., 1], k[..., 1], upper),
            ],
            axis=-1,
        )
        on_scale = ~off.any(axis=-1)
        reversed_ = on_scale & (lower > upper + _TOL)
        uncertain = on_scale & ~reversed_ & ~((p >= 0.0) & (p <= 1.0))
    if not (off.any() or reversed_.any() or uncertain.any()):
        return []
    faults = [
        (*at, coord_fault(scale, t[tuple(at)].item(), k[tuple(at)].item()))
        for at in np.argwhere(off).tolist()
    ]
    faults += [
        (*at, 2, f"interval endpoints out of order: unit {lower[tuple(at)].item()} > "
         f"{upper[tuple(at)].item()}")
        for at in np.argwhere(reversed_).tolist()
    ]
    faults += [
        (*at, 2, f"certainty p={p[tuple(at)].item()} outside [0, 1]")
        for at in np.argwhere(uncertain).tolist()
    ]
    return sorted(faults)


def _check_cell(scale: LinguisticScale, lower: TermCoord, upper: TermCoord, p: float) -> None:
    """Raise ``RangeError`` with the first rule of ``field_faults`` a lone cell breaks.

    A field that is no real number raises ``TypeError``.
    """
    values = (lower.t, lower.k, upper.t, upper.k, p)
    for value in values:
        # the array would take a numeric string, or None as nan
        if not isinstance(value, numbers.Real):
            raise TypeError(f"must be real number, not {type(value).__name__}")
    fields = np.array(values, dtype=float)
    faults = field_faults(scale, *unit_arrays(scale, fields)[:3])
    if faults:
        raise RangeError(faults[0][-1])


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


@records.record(frozen=True)
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
