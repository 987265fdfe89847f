"""Term matrices: square grids of peak intervals over one scale.

Both kinds of matrix evidence, preference relations and Markov
assessments, are square ``TermMatrix`` grids of peak intervals: per cell
a linguistic interval [lower, upper] and its certainty p. A matrix is
held as one array of subscripts and certainties, from which it derives
the unit arrays the numerics run on. ``field_faults`` states a cell's
rules once, on arrays, the bounds of its coordinates on the scale
included: a lone cell or coordinate checks itself with it on its own
fields, and a matrix built from cells or fields goes through one checked
build (``TermMatrix.from_fields``). Both work on a stack of matrices as
on one, so a decoder checks and derives many matrices in one pass and
hands out each as a read-only view of the stack (``TermMatrix.stack``).

The one-object evidence records and peak selection live in ``lingdecide.paper``.
"""

from __future__ import annotations

from typing import ClassVar, Iterable

import numpy as np

from .errors import RangeError, ShapeError
from .scale import _EDGE, LinguisticScale, unit_value

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
    mean nothing. The rules: each coordinate lies on the scale, its
    subscripts t within tau and k within zeta and its unit value within
    [0, 1], each up to a 1e-12 edge and a NaN failing; then, where both
    do, the endpoints are in unit order and, where they are, p lies in
    [0, 1]. An off-scale coordinate is worded by the first bound it breaks.
    The rules are applied to all cells of the (..., 5) array at once: one
    lone cell, one matrix or a stack. Each fault is the cell's index
    followed by ``(slot, message)``: ``(slot, message)`` for a lone cell,
    ``(i, j, slot, message)`` for one matrix and ``(r, i, j, slot,
    message)`` for a stack, slot 0 and 1 for the lower and upper coordinate
    and 2 for the cell's own rules, in index order.
    """
    # side first, so that each bound runs over the cells of one endpoint
    ends = np.moveaxis(fields[..., :4], -1, 0)
    t, k, p = ends[0::2], ends[1::2], fields[..., 4]
    tau, zeta = scale.tau + _EDGE, scale.zeta + _EDGE
    with np.errstate(invalid="ignore"):
        # the bounds a coordinate keeps, two-sided so that a NaN breaks them
        t_in = (t >= -tau) & (t <= tau)
        k_in = (k >= -zeta) & (k <= zeta)
        unit_in = np.stack([(g >= -_EDGE) & (g <= 1.0 + _EDGE) for g in (lower, upper)])
        on = t_in & k_in & unit_in
        on_scale = on[0] & on[1]
        reversed_ = on_scale & (lower > upper + _EDGE)
        uncertain = on_scale & ~reversed_ & ~((p >= 0.0) & (p <= 1.0))
    if on.all() and not (reversed_.any() or uncertain.any()):
        return []
    faults = []
    for side, *at in np.argwhere(~on).tolist():
        end = (side, *at)
        ti, ki = t[end].item(), k[end].item()
        if not t_in[end]:
            message = f"first-hierarchy subscript t={ti} outside [-{scale.tau}, {scale.tau}]"
        elif not k_in[end]:
            message = f"second-hierarchy subscript k={ki} outside [-{scale.zeta}, {scale.zeta}]"
        else:
            gamma = (lower, upper)[side][tuple(at)].item()
            message = f"coordinate (t={ti}, k={ki}) has unit value {gamma} outside [0, 1]"
        faults.append((*at, side, message))
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
