"""Double-hierarchy linguistic scale and the unit-interval transform.

A scale has 2*tau+1 first-hierarchy terms s_t and 2*zeta+1 second-hierarchy
modifiers o_k. A coordinate pair (t, k) maps to the unit interval through

    gamma = (k + (tau + t) * zeta) / (2 * zeta * tau)

which is strictly increasing in both coordinates. The inverse
``paper.from_unit`` uses the canonical floor branch, so every gamma in
[0, 1] has one representative; gamma = 1 resolves to (tau, 0) because
the floor branch would leave the second coordinate at its upper edge.

Internally everything downstream computes on unit values; (t, k) is a
presentation form. Subscripts are continuous (virtual terms between the
printed labels are meaningful).
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import records
from .errors import RangeError

#: tolerance used when checking coordinates against scale bounds
_EDGE = 1e-12


@records.record(frozen=True)
class LinguisticScale:
    """Symmetric double-hierarchy scale with tau and zeta granularity."""

    tau: int
    zeta: int
    first_labels: tuple[str, ...] | None = None
    second_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        for name, half in (("tau", self.tau), ("zeta", self.zeta)):
            if not (isinstance(half, int) and half >= 1):
                raise RangeError(f"{name} must be an integer >= 1, got {half!r}")
        for name, half in (("first_labels", self.tau), ("second_labels", self.zeta)):
            labels = getattr(self, name)
            if labels is not None and len(labels) != 2 * half + 1:
                raise RangeError(f"{name} needs {2 * half + 1} entries, got {len(labels)}")


@records.record(frozen=True)
class TermCoord:
    """A (t, k) coordinate on some scale; subscripts may be fractional."""

    t: float
    k: float


def coord_fault(scale: LinguisticScale, t: float, k: float) -> str | None:
    """The first rule the coordinate (t, k) breaks, as a message; None if none.

    Both subscripts must be finite and lie within tau and zeta, and the unit
    value within [0, 1], each up to a 1e-12 edge. ``off_scale`` applies
    the same rules to arrays.
    """
    if not math.isfinite(t) or abs(t) > scale.tau + _EDGE:
        return f"first-hierarchy subscript t={t} outside [-{scale.tau}, {scale.tau}]"
    if not math.isfinite(k) or abs(k) > scale.zeta + _EDGE:
        return f"second-hierarchy subscript k={k} outside [-{scale.zeta}, {scale.zeta}]"
    gamma = unit_value(scale, t, k)
    if gamma < -_EDGE or gamma > 1.0 + _EDGE:
        return f"coordinate (t={t}, k={k}) has unit value {gamma} outside [0, 1]"
    return None


def off_scale(
    scale: LinguisticScale, t: np.ndarray, k: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Elementwise mask of the coordinates (t, k) that ``coord_fault`` rejects.

    ``gamma`` holds their unit values (``unit_value``), which the caller
    has at hand. Two-sided bounds in place of ``abs`` keep every
    temporary boolean.
    """
    tau, zeta = scale.tau + _EDGE, scale.zeta + _EDGE
    on = (t >= -tau) & (t <= tau)
    on &= (k >= -zeta) & (k <= zeta)
    on &= (gamma >= -_EDGE) & (gamma <= 1.0 + _EDGE)
    return ~on


def unit_value(scale: LinguisticScale, t, k):
    """The unit transform of subscripts t and k, scalars or numpy arrays.

    No range check: ``paper.to_unit`` checks a single coordinate first, and the
    array callers hold coordinates that were checked when decoded or built.
    """
    return (k + (scale.tau + t) * scale.zeta) / (2.0 * scale.zeta * scale.tau)


_TERM_RE = re.compile(r"^s(-?\d+(?:\.\d+)?)\(o(-?\d+(?:\.\d+)?)\)$")


def parse_term(text: str) -> TermCoord:
    """Parse a ``s<t>(o<k>)`` literal; signed decimal subscripts allowed."""
    m = _TERM_RE.match(text.strip())
    if not m:
        raise RangeError(f"not a term literal: {text!r}")
    return TermCoord(float(m.group(1)), float(m.group(2)))
