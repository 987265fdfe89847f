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
printed labels are meaningful). This module holds the scale record, the
transform and term literals; which coordinates lie on a scale is one of a
cell's rules, stated with the others in ``terms.field_faults``.
"""

from __future__ import annotations

import re

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
            if not (isinstance(half, int) and not isinstance(half, bool) and half >= 1):
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


def unit_value(scale: LinguisticScale, t, k):
    """The unit transform of subscripts t and k, scalars or numpy arrays.

    No range check. The bounds of a coordinate live in ``terms.field_faults``:
    ``paper.to_unit`` checks its one coordinate with them first, and the
    array callers check what they hold when it is decoded or built.
    """
    return (k + (scale.tau + t) * scale.zeta) / (2.0 * scale.zeta * scale.tau)


_TERM_RE = re.compile(r"^s(-?\d+(?:\.\d+)?)\(o(-?\d+(?:\.\d+)?)\)$")


def parse_term(text: str) -> TermCoord:
    """Parse a ``s<t>(o<k>)`` literal; signed decimal subscripts allowed."""
    m = _TERM_RE.match(text.strip())
    if not m:
        raise RangeError(f"not a term literal: {text!r}")
    return TermCoord(float(m.group(1)), float(m.group(2)))
