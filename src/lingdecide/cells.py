"""The decoder's cell-by-cell reader and fault wording, loaded only for a faulty or declined matrix.

``_read_cells`` reads a matrix ``reader._bulk_fields`` declines, and every
matrix ``scenario_from_dict`` is given as Python containers with no text:
it reads term literals, checks every cell's types and locates the faults
that only those types show.
``_word_faults`` words the faults of every matrix of a stack in the place
the matrix was read, scanning a walked matrix's rows from the scenario
text again only when one of its cells is flagged.
"""

from __future__ import annotations

import json

import numpy as np

from .scale import parse_term
from .scenario import _is_number

#: the fields of a cell that could not be read, and of a coordinate that
#: could not; they lie on every scale, so they draw no fault of their own
_BLANK_CELL = (0.0, 0.0, 0.0, 0.0, 0.0)
_BLANK_COORD = (0.0, 0.0)


def _read_coord(raw) -> tuple[float, float] | str:
    """Subscripts (t, k) of ``[t, k]`` or a term literal, else the fault."""
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        t, k = raw
        if _is_number(t) and _is_number(k):
            try:
                return float(t), float(k)
            except OverflowError as exc:
                return str(exc)
    elif isinstance(raw, str):
        try:
            coord = parse_term(raw)
        except ValueError as exc:
            return str(exc)
        return coord.t, coord.k
    return f"expected [t, k] or a term literal, got {raw!r}"


def _read_cell(raw) -> tuple[tuple[float, ...], dict[int, tuple[str, str]]]:
    """The fields (t_lo, k_lo, t_hi, k_hi, p) of one JSON cell.

    Also returns the faults that only the JSON types show, as
    {slot: (location suffix, message)}: slot -1 when the cell could not be
    read at all, 0 and 1 for a coordinate, 2 for a p too large for a float.
    Whatever could not be read is blank in the fields.
    """
    if not isinstance(raw, dict):
        return _BLANK_CELL, {-1: ("", f"expected an object, got {type(raw).__name__}")}
    if "p" not in raw:
        return _BLANK_CELL, {-1: ("", "missing certainty field 'p'")}
    p = raw["p"]
    if not _is_number(p):
        return _BLANK_CELL, {-1: ("", f"'p' must be a number, got {p!r}")}
    point = "point" in raw
    if point:
        lo = hi = _read_coord(raw["point"])
    elif "interval" in raw:
        interval = raw["interval"]
        if not isinstance(interval, (list, tuple)) or len(interval) != 2:
            return _BLANK_CELL, {-1: (".interval", "expected [LO, HI]")}
        lo, hi = _read_coord(interval[0]), _read_coord(interval[1])
    else:
        return _BLANK_CELL, {-1: ("", "entry needs 'interval' or 'point'")}
    faults = {}
    if type(lo) is str:
        faults[0] = (".point" if point else ".interval[0]", lo)
        lo = _BLANK_COORD
        if point:
            hi = lo
    if type(hi) is str:
        faults[1] = (".interval[1]", hi)
        hi = _BLANK_COORD
    try:
        p = float(p)
    except OverflowError as exc:
        faults[2] = ("", str(exc))
        p = 0.0
    return (*lo, *hi, p), faults


def _read_cells(
    raw: list, size: int
) -> tuple[np.ndarray, dict[tuple[int, int], dict[int, tuple[str, str]]]]:
    """The fields array of a matrix read cell by cell, with the JSON-type faults.

    Faults are keyed by (row, column), column -1 for a row of the wrong
    shape, and hold ``_read_cell``'s slots; what could not be read is
    blank in the array.
    """
    values = []
    faults: dict[tuple[int, int], dict[int, tuple[str, str]]] = {}
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != size:
            faults[i, -1] = {-1: ("", f"expected {size} entries")}
            values += _BLANK_CELL * size
            continue
        for j, cell in enumerate(row):
            value, found = _read_cell(cell)
            values += value
            if found:
                faults[i, j] = found
    return np.array(values, dtype=float).reshape(size, size, 5), faults


def _word_faults(read: list[tuple], flagged: list[tuple], text: str | None) -> set[int]:
    """Collect the faults of a stack's cells; the indices of the matrices that have any.

    ``read`` holds each matrix's ``(rows, faults, where, collector)``:
    ``rows`` its JSON rows or, for a matrix ``reader._read`` walked, their
    offset in ``text``; ``faults`` what ``_read_cells`` found. ``flagged``
    holds the stack's ``terms.field_faults``. Each matrix reports its
    faults in its own collector, and a cell reports its faults in the order
    a cell built on its own checks them: the cell's form, its coordinates,
    then its endpoint order or p. Only a flagged cell's JSON is looked at,
    to tell a point from an interval.
    """
    faults = [found for _, found, _, _ in read]
    rows = [source for source, _, _, _ in read]
    for r, i, j, slot, message in flagged:
        if type(rows[r]) is int:  # walked: scanned from the text at its first flagged cell
            rows[r] = json.decoder.JSONDecoder().scan_once(text, rows[r])[0]
        point = "point" in rows[r][i][j]
        if slot == 1 and point:
            continue
        suffix = "" if slot == 2 else ".point" if point else f".interval[{slot}]"
        faults[r].setdefault((i, j), {}).setdefault(slot, (suffix, message))
    for (_, _, where, col), found in zip(read, faults):
        for (i, j), slots in sorted(found.items()):
            here = f"{where}[{i}]" if j < 0 else f"{where}[{i}][{j}]"
            shown = [slots[s] for s in (-1, 0, 1) if s in slots] or [slots[2]]
            for suffix, message in shown:
                col.add(here + suffix, message)
    return {r for r, found in enumerate(faults) if found}
