"""Scenario file to text (``read_text``), text to JSON tree (``_read``), term matrices walked as read.

A walked matrix is the tuple (packed fields, offset of its JSON in the
text), which no JSON value is and ``marshal`` sends as it is. Free of
numpy, so that ``decide`` reads the file before numpy loads and
``lingdecide.overlap`` reads the tree while it does.
"""

import json
import struct

from .errors import ScenarioParseError

#: the exact types ``json`` decodes numbers to, the only leaves the bulk
#: pass over a term matrix takes
_JSON_NUMBERS = frozenset((int, float))

#: the containers the cell reader takes for an interval or a coordinate
_PAIRS = frozenset((list, tuple))


def read_text(path: str) -> str:
    """The file at ``path`` as UTF-8 text, read once; a parse error that words why it cannot be."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # one read of the whole file, so the offset counts from its first byte
        raise ScenarioParseError(f"{path} is not UTF-8 text: byte {exc.start}: {exc.reason}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL character in the path
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc


def _bulk_fields(raw: list, size: int) -> bytes | None:
    """The (size, size, 5) fields of a matrix whose cells all read cleanly, as packed doubles.

    One walk over the rows with exact container types collects every
    cell's (t_lo, k_lo, t_hi, k_hi, p) into one flat list; one type check
    over its leaves and one conversion make the bytes. None when any cell
    needs ``cells._read_cell``: a row or cell of another shape or type, a leaf
    that is no JSON number (a bool, None, or a term literal), or a number
    too large for a float.
    """
    flat = []
    put = flat.extend
    for row in raw:
        if type(row) is not list or len(row) != size:
            return None
        for cell in row:
            if type(cell) is not dict or "p" not in cell:
                return None
            if "point" in cell:
                lo = hi = cell["point"]
            else:
                interval = cell.get("interval")
                if type(interval) not in _PAIRS or len(interval) != 2:
                    return None
                lo, hi = interval
            if type(lo) not in _PAIRS or len(lo) != 2 or type(hi) not in _PAIRS or len(hi) != 2:
                return None
            put(lo)
            put(hi)
            flat.append(cell["p"])
    if not set(map(type, flat)) <= _JSON_NUMBERS:
        return None
    try:
        return struct.pack(f"{len(flat)}d", *flat)
    except (OverflowError, struct.error):
        return None


#: where a scenario's term matrices sit: each object on the way by member
#: name, None for every member, down to True at a matrix
_MATRIX_WAYS = {"preferences": {None: {None: True}}, "markov": {"assessments": {None: True}}}


def _read(text: str):
    """``json.loads(text)``, but with every term matrix walked as soon as it is read.

    The objects on the way to a matrix (``_MATRIX_WAYS``) are read here,
    member by member; json's C scanner reads every other value, each matrix
    on its own, which is walked at once: ``_bulk_fields`` packs its fields
    and the matrix's place holds (fields, offset of its JSON in ``text``),
    or its JSON where that pass declines it. Its cells are freed while
    still in cache, and the whole tree is never held. Where this
    reading fails, ``json.loads`` reads the text once more, so json alone
    decides what is accepted and words every parse error.
    """
    scan, space = json.decoder.JSONDecoder().scan_once, json.decoder.WHITESPACE.match

    def read(at, way):
        """The value at index ``at`` and the index past it."""
        if way is True:
            raw, end = scan(text, at)
            fields = _bulk_fields(raw, len(raw)) if type(raw) is list else None
            return (raw if fields is None else (fields, at)), end
        if not way or text[at] != "{":
            return scan(text, at)
        obj, at = {}, space(text, at + 1).end()
        more = text[at] != "}"
        while more:
            key, end = scan(text, at)
            colon = space(text, end).end()
            if text[at] + text[colon] != '":':
                raise ValueError("no object member")
            obj[key], at = read(space(text, colon + 1).end(), way.get(key, way.get(None)))
            at = space(text, at).end()
            more = text[at] == ","
            at = space(text, at + 1).end() if more else at
        if text[at] != "}":
            raise ValueError("no object end")
        return obj, at + 1

    try:
        data, end = read(space(text).end(), _MATRIX_WAYS)
        if space(text, end).end() == len(text):
            return data
    except (ValueError, IndexError, StopIteration, RecursionError):
        pass
    return json.loads(text)
