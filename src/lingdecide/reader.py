"""Scenario file to text (``read_text``), text to JSON tree (``_read``), term matrices walked as read.

A walked matrix is the tuple (packed fields, offset of its JSON in the
text), which no JSON value is and ``marshal`` sends as it is. Only a
matrix json's scanner has just read from the text is walked, so the walk
trusts json's types and checks the text, not the leaves. Free of
numpy, so that ``decide`` reads the file before numpy loads and
``lingdecide.overlap`` reads the tree while it does.
"""

import json
import struct

from .errors import ScenarioParseError


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


def _bulk_fields(raw: list, text: str, start: int, end: int) -> bytes | None:
    """The (size, size, 5) fields, as packed doubles, of a matrix json read from ``text[start:end]``.

    The types json gives are trusted, so no cell or leaf is type-checked.
    A bool is the only wrong leaf ``struct.pack`` takes, and JSON spells
    it ``true`` or ``false``; no number, and no key the pass reads, holds
    a ``u`` or an ``s``, so a span holding either is declined. Every other
    wrong cell raises here: a missing key or a cell that is no object, a
    pair of another length, a leaf that is a string, None, a list or an
    int too large for a float. None for a declined matrix, which
    ``cells._read_cells`` reads.
    """
    if text.find("u", start, end) >= 0 or text.find("s", start, end) >= 0:
        return None
    size, flat = len(raw), []
    put = flat.extend
    try:
        for row in raw:
            if len(row) != size:
                return None
            for cell in row:
                if "point" in cell:
                    lo = hi = cell["point"]
                else:
                    lo, hi = cell["interval"]
                if len(lo) != 2 or len(hi) != 2:
                    return None
                put(lo)
                put(hi)
                flat.append(cell["p"])
        return struct.pack(f"{len(flat)}d", *flat)
    except (KeyError, TypeError, ValueError, OverflowError, struct.error):
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
            fields = _bulk_fields(raw, text, at, end) if type(raw) is list else None
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
