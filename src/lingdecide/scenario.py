"""Scenario files: the full decision problem as versioned JSON.

A scenario bundles the scale, attribute and alternative names, experts
with trust degrees, blend coefficients, the Markov block (assessments,
periods, iterations, origin, optional reshape updates), per-attribute
preference relations, and optional stage overrides. Loading collects
every violation with its location instead of stopping at the first.

Peak intervals are encoded as ``{"interval": [LO, HI], "p": x}`` or
``{"point": C, "p": x}`` where each coordinate is either a two-element
``[t, k]`` array or a term literal string such as ``"s-2(o1)"``.
"""

from __future__ import annotations

import gc
import json

import numpy as np

from . import records
from .errors import ScenarioParseError, ScenarioValidationError
from .markov import LinguisticMarkovAssessment, check_transition_matrix
from .prefs import PreferenceRelation
from .scale import LinguisticScale, parse_term
from .terms import TermMatrix, field_faults, unit_arrays

FORMAT_VERSION = 1

#: the largest ``markov.periods`` and ``markov.iterations`` a scenario may
#: set; the period weights take about periods * (iterations + periods)
#: vector-matrix products
MAX_MARKOV_STEPS = 1000

#: the largest ``scale.tau`` and ``scale.zeta`` a scenario may set; the
#: default labels are 2 * tau + 1 and 2 * zeta + 1 strings
MAX_SCALE_HALF_WIDTH = 1000


@records.record(frozen=True)
class MarkovSpec:
    """The Markov block of a scenario: horizon, scheme and transition assessments."""

    periods: int
    iterations: int
    origin: int
    scheme: str
    origin_updates: tuple[float, ...] | None
    assessments: tuple[LinguisticMarkovAssessment, ...] | None


@records.record(frozen=True)
class Overrides:
    """Stage results given in the scenario, each replacing the stage that computes it."""

    transition_matrix: np.ndarray | None = None
    period_weights: np.ndarray | None = None
    priority_vectors: dict[str, np.ndarray] = records.factory(dict)
    expert_weight_vectors: dict[str, np.ndarray] = records.factory(dict)


@records.record(frozen=True)
class Scenario:
    """A whole decision problem: scale, names, experts, blend, Markov block, preferences."""

    scale: LinguisticScale
    attributes: tuple[str, ...]
    alternatives: tuple[str, ...]
    experts: tuple[str, ...]
    trust: tuple[float, ...]
    alpha: float
    beta: float
    gamma: float
    markov: MarkovSpec
    preferences: dict[str, tuple[PreferenceRelation, ...]]
    overrides: Overrides


class _Collector:
    """Violations in the order they are found, or in a place kept for them."""

    def __init__(self):
        self._found: list[str | _Collector] = []

    def add(self, where: str, message: str):
        self._found.append(f"{where}: {message}")

    def later(self) -> "_Collector":
        """A collector whose violations take this place, however late they come."""
        part = _Collector()
        self._found.append(part)
        return part

    @property
    def violations(self) -> list[str]:
        out: list[str] = []
        for item in self._found:
            if isinstance(item, _Collector):
                out += item.violations
            else:
                out.append(item)
        return out

    def raise_if_any(self):
        violations = self.violations
        if violations:
            raise ScenarioValidationError(violations)


def _expect_mapping(data, where: str, col: _Collector) -> dict | None:
    if not isinstance(data, dict):
        col.add(where, f"expected an object, got {type(data).__name__}")
        return None
    return data


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


#: the exact types ``json`` decodes numbers to, the only leaves the bulk
#: pass over a term matrix takes
_JSON_NUMBERS = frozenset((int, float))


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


#: the containers the cell reader takes for an interval or a coordinate
_PAIRS = frozenset((list, tuple))


def _bulk_fields(raw: list, size: int) -> np.ndarray | None:
    """The (size, size, 5) fields array of a matrix whose cells all read cleanly.

    One walk over the rows with exact container types collects every
    cell's (t_lo, k_lo, t_hi, k_hi, p) into one flat list; one type check
    over its leaves and one conversion make the array. None when any cell
    needs ``_read_cell``: a row or cell of another shape or type, a leaf
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
        return np.array(flat, dtype=float).reshape(size, size, 5)
    except OverflowError:
        return None


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


class _MatrixStack:
    """Term matrices of one kind and size, read one by one and checked together.

    ``read`` turns each JSON matrix into a (size, size, 5) fields array in
    one of two ways. ``_bulk_fields`` first tries one pass over the whole
    matrix that takes only JSON numbers in exact containers, which is how
    generated and hand-written numeric files spell every cell. When it
    declines, ``_read_cells`` reads cell by cell: it reads term literals
    and keeps the faults only the JSON types show, so it locates every
    such fault. Either way the array goes straight into its place in one
    (R, size, size, 5) stack. ``build`` then, once over the stack, derives
    the unit arrays and checks the numeric rules of all cells
    (``field_faults``) and the kind's own rules (``stack_violations``).
    Only what those passes flag is worded: each matrix reports its faults
    in the place it was read, and a cell reports its faults in the order
    a cell built on its own checks them: the cell's form, its
    coordinates, then its endpoint order or p.
    """

    def __init__(self, kind: type[TermMatrix], scale: LinguisticScale, size: int, capacity: int):
        """A stack for at most ``capacity`` matrices of ``size`` rows."""
        self.kind = kind
        self.scale = scale
        self.size = size
        # each matrix read goes straight into its place, so the stack is
        # never held twice
        self._fields = np.empty((capacity, size, size, 5))
        self._read: list[tuple[list, dict, str, _Collector]] = []

    def read(self, raw, where: str, col: _Collector) -> int | None:
        """Queue one JSON matrix; its place in ``build``'s result.

        None, with the fault collected, when it is not ``size`` rows.
        """
        if not isinstance(raw, list) or len(raw) != self.size:
            col.add(where, f"expected {self.size} rows")
            return None
        fields = _bulk_fields(raw, self.size)
        faults: dict[tuple[int, int], dict[int, tuple[str, str]]] = {}
        if fields is None:
            fields, faults = _read_cells(raw, self.size)
        self._fields[len(self._read)] = fields
        self._read.append((raw, faults, where, col.later()))
        return len(self._read) - 1

    def build(self) -> list[TermMatrix | None]:
        """Every matrix read, as a read-only view of one stack.

        None in place of each matrix with a faulty cell or a broken rule of
        its kind; every fault is collected.
        """
        if not self._read:
            return []
        self._fields.setflags(write=False)
        fields = self._fields[: len(self._read)]
        arrays = unit_arrays(self.scale, fields)
        faults = [found for _, found, _, _ in self._read]
        for r, i, j, slot, message in field_faults(self.scale, *arrays[:3]):
            point = "point" in self._read[r][0][i][j]
            if slot == 1 and point:
                continue
            suffix = "" if slot == 2 else ".point" if point else f".interval[{slot}]"
            faults[r].setdefault((i, j), {}).setdefault(slot, (suffix, message))
        broken = self.kind.stack_violations(*arrays[1:4])
        clean = []
        for r, (_, _, where, col) in enumerate(self._read):
            for (i, j), slots in sorted(faults[r].items()):
                here = f"{where}[{i}]" if j < 0 else f"{where}[{i}][{j}]"
                shown = [slots[s] for s in (-1, 0, 1) if s in slots] or [slots[2]]
                for suffix, message in shown:
                    col.add(here + suffix, message)
            if faults[r]:
                continue
            for v in broken.get(r, ()):
                col.add(where, str(v))
            if r not in broken:
                clean.append(r)
        out: list[TermMatrix | None] = [None] * len(self._read)
        for r, matrix in zip(clean, self.kind.stack(self.scale, arrays, clean)):
            out[r] = matrix
        return out


def _read_expert_matrices(
    stack: _MatrixStack,
    raw,
    experts: tuple[str, ...],
    where: str,
    col: _Collector,
) -> list[int | None] | None:
    """Queue each expert's term matrix under ``where`` on ``stack``.

    Returns their places in the stack, in expert order; None when the
    experts do not match.
    """
    sub = _expect_mapping(raw, where, col)
    if sub is None:
        return None
    missing = [e for e in experts if e not in sub]
    unknown = [e for e in sub if e not in experts]
    if missing:
        col.add(where, f"missing experts {missing}")
    if unknown:
        col.add(where, f"unknown experts {unknown}")
    if missing or unknown:
        return None
    return [stack.read(sub[e], f"{where}.{e}", col) for e in experts]


def _built(places: list[int | None] | None, matrices: list[TermMatrix | None]) -> tuple | None:
    """The matrices at ``places`` of a built stack; None when any is absent."""
    if places is None or None in places:
        return None
    out = tuple(matrices[r] for r in places)
    return None if any(matrix is None for matrix in out) else out


def _numbers_only(raw) -> bool:
    """True when ``raw`` is a number or nested lists of numbers."""
    pending = [raw]
    while pending:
        x = pending.pop()
        if isinstance(x, (list, tuple)):
            pending.extend(x)
        elif not _is_number(x):
            return False
    return True


def _decode_reals(raw, shape: tuple[int, ...], where: str, col: _Collector) -> np.ndarray | None:
    """A finite float array of ``shape``, or None with the fault collected."""
    if not _numbers_only(raw):
        col.add(where, f"expected a numeric {'vector' if len(shape) == 1 else 'matrix'}")
        return None
    try:
        arr = np.asarray(raw, dtype=float)
    except OverflowError:
        col.add(where, "entries must be finite")
        return None
    except (TypeError, ValueError):
        col.add(where, f"expected a numeric {'vector' if len(shape) == 1 else 'matrix'}")
        return None
    if arr.shape != shape:
        col.add(where, f"shape {arr.shape} does not match expected {shape}")
        return None
    if not np.all(np.isfinite(arr)):
        col.add(where, "entries must be finite")
        return None
    return arr


def _decode_scale(data, col: _Collector) -> LinguisticScale | None:
    obj = _expect_mapping(data, "scale", col)
    if obj is None:
        return None
    tau, zeta = obj.get("tau"), obj.get("zeta")
    for name, v in (("tau", tau), ("zeta", zeta)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            col.add(f"scale.{name}", f"must be an integer >= 1, got {v!r}")
            return None
        if v > MAX_SCALE_HALF_WIDTH:
            col.add(f"scale.{name}", f"must be at most {MAX_SCALE_HALF_WIDTH}")
            return None
    labels = []
    for name, prefix, half in (("first_labels", "s", tau), ("second_labels", "o", zeta)):
        raw = obj.get(name)
        if raw is None:
            labels.append(tuple(f"{prefix}{i}" for i in range(-half, half + 1)))
        elif isinstance(raw, list) and all(isinstance(x, str) for x in raw):
            labels.append(tuple(raw))
        else:
            col.add(f"scale.{name}", "expected a list of strings")
    if len(labels) < 2:
        return None
    try:
        return LinguisticScale(tau, zeta, *labels)
    except ValueError as exc:
        col.add("scale", str(exc))
        return None


def _decode_names(data, key: str, minimum: int, col: _Collector) -> tuple[str, ...] | None:
    raw = data.get(key)
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        col.add(key, "expected a list of strings")
        return None
    if len(raw) < minimum:
        col.add(key, f"need at least {minimum} entries, got {len(raw)}")
        return None
    if len(set(raw)) != len(raw):
        col.add(key, "names must be unique")
        return None
    return tuple(raw)


def scenario_from_dict(data: dict) -> Scenario:
    """Build and fully validate a scenario from decoded JSON."""
    col = _Collector()
    if not isinstance(data, dict):
        col.add("$", f"expected a JSON object, got {type(data).__name__}")
        col.raise_if_any()
    if data.get("format") != FORMAT_VERSION:
        col.add("format", f"required field must equal {FORMAT_VERSION}, got {data.get('format')!r}")

    scale = _decode_scale(data.get("scale"), col)
    attributes = _decode_names(data, "attributes", 1, col)
    alternatives = _decode_names(data, "alternatives", 2, col)

    experts_raw = data.get("experts")
    experts: tuple[str, ...] | None = None
    trust: tuple[float, ...] | None = None
    if not isinstance(experts_raw, list) or not experts_raw:
        col.add("experts", "expected a nonempty list of {name, trust} objects")
    else:
        names, psis = [], []
        ok = True
        for idx, item in enumerate(experts_raw):
            obj = _expect_mapping(item, f"experts[{idx}]", col)
            if obj is None:
                ok = False
                continue
            name, psi = obj.get("name"), obj.get("trust")
            if not isinstance(name, str) or not name:
                col.add(f"experts[{idx}].name", "expected a nonempty string")
                ok = False
            if not _is_number(psi) or not 0.0 <= psi <= 1.0:
                col.add(f"experts[{idx}].trust", f"must be a real in [0, 1], got {psi!r}")
                ok = False
            if ok:
                names.append(name)
                psis.append(float(psi))
        if ok and len(set(names)) != len(names):
            col.add("experts", "names must be unique")
            ok = False
        if ok:
            experts, trust = tuple(names), tuple(psis)

    blend = data.get("blend")
    alpha = beta = gamma = 1.0 / 3.0
    if blend is not None:
        obj = _expect_mapping(blend, "blend", col)
        if obj is not None:
            vals = []
            for key in ("alpha", "beta", "gamma"):
                v = obj.get(key)
                if not _is_number(v) or not 0.0 <= v <= 1.0:
                    col.add(f"blend.{key}", f"must be a real in [0, 1], got {v!r}")
                    vals = None
                    break
                vals.append(float(v))
            if vals is not None:
                if abs(sum(vals) - 1.0) > 1e-9:
                    col.add("blend", f"coefficients sum to {sum(vals):.12g}, not 1")
                else:
                    alpha, beta, gamma = vals

    if scale is None or attributes is None or alternatives is None or experts is None:
        col.raise_if_any()

    q, m, n = len(attributes), len(alternatives), len(experts)

    overrides = _decode_overrides(data.get("overrides"), attributes, q, m, n, col)

    markov = _decode_markov(
        data.get("markov"), scale, attributes, experts, q, overrides, col
    )

    if (
        overrides.period_weights is not None
        and markov is not None
        and overrides.period_weights.shape[0] != markov.periods
    ):
        col.add(
            "overrides.period_weights",
            f"{overrides.period_weights.shape[0]} rows but markov.periods is {markov.periods}",
        )

    preferences = _decode_preferences(
        data.get("preferences"), scale, attributes, experts, m, overrides, col
    )
    raw_preferences = data.get("preferences")
    weighed = [a for a in attributes if a in raw_preferences] if isinstance(raw_preferences, dict) else []
    if weighed and n < 2:
        col.add(
            "experts",
            f"preference relations for {weighed} need at least two experts to weigh, "
            f"got {n}; cover those attributes with overrides.priority_vectors instead",
        )
    if weighed and not any(trust):
        col.add(
            "experts",
            f"preference relations for {weighed} cannot be weighed: every trust degree is 0; "
            f"give an expert positive trust or cover those attributes with "
            f"overrides.priority_vectors instead",
        )

    col.raise_if_any()
    return Scenario(
        scale=scale,
        attributes=attributes,
        alternatives=alternatives,
        experts=experts,
        trust=trust,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        markov=markov,
        preferences=preferences,
        overrides=overrides,
    )


def _decode_overrides(
    raw,
    attributes: tuple[str, ...],
    q: int,
    m: int,
    n: int,
    col: _Collector,
) -> Overrides:
    if raw is None:
        return Overrides()
    obj = _expect_mapping(raw, "overrides", col)
    if obj is None:
        return Overrides()
    transition = None
    if "transition_matrix" in obj:
        transition = _decode_reals(
            obj["transition_matrix"], (q, q), "overrides.transition_matrix", col
        )
        if transition is not None:
            for problem in check_transition_matrix(transition):
                col.add("overrides.transition_matrix", problem)
    period = None
    if "period_weights" in obj:
        arr = obj["period_weights"]
        if not isinstance(arr, list) or not arr:
            col.add("overrides.period_weights", "expected a nonempty list of period rows")
        else:
            period = _decode_reals(arr, (len(arr), q), "overrides.period_weights", col)
            if period is not None and (np.any(period < -1e-9) or np.any(period > 1.0 + 1e-9)):
                col.add("overrides.period_weights", "entries must lie in [0, 1]")
                period = None

    def vectors(key: str, length: int) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        if key not in obj:
            return out
        sub = _expect_mapping(obj[key], f"overrides.{key}", col)
        if sub is None:
            return out
        for name, vec in sub.items():
            where = f"overrides.{key}.{name}"
            if name not in attributes:
                col.add(where, "unknown attribute")
                continue
            arr = _decode_reals(vec, (length,), where, col)
            if arr is not None and (np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9)):
                col.add(where, "entries must lie in [0, 1]")
            elif arr is not None:
                out[name] = arr
        return out

    return Overrides(
        transition_matrix=transition,
        period_weights=period,
        priority_vectors=vectors("priority_vectors", m),
        expert_weight_vectors=vectors("expert_weight_vectors", n),
    )


def _decode_markov(
    raw,
    scale: LinguisticScale,
    attributes: tuple[str, ...],
    experts: tuple[str, ...],
    q: int,
    overrides: Overrides,
    col: _Collector,
) -> MarkovSpec | None:
    obj = _expect_mapping(raw if raw is not None else {}, "markov", col)
    if obj is None:
        return None
    periods = obj.get("periods", 1)
    iterations = obj.get("iterations", 1)
    for name, v in (("periods", periods), ("iterations", iterations)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            col.add(f"markov.{name}", f"must be an integer >= 1, got {v!r}")
            return None
        if v > MAX_MARKOV_STEPS:
            col.add(f"markov.{name}", f"must be at most {MAX_MARKOV_STEPS}")
            return None
    origin_raw = obj.get("origin", 0)
    if isinstance(origin_raw, str):
        if origin_raw not in attributes:
            col.add("markov.origin", f"unknown attribute {origin_raw!r}")
            return None
        origin = attributes.index(origin_raw)
    elif isinstance(origin_raw, int) and not isinstance(origin_raw, bool) and 0 <= origin_raw < q:
        origin = origin_raw
    else:
        col.add("markov.origin", f"expected an attribute name or index, got {origin_raw!r}")
        return None
    scheme = obj.get("scheme", "power")
    if scheme not in ("power", "reshape"):
        col.add("markov.scheme", f"expected 'power' or 'reshape', got {scheme!r}")
        return None
    updates = None
    if "origin_updates" in obj:
        raw_updates = obj["origin_updates"]
        if (
            not isinstance(raw_updates, list)
            or len(raw_updates) != periods
            or not all(_is_number(x) and 0.0 <= x <= 1.0 for x in raw_updates)
        ):
            col.add(
                "markov.origin_updates",
                f"expected {periods} reals in [0, 1], got {raw_updates!r}",
            )
        else:
            updates = tuple(float(x) for x in raw_updates)
    if scheme == "reshape" and updates is None:
        col.add("markov", "scheme 'reshape' requires origin_updates")

    assessments = None
    raw_assessments = obj.get("assessments")
    if raw_assessments is not None:
        stack = _MatrixStack(LinguisticMarkovAssessment, scale, q, len(experts))
        places = _read_expert_matrices(stack, raw_assessments, experts, "markov.assessments", col)
        assessments = _built(places, stack.build())
    elif overrides.transition_matrix is None:
        col.add("markov.assessments", "required unless overrides.transition_matrix is present")

    return MarkovSpec(
        periods=periods,
        iterations=iterations,
        origin=origin,
        scheme=scheme,
        origin_updates=updates,
        assessments=assessments,
    )


def _decode_preferences(
    raw,
    scale: LinguisticScale,
    attributes: tuple[str, ...],
    experts: tuple[str, ...],
    m: int,
    overrides: Overrides,
    col: _Collector,
) -> dict[str, tuple[PreferenceRelation, ...]]:
    """Every attribute's relations, decoded as one stack over all attributes."""
    obj = {} if raw is None else _expect_mapping(raw, "preferences", col)
    if obj is None:
        obj = {}
    unknown = [a for a in obj if a not in attributes]
    if unknown:
        col.add("preferences", f"unknown attributes {unknown}")
    stack = _MatrixStack(PreferenceRelation, scale, m, len(attributes) * len(experts))
    places = {}
    for attr in attributes:
        if attr not in obj:
            if attr not in overrides.priority_vectors:
                col.add(
                    f"preferences.{attr}",
                    "required unless overrides.priority_vectors covers this attribute",
                )
            continue
        places[attr] = _read_expert_matrices(stack, obj[attr], experts, f"preferences.{attr}", col)
    relations = stack.build()
    out: dict[str, tuple[PreferenceRelation, ...]] = {}
    for attr, found in places.items():
        group = _built(found, relations)
        if group is not None:
            out[attr] = group
    return out


def bundled_scenario_text(name: str = "financial_crisis") -> str:
    """Raw JSON text of a scenario shipped with the package."""
    # imported here: no ``decide`` run reads a bundled scenario
    import importlib.resources

    resource = importlib.resources.files("lingdecide").joinpath("data", f"{name}.json")
    try:
        return resource.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ScenarioParseError(f"no bundled scenario named {name!r}") from exc


def _decode(text: str) -> Scenario:
    """Parse and validate scenario text, with the cyclic collector held off.

    Decoding a large scenario allocates a few hundred thousand dicts and
    lists, enough to start many collector passes over the growing tree.
    Decoded JSON holds no reference cycles, so reference counting frees it
    all and those passes would find nothing. The collector's prior state
    is restored however decoding ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
        except (ValueError, RecursionError) as exc:  # an integer beyond the digit limit, deep nesting
            raise ScenarioParseError(str(exc)) from exc
        return scenario_from_dict(data)
    finally:
        if enabled:
            gc.enable()


def load_bundled_scenario(name: str = "financial_crisis") -> Scenario:
    """Load a scenario shipped with the package."""
    return _decode(bundled_scenario_text(name))


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario file.

    Unreadable files and malformed JSON raise a parse error carrying the
    line and column; everything else raises one validation error listing
    all violations with their locations.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    return _decode(text)
