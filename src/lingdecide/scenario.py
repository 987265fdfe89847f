"""Scenario files: the full decision problem as versioned JSON.

A scenario bundles the scale, attribute and alternative names, experts
with trust degrees, blend coefficients, the Markov block (assessments,
periods, iterations, origin, optional reshape updates), per-attribute
preference relations, and optional stage overrides. Loading collects
every violation with its location instead of stopping at the first.

Peak intervals are encoded as ``{"interval": [LO, HI], "p": x}`` or
``{"point": C, "p": x}`` where each coordinate is either a two-element
``[t, k]`` array or a term literal string such as ``"s-2(o1)"``. Term
literals and malformed cells go to ``lingdecide.cells``, loaded on demand.
The reader (``reader._read``) walks each term matrix into a (packed fields,
text offset) tuple once json's scanner reads it: the JSON tree is never held.
"""

from __future__ import annotations

import gc
import json

import numpy as np

from . import records
from .errors import ScenarioParseError, ScenarioValidationError
from .markov import LinguisticMarkovAssessment, check_transition_matrix
from .prefs import PreferenceRelation
from .reader import _bulk_fields, _read, read_text
from .scale import LinguisticScale
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


class _Collector(list):
    """Violations in the order they are found; a nested collector keeps a place for later ones."""

    def add(self, where: str, message: str):
        self.append(f"{where}: {message}")

    def raise_if_any(self):
        violations = [v for item in self for v in ([item] if type(item) is str else item)]
        if violations:
            raise ScenarioValidationError(violations)


def _expect_mapping(data, where: str, col: _Collector) -> dict | None:
    if not isinstance(data, dict):
        col.add(where, f"expected an object, got {type(data).__name__}")
        return None
    return data


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class _MatrixStack:
    """Term matrices of one kind and size, read one by one and checked together.

    ``read`` puts each matrix's fields straight into its place in one
    (R, size, size, 5) stack: as ``reader._bulk_fields`` packed them, or,
    where that pass declines, as ``cells._read_cells`` reads them cell by
    cell, term literals too, locating every fault only the JSON types show.
    Only given the ``text`` that ``reader._read`` walked them from does it
    take (fields, offset) tuples, and then a list as JSON that pass declined.
    ``build`` then derives the unit arrays of the whole stack at once and
    checks the numeric rules of all cells (``field_faults``) and the kind's
    own rules (``stack_violations``). Only what they flag is worded, by
    ``cells._word_faults``: each matrix in the place it was read, each cell
    in the order a cell built on its own checks it (form, coordinates, then
    endpoint order or p). ``cells`` is loaded only for one of these.
    """

    def __init__(self, kind: type[TermMatrix], scale: LinguisticScale, size: int, capacity: int, text):
        """A stack for at most ``capacity`` matrices of ``size`` rows, read from ``text`` unless None."""
        self.kind = kind
        self.scale = scale
        self.size = size
        self.text = text
        # each matrix read goes straight into its place, so the stack is
        # never held twice
        self._fields = np.empty((capacity, size, size, 5))
        self._read: list[tuple] = []

    def read(self, raw, where: str, col: _Collector) -> int | None:
        """Queue one matrix, as ``_read`` walked it or as JSON; its place in ``build``'s result.

        None, with the fault collected, when it is not ``size`` rows.
        """
        fields, rows, faults = None, raw, {}
        if self.text is None and type(raw) is list:
            fields = _bulk_fields(raw, len(raw))
        elif self.text is not None and type(raw) is tuple:
            fields, rows = raw  # walked: the rows' offset in the text stands for them
        if fields is not None and len(fields) == self._fields[0].nbytes:
            fields = np.frombuffer(fields).reshape(self.size, self.size, 5)
        elif not isinstance(rows, list) or len(rows) != self.size:  # a walked matrix is square
            col.add(where, f"expected {self.size} rows")
            return None
        else:
            from .cells import _read_cells
            fields, faults = _read_cells(rows, self.size)
        self._fields[len(self._read)] = fields
        col.append(_Collector())
        self._read.append((rows, faults, where, col[-1]))
        return len(self._read) - 1

    def build(self) -> dict[int, TermMatrix]:
        """Every matrix read with no faulty cell and no broken rule of its
        kind, by its place, as a read-only view of one stack; every fault is
        collected.
        """
        if not self._read:
            return {}
        self._fields.setflags(write=False)
        arrays = unit_arrays(self.scale, self._fields[: len(self._read)])
        flagged = field_faults(self.scale, *arrays[:3])
        faulty = set()
        if flagged or any(faults for _, faults, _, _ in self._read):
            from .cells import _word_faults
            faulty = _word_faults(self._read, flagged, self.text)
        broken = self.kind.stack_violations(*arrays[1:4])
        for r, (_, _, where, col) in enumerate(self._read):
            for v in () if r in faulty else broken.get(r, ()):
                col.add(where, str(v))
        clean = [r for r in range(len(self._read)) if r not in faulty and r not in broken]
        return dict(zip(clean, self.kind.stack(self.scale, arrays, clean)))


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


def _built(places: list[int | None] | None, matrices: dict[int, TermMatrix]) -> tuple | None:
    """The matrices at ``places`` of a built stack; None when any is absent."""
    if places is None or any(r not in matrices for r in places):
        return None
    return tuple(matrices[r] for r in places)


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


def _decode_reals(raw, shape: tuple, where: str, col: _Collector, unit=False) -> np.ndarray | None:
    """A finite float array of ``shape``, in [0, 1] when ``unit``; None with the fault collected."""
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
    if unit and (np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9)):
        col.add(where, "entries must lie in [0, 1]")
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


def scenario_from_dict(data: dict, text: str | None = None) -> Scenario:
    """Build and fully validate a scenario from decoded JSON, or from the tree
    ``reader._read`` walked from ``text``, whose walked matrices are taken as they are."""
    col = _Collector()
    if not isinstance(data, dict):
        col.add("$", f"expected a JSON object, got {type(data).__name__}")
        col.raise_if_any()
    fmt = data.get("format")
    if not _is_number(fmt) or fmt != FORMAT_VERSION:  # True == 1, yet no format
        col.add("format", f"required field must equal {FORMAT_VERSION}, got {fmt!r}")

    scale = _decode_scale(data.get("scale"), col)
    attributes = _decode_names(data, "attributes", 1, col)
    alternatives = _decode_names(data, "alternatives", 2, col)

    experts = trust = None
    raw_experts = data.get("experts")
    if not isinstance(raw_experts, list) or not raw_experts:
        col.add("experts", "expected a nonempty list of {name, trust} objects")
    else:
        found = len(col)
        for idx, obj in enumerate(raw_experts):
            if _expect_mapping(obj, f"experts[{idx}]", col) is None:
                continue
            name, psi = obj.get("name"), obj.get("trust")
            if not isinstance(name, str) or not name:
                col.add(f"experts[{idx}].name", "expected a nonempty string")
            if not _is_number(psi) or not 0.0 <= psi <= 1.0:
                col.add(f"experts[{idx}].trust", f"must be a real in [0, 1], got {psi!r}")
        # names and trust degrees only of a list with no fault in it
        names = [obj["name"] for obj in raw_experts] if len(col) == found else []
        if len(set(names)) != len(names):
            col.add("experts", "names must be unique")
        elif names:
            experts, trust = tuple(names), tuple(float(obj["trust"]) for obj in raw_experts)

    alpha = beta = gamma = 1.0 / 3.0
    blend = data.get("blend")
    if blend is not None and _expect_mapping(blend, "blend", col) is not None:
        keys = ("alpha", "beta", "gamma")
        bad = [k for k in keys if not _is_number(blend.get(k)) or not 0.0 <= blend[k] <= 1.0]
        vals = [] if bad else [float(blend[k]) for k in keys]
        if bad:
            col.add(f"blend.{bad[0]}", f"must be a real in [0, 1], got {blend.get(bad[0])!r}")
        elif abs(sum(vals) - 1.0) > 1e-9:
            col.add("blend", f"coefficients sum to {sum(vals):.12g}, not 1")
        else:
            alpha, beta, gamma = vals

    if scale is None or attributes is None or alternatives is None or experts is None:
        col.raise_if_any()

    q, m, n = len(attributes), len(alternatives), len(experts)

    overrides = _decode_overrides(data.get("overrides"), attributes, q, m, n, col)

    markov = _decode_markov(
        data.get("markov"), scale, attributes, experts, q, overrides, col, text
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
        data.get("preferences"), scale, attributes, experts, m, overrides, col, text
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
    obj = None if raw is None else _expect_mapping(raw, "overrides", col)
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
            period = _decode_reals(arr, (len(arr), q), "overrides.period_weights", col, unit=True)

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
            arr = _decode_reals(vec, (length,), where, col, unit=True)
            if arr is not None:
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
    text: str | None,
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
        stack = _MatrixStack(LinguisticMarkovAssessment, scale, q, len(experts), text)
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
    text: str | None,
) -> dict[str, tuple[PreferenceRelation, ...]]:
    """Every attribute's relations, decoded as one stack over all attributes."""
    obj = {} if raw is None else _expect_mapping(raw, "preferences", col) or {}
    unknown = [a for a in obj if a not in attributes]
    if unknown:
        col.add("preferences", f"unknown attributes {unknown}")
    stack = _MatrixStack(PreferenceRelation, scale, m, len(attributes) * len(experts), text)
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


def _decode(text: str, tree=None) -> Scenario:
    """Parse scenario text (``_read``), unless ``tree`` holds what ``_read`` read from it
    already (``lingdecide.overlap``), and validate it, with the cyclic collector held off.

    Decoded JSON holds no reference cycles, so the collector passes its
    many dicts and lists would start find nothing. The collector's state is
    restored however decoding ends; ``decide`` has it off already.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if tree is None:
            try:
                tree = _read(text)
            except json.JSONDecodeError as exc:
                raise ScenarioParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
            except (ValueError, RecursionError) as exc:  # an integer beyond the digit limit, deep nesting
                raise ScenarioParseError(str(exc)) from exc
        return scenario_from_dict(tree, text)
    finally:
        if enabled:
            gc.enable()


def load_bundled_scenario(name: str = "financial_crisis") -> Scenario:
    """Load a scenario shipped with the package."""
    return _decode(bundled_scenario_text(name))


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario file: ``read_text``, then ``_decode``, as ``decide`` does.

    Unreadable files, text that is not UTF-8 (with the byte offset) and
    malformed JSON (with the line and column) raise a parse error;
    everything else raises one validation error listing all violations
    with their locations.
    """
    return _decode(read_text(path))
