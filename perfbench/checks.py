"""Output checks for one decision report.

The checks read only the report and the scenario JSON the benchmark
wrote, and use numpy, not the package under test, so they keep working
when the package's internals change. A decision fails on a nonzero exit,
a report that does not parse, or any problem listed here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-9
KKT_TOL = 1e-9
#: the solver's strict positivity floor; coordinates within 1e-9 of it
#: count as bound, as in ``lingdecide.solver.stationarity_residual``
FLOOR = 1e-9


def unit(scale: dict, coord) -> float:
    """Unit value of a [t, k] coordinate on the scenario's scale."""
    tau, zeta = scale["tau"], scale["zeta"]
    t, k = coord
    return (k + (tau + t) * zeta) / (2.0 * zeta * tau)


def cell(scale: dict, raw: dict) -> tuple[float, float, float]:
    """(lower, upper, p) of one encoded term, endpoints in unit values."""
    lo, hi = raw["interval"] if "interval" in raw else (raw["point"], raw["point"])
    return unit(scale, lo), unit(scale, hi), float(raw["p"])


def model_parts(scale: dict, relations: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-expert Hessian and linear term of the collective-priority model.

    For expert k the objective is sum_{i<j} p_ij ((w_i - w_j)/2 - E_ij + 1/2)^2
    with E the interval midpoints: H_k = L(P)/4 with L the graph Laplacian
    of the upper-triangle certainties, and c_k collects p_ij (E_ij - 1/2)/2
    with sign +1 at i and -1 at j.
    """
    hs, cs = [], []
    for matrix in relations:
        cells = np.array([[cell(scale, raw) for raw in row] for row in matrix])
        E = cells[:, :, :2].mean(axis=2)
        P = np.triu(cells[:, :, 2], 1)
        P = P + P.T
        hs.append((np.diag(P.sum(axis=1)) - P) / 4.0)
        D = np.triu(cells[:, :, 2] * (E - 0.5), 1)
        cs.append(0.5 * (D.sum(axis=1) - D.sum(axis=0)))
    return np.array(hs), np.array(cs)


def kkt_residual(H: np.ndarray, c: np.ndarray, x: np.ndarray) -> float:
    """Projected-gradient residual of min x'Hx - 2c'x over the simplex."""
    grad = 2.0 * (H @ x - c)
    at_bound = x <= FLOOR + 1e-9
    free = ~at_bound
    if not free.any():
        return 0.0
    mu = -float(np.mean(grad[free]))
    res = float(np.max(np.abs(grad[free] + mu)))
    if at_bound.any():
        res = max(res, float(-np.minimum(grad[at_bound] + mu, 0.0).min()))
    return res


@dataclass
class Expected:
    """What every report of one scenario must satisfy."""

    ranking: list[str] | None = None
    comparables: list[float] | None = None
    tolerance: float = 0.0
    models: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    attributes: int | None = None
    pinned: list[tuple[int, int]] = field(default_factory=list)


def expected_for(scenario: dict, reference: dict | None = None) -> Expected:
    """Checks derived from a scenario; ``reference`` pins ranking and values."""
    out = Expected()
    if reference is not None:
        out.ranking = reference["ranking"]
        out.comparables = reference["comparables"]
        out.tolerance = reference["tolerance"]
        return out
    scale = scenario["scale"]
    experts = [e["name"] for e in scenario["experts"]]
    for attr, by_expert in scenario["preferences"].items():
        out.models[attr] = model_parts(scale, [by_expert[e] for e in experts])
    assessments = [scenario["markov"]["assessments"][e] for e in experts]
    q = out.attributes = len(scenario["attributes"])
    for i in range(q):
        for j in range(q):
            if all(cell(scale, a[i][j]) == (0.0, 0.0, 1.0) for a in assessments):
                out.pinned.append((i, j))
    return out


def check_report(text: str, expected: Expected) -> tuple[list[str], float]:
    """Problems found in one JSON report, and its largest KKT residual."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report does not parse: {exc}"], 0.0
    problems: list[str] = []
    if report.get("stage") != "all":
        problems.append(f"stage is {report.get('stage')!r}, not 'all'")
    alternatives = report.get("alternatives") or []
    m = len(alternatives)

    priorities = report.get("priorities") or {}
    weights = report.get("model_weights") or {}
    # Overridden priority vectors are echoed verbatim; only solved ones
    # must lie on the simplex.
    for attr in weights:
        vec = priorities.get(attr)
        v = np.asarray(vec, dtype=float)
        if v.shape != (m,) or np.any(v < 0.0) or abs(v.sum() - 1.0) > SUM_TOL:
            problems.append(f"priorities.{attr} is not on the simplex: {vec}")

    M = np.asarray(report.get("transition") or [], dtype=float)
    if expected.attributes is not None and M.shape != (expected.attributes,) * 2:
        problems.append(f"transition has shape {M.shape}")
        M = M.reshape(0, 0)
    for i, row in enumerate(M):
        if np.any(row < -SUM_TOL) or abs(row.sum() - 1.0) > SUM_TOL:
            problems.append(f"transition row {i} is not stochastic")
    for i, j in expected.pinned:
        if M.size and M[i, j] != 0.0:
            problems.append(f"transition ({i}, {j}) is pinned but not exactly 0")

    U = np.asarray(report.get("comparables") or [], dtype=float)
    ranking = report.get("ranking") or []
    if sorted(ranking) != sorted(alternatives) or U.shape != (m,):
        problems.append(f"ranking {ranking} is not a permutation of {alternatives}")
    else:
        ordered = U[[alternatives.index(a) for a in ranking]]
        if np.any(np.diff(ordered) > 0.0):
            problems.append(f"ranking {ranking} does not order the comparables {U.tolist()}")
    if expected.ranking is not None and ranking != expected.ranking:
        problems.append(f"ranking {ranking}, expected {expected.ranking}")
    if expected.comparables is not None and (
        U.shape != (len(expected.comparables),)
        or np.max(np.abs(U - expected.comparables)) > expected.tolerance
    ):
        problems.append(f"comparables {U.tolist()}, expected {expected.comparables}")

    kkt = 0.0
    for attr, (hs, cs) in expected.models.items():
        if attr not in weights:
            problems.append(f"model_weights.{attr} missing")
            continue
        w = np.asarray(weights[attr], dtype=float)
        x = np.asarray(priorities.get(attr), dtype=float)
        if w.shape != (hs.shape[0],) or x.shape != (m,):
            continue  # reported above as off the simplex
        kkt = max(kkt, kkt_residual(np.tensordot(w, hs, 1), w @ cs, x))
    if kkt > KKT_TOL:
        problems.append(f"KKT residual {kkt:.3g} exceeds {KKT_TOL:g}")
    return problems, kkt
