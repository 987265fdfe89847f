"""Seeded scenario generator for the benchmark workloads.

Writes plain JSON in the published scenario format (format 1) and uses
only the standard library, so it imports nothing from the package under
test: two commits benchmarked with the same seed see byte-identical
inputs. The same seed always yields the same bytes.
"""

from __future__ import annotations

import json
import random

TAU = ZETA = 4
#: unit values on the (TAU, ZETA) scale are the multiples of 1 / GRID
GRID = 2 * TAU * ZETA
#: share of preference judgements that are points rather than intervals
POINT_SHARE = 0.5
#: standard deviation of the noise added to each consistent unit score
NOISE = 0.04


def coord(g: int) -> list[int]:
    """Canonical [t, k] coordinate of the unit value g / GRID."""
    if g >= GRID:
        return [TAU, 0]
    x = g - TAU * ZETA
    t = x // ZETA
    return [t, x - t * ZETA]


def term(lo: int, hi: int, p: float) -> dict:
    if lo == hi:
        return {"point": coord(lo), "p": p}
    return {"interval": [coord(lo), coord(hi)], "p": p}


def dirichlet(rng: random.Random, m: int, concentration: float) -> list[float]:
    draws = [rng.gammavariate(concentration, 1.0) for _ in range(m)]
    total = sum(draws)
    return [d / total for d in draws]


def certainty(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 1.0), 3)


def relation(rng: random.Random, m: int) -> list[list[dict]]:
    """Reciprocal relation around a Dirichlet priority vector.

    Entry (i, j) scores 0.5 + (w_i - w_j) / 2 plus Gaussian noise, snapped
    to the scale grid; (j, i) mirrors its endpoints and shares its p, and
    the diagonal is the indifferent point at p = 1.
    """
    w = dirichlet(rng, m, 0.5)
    half = GRID // 2
    rows = [[term(half, half, 1.0) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            e = 0.5 + (w[i] - w[j]) / 2.0 + rng.gauss(0.0, NOISE)
            g = min(GRID, max(0, round(e * GRID)))
            if rng.random() < POINT_SHARE:
                lo = hi = g
            else:
                lo = max(0, g - rng.randint(0, 2))
                hi = min(GRID, g + rng.randint(1, 2))
            p = certainty(rng)
            rows[i][j] = term(lo, hi, p)
            rows[j][i] = term(GRID - hi, GRID - lo, p)
    return rows


def pinned_cells(rng: random.Random, q: int, pin_share: float) -> set[tuple[int, int]]:
    """Transitions every expert rates as the floor point; no row is all pinned."""
    pinned = set()
    for i in range(q):
        row = {(i, j) for j in range(q) if rng.random() < pin_share}
        if len(row) == q:
            row.discard((i, i))
        pinned |= row
    return pinned


def assessment(rng: random.Random, q: int, pinned: set[tuple[int, int]]) -> list[list[dict]]:
    """One expert's transition judgements; free cells never score the floor."""
    rows = []
    for i in range(q):
        row = []
        for j in range(q):
            if (i, j) in pinned:
                row.append(term(0, 0, 1.0))
                continue
            g = rng.randint(1, GRID)
            hi = min(GRID, g + rng.choice((0, 0, 1, 2)))
            row.append(term(g, hi, certainty(rng)))
        rows.append(row)
    return rows


def scenario(
    seed: int,
    m: int,
    q: int,
    n: int,
    periods: int,
    scheme: str,
    pin_share: float = 0.0,
) -> dict:
    """A complete scenario with m alternatives, q attributes and n experts."""
    rng = random.Random(seed)
    attributes = [f"C{a + 1}" for a in range(q)]
    experts = [f"e{k + 1}" for k in range(n)]
    pinned = pinned_cells(rng, q, pin_share)
    markov = {
        "periods": periods,
        "iterations": 1,
        "origin": attributes[0],
        "scheme": scheme,
        "assessments": {e: assessment(rng, q, pinned) for e in experts},
    }
    if scheme == "reshape":
        markov["origin_updates"] = [round(rng.uniform(0.1, 0.9), 3) for _ in range(periods)]
    return {
        "format": 1,
        "scale": {"tau": TAU, "zeta": ZETA, "first_labels": None, "second_labels": None},
        "attributes": attributes,
        "alternatives": [f"A{x + 1}" for x in range(m)],
        "experts": [{"name": e, "trust": round(rng.uniform(0.5, 1.0), 3)} for e in experts],
        "blend": {"alpha": 0.5, "beta": 0.3, "gamma": 0.2},
        "markov": markov,
        "preferences": {
            a: {e: relation(rng, m) for e in experts} for a in attributes
        },
        "overrides": {},
    }


def scenario_text(seed: int, **sizes) -> str:
    return json.dumps(scenario(seed, **sizes), separators=(",", ":")) + "\n"
