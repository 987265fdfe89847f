"""Fixed reference process that measures the speed of the host.

Usage: python3 perfbench/reference.py

run.py starts it before and after every timed decision and set-up. Its
work never changes: start an interpreter, import the third-party modules
the package under test uses (numpy and parts of scipy), then run a fixed,
seeded mix of pure-Python object work and small numpy operations. It
imports nothing from the package, so its wall time depends only on how
fast the host runs at that moment, and the benchmark divides it out.
"""

import random

import numpy as np
import scipy.integrate  # noqa: F401  (imported for its start-up cost)
import scipy.linalg  # noqa: F401

ROUNDS = 4000
SIZE = 30


def work(rounds: int = ROUNDS, size: int = SIZE) -> float:
    rng = random.Random(1)
    total = 0.0
    for _ in range(rounds):
        cells = [{"lo": rng.random(), "hi": rng.random(), "p": rng.random()} for _ in range(size)]
        values = [min(c["lo"], c["hi"]) * c["p"] + max(c["lo"], c["hi"]) * (1 - c["p"]) for c in cells]
        a = np.array(values)
        total += float(a @ a) + sum(v * v for v in values)
    return total


if __name__ == "__main__":
    work()
