"""A fixed pure-Python workload that gauges how fast the machine runs right now.

run.py spawns it between requests, exactly as it spawns the CLI, and scales
the end-to-end times by ``REFERENCE_S / mean(its wall time)``.  It imports
nothing from modclose, so a change to the program cannot move it; it does
what a small request does (start the interpreter, import modules, eliminate
an integer matrix with growing entries), so it slows down and speeds up with
the machine as the requests do.
"""

import fractions  # noqa: F401  (import work, as a request's imports)
import json  # noqa: F401
import random


def _echelon(rows):
    rows = [r[:] for r in rows]
    for c in range(len(rows[0])):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        for i in range(c + 1, len(rows)):
            a, b = rows[c][c], rows[i][c]
            rows[i] = [a * x - b * y for x, y in zip(rows[i], rows[c])]
    return rows


if __name__ == "__main__":
    rng = random.Random(0)
    matrix = [[rng.randint(-100, 100) for _ in range(11)] for _ in range(11)]
    for _ in range(6):
        _echelon(matrix)
