import random

import pytest

from modclose import FPModule, matrices


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def echelon_calls(monkeypatch):
    """The ambient dimensions of the ``matrices._echelon`` calls made while
    the test runs."""
    calls = []
    real = matrices._echelon

    def counting(dim, columns):
        calls.append(dim)
        return real(dim, columns)

    monkeypatch.setattr(matrices, "_echelon", counting)
    return calls


def random_finite_module(rng, ring, max_gens=2, max_order=64, entry=9):
    """A random finitely presented module of order at most max_order.

    Over Z the relation matrix is forced to full rank by adding a random
    multiple of the identity before acceptance testing the order bound.
    """
    while True:
        g = rng.randint(0, max_gens)
        k = rng.randint(g, g + 2)
        cols = [
            tuple(rng.randint(-entry, entry) for _ in range(g)) for _ in range(k)
        ]
        if not ring.is_modular:
            d = rng.randint(1, 8)
            cols += [
                tuple(d if i == j else 0 for i in range(g)) for j in range(g)
            ]
        m = FPModule(ring, g, cols)
        order = m.order()
        if order is not None and order <= max_order:
            return m


# acceptance results registry: test_acceptance fills it, the terminal summary
# hook prints one line per criterion even when output capture is on
ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {ACCEPTANCE_RESULTS[name]}")
