"""Test-side oracles, independent of the library's structural algorithms.

Element-set computations for finite modules: a submodule becomes a frozenset
of canonical coordinate tuples, and the lattice operations become plain set
operations plus subgroup generation.
"""

from itertools import product

from modclose import FPModule, Submodule


def element_set(sub: Submodule) -> frozenset:
    """All elements of a submodule of a finite module, as coordinate tuples."""
    return frozenset(x.coords for x in sub.parent.elements() if sub.contains(x))


def generated_subgroup(m: FPModule, seeds) -> frozenset:
    """Closure of a set of elements under addition (finite modules)."""
    zero = m.zero_element()
    found = {zero.coords}
    frontier = [zero]
    seed_elems = [m.element(s) for s in seeds]
    while frontier:
        x = frontier.pop()
        for s in seed_elems:
            y = x + s
            if y.coords not in found:
                found.add(y.coords)
                frontier.append(y)
    return frozenset(found)


def join_by_elements(u: Submodule, v: Submodule) -> frozenset:
    m = u.parent
    seeds = [c for c in u.canonical_gens.columns()] + [
        c for c in v.canonical_gens.columns()
    ]
    return generated_subgroup(m, seeds)


def meet_by_elements(u: Submodule, v: Submodule) -> frozenset:
    return element_set(u) & element_set(v)


def element_order_statistics(elements, add, zero):
    """Multiset of element orders; determines a finite abelian group up to
    isomorphism."""
    stats = {}
    for x in elements:
        order = 1
        y = x
        while y != zero:
            y = add(y, x)
            order += 1
        stats[order] = stats.get(order, 0) + 1
    return stats


def order_statistics_of_invariants(invariants) -> dict:
    """Order statistics of a direct sum of cyclic groups given by invariant
    factors (all nonzero): the order of a tuple is the lcm of its coordinate
    orders."""
    from math import gcd

    stats = {}
    for combo in product(*[range(d) for d in invariants]):
        order = 1
        for c, d in zip(combo, invariants):
            o = d // gcd(c, d)
            order = order * o // gcd(order, o)
        stats[order] = stats.get(order, 0) + 1
    return stats


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def echelon_unreduced(dim: int, columns) -> tuple:
    """Canonical column echelon basis by plain gcd elimination, with no
    reduction until the end: ``(basis, pivots)`` as :class:`Lattice` holds
    them.  Intermediate entries may swell; the result is the unique Hermite
    basis, so the library's reduced echelon must match it exactly."""
    from bisect import bisect_left

    basis: list[list[int]] = []
    pivrows: list[int] = []
    for col in columns:
        v = [int(x) for x in col]
        while True:
            r = next((i for i, x in enumerate(v) if x), None)
            if r is None:
                break
            pos = bisect_left(pivrows, r)
            if pos < len(pivrows) and pivrows[pos] == r:
                b = basis[pos]
                a, c = b[r], v[r]
                if c % a == 0:
                    q = c // a
                    v = [vi - q * bi for vi, bi in zip(v, b)]
                else:
                    x, y, g = _xgcd(a, c)
                    ag, cg = a // g, c // g
                    nb = [x * bi + y * vi for bi, vi in zip(b, v)]
                    v = [-cg * bi + ag * vi for bi, vi in zip(b, v)]
                    basis[pos] = nb
            else:
                basis.insert(pos, v)
                pivrows.insert(pos, r)
                break
    for j, r in enumerate(pivrows):
        if basis[j][r] < 0:
            basis[j] = [-x for x in basis[j]]
    for j, r in enumerate(pivrows):
        p = basis[j][r]
        for j2 in range(j):
            q = basis[j2][r] // p
            if q:
                basis[j2] = [a - q * b for a, b in zip(basis[j2], basis[j])]
    return (
        tuple(tuple(b) for b in basis),
        tuple((r, basis[j][r]) for j, r in enumerate(pivrows)),
    )


def det_bareiss(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so the work stays polynomial."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1
