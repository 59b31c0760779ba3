"""Exact elimination over Z, for modules over Z and Z/n alike.

The canonical column echelon (Hermite) basis of a lattice and the core Smith
reduction.  Everything runs on arbitrary-precision Python integers.
Unreduced elimination over Z swells entries far past the size of the answer,
so the echelon reduces while it builds.  It is the one elimination engine:
intersections, preimages, kernels and solutions are read from it, and the
Smith reduction alternates column and row echelons.  The public Smith form
lives in ``commands.snf``; ``IntMatrix``, ``kernel_basis`` and
``solve_linear`` live in ``intmatrix``, and their old paths here resolve
there when read (PEP 562), so a request that builds no matrix compiles none.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import index
from typing import Iterable, Sequence


def __getattr__(name: str):
    if name in ("IntMatrix", "_preimage", "kernel_basis", "_kernel_over_z", "solve_linear"):
        from . import intmatrix

        return getattr(intmatrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Grid:
    """Rows of ``cols`` ints taken as is: what the Smith core reads of a matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: tuple, cols: int):
        self.rows, self.cols, self.entries = len(entries), cols, entries


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


def _echelon(dim: int, columns: Iterable[Sequence[int]]):
    """Canonical column echelon (Hermite) basis of the lattice the columns span.

    Returns ``(basis, pivrows)``: basis columns as lists with strictly
    increasing pivot rows, positive pivots, and entries of earlier columns
    reduced into ``[0, pivot)`` at every pivot row.  Entries stay near the
    size of the answer while the basis is built: an incoming entry is reduced
    modulo the pivot before the gcd step, and a column made by a gcd step is
    reduced at the later pivot rows.  A column inserted at a new pivot row is
    reduced only by the final pass, so the order of ``columns`` can change
    intermediate sizes, though not the result.
    """
    basis: list[list[int]] = []
    pivrows: list[int] = []
    for col in columns:
        v = list(map(index, col))
        if len(v) != dim:
            raise ValueError(f"column of length {len(v)} in Z^{dim}")
        while True:
            r = next((i for i, x in enumerate(v) if x), None)
            if r is None:
                break
            pos = bisect_left(pivrows, r)
            if pos < len(pivrows) and pivrows[pos] == r:
                b = basis[pos]
                a = b[r]
                q, c = divmod(v[r], a)
                if c == 0:
                    v = [vi - q * bi for vi, bi in zip(v, b)]
                    continue
                # gcd step on (a, c) for the pair (b, v - q*b), with the
                # quotient folded into the coefficients
                x, y, g = _xgcd(a, c)
                ag, cg = a // g, c // g
                s, t = x - y * q, -cg - ag * q
                nb = [s * bi + y * vi for bi, vi in zip(b, v)]
                v = [t * bi + ag * vi for bi, vi in zip(b, v)]
                for j in range(pos + 1, len(pivrows)):
                    rj, bj = pivrows[j], basis[j]
                    qj = nb[rj] // bj[rj]
                    if qj:
                        nb = [ni - qj * bi for ni, bi in zip(nb, bj)]
                basis[pos] = nb
            else:
                if v[r] < 0:
                    v = [-x for x in v]
                basis.insert(pos, v)
                pivrows.insert(pos, r)
                break
    # reduce earlier columns at each pivot row into [0, pivot)
    for j, r in enumerate(pivrows):
        p = basis[j][r]
        for j2 in range(j):
            q = basis[j2][r] // p
            if q:
                basis[j2] = [a - q * b for a, b in zip(basis[j2], basis[j])]
    return basis, pivrows


def _stacked_echelon(top: int, dim: int, columns: Iterable[Sequence[int]]):
    """``(basis, pivrows)`` of ``{y in Z^dim : (0, y) in span(columns)}``,
    for columns in Z^(top + dim): the lower blocks of the echelon columns
    whose pivot row is at or below ``top`` (their upper blocks are zero).
    Cohen, GTM 138, section 2.4."""
    basis, pivrows = _echelon(top + dim, columns)
    k = bisect_left(pivrows, top)
    return [b[top:] for b in basis[k:]], [r - top for r in pivrows[k:]]


def _identity_stack(columns: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The columns ``(c_j, e_j)`` of ``[c; I]``, for the columns ``c_j``."""
    k = len(columns)
    return [tuple(c) + tuple(int(i == j) for i in range(k)) for j, c in enumerate(columns)]


def _snf_with_inverses(a):
    """Core Smith reduction, by repeated Hermite forms (Kannan and Bachem,
    SIAM J. Comput. 8, 1979).

    Of ``a`` only ``rows``, ``cols`` and ``entries`` are read (a ``_Grid``
    or an ``IntMatrix``).  Returns the four matrices ``(u, d, v, uinv)`` as
    lists of rows with ``d = u @ a @ v`` diagonal, nonnegative, each entry
    dividing the next and zeros last, and ``uinv = u^-1``.

    Column echelons of ``[d; v]`` alternate with column echelons of
    ``[d^T; u^T]`` (row passes) until ``d`` is diagonal.  Where ``d_i`` does
    not divide a later ``d_j`` (the first such i, the last such j), column j
    is added into column i and a row pass follows, which puts
    ``gcd(d_i, d_j)`` at ``d_i``; a column pass would echelonize the diagonal
    straight back.  ``uinv`` is the lower block of the echelon of ``[u; I]``,
    whose upper block is I.  The echelon is canonical, so results are
    reproducible.
    """
    rows, cols = a.rows, a.cols
    d = [list(r) for r in a.entries]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for i in range(cols)] for j in range(cols)]  # columns
    column_pass = True
    while True:
        if column_pass:
            basis, _ = _echelon(rows + cols, [[r[j] for r in d] + v[j] for j in range(cols)])
            d = [[b[i] for b in basis] for i in range(rows)]
            v = [b[rows:] for b in basis]
        else:
            basis, _ = _echelon(cols + rows, [d[i] + u[i] for i in range(rows)])
            d = [b[:cols] for b in basis]
            u = [b[cols:] for b in basis]
        column_pass = not column_pass
        if any(x for i, r in enumerate(d) for j, x in enumerate(r) if i != j):
            continue
        diag = [d[i][i] for i in range(min(rows, cols))]
        fix = next(
            ((i, j) for i, x in enumerate(diag) for j in range(len(diag) - 1, i, -1)
             if x and diag[j] % x),
            None,
        )
        if fix is None:
            break
        i, j = fix
        d[j][i] = diag[j]
        v[i] = [x + y for x, y in zip(v[i], v[j])]
        column_pass = False
    # last column first: the echelon's output does not depend on the order,
    # and u's first columns, often unit vectors on rank-deficient inputs, are
    # best met last (a 64 x 48 lattice basis: 1.2 s in order, 0.02 s reversed)
    basis, _ = _echelon(2 * rows, _identity_stack(list(zip(*u)))[::-1])
    uinv = [[b[rows + i] for b in basis] for i in range(rows)]
    return u, d, [[c[i] for c in v] for i in range(cols)], uinv
