"""Exact matrix arithmetic over Z and Z/n.

The canonical column echelon (Hermite) basis of a lattice, the core Smith
reduction, integer kernels, and linear solving.  Everything runs on
arbitrary-precision Python integers.  Unreduced elimination over Z swells
entries far past the size of the answer, so the echelon reduces while it
builds.  It is the one elimination engine: kernels and solutions are
preimages (``Lattice.preimage``) of 0, over Z/n of n*Z^rows, so one integer
code path covers both rings, and the Smith reduction alternates column and
row echelons.  Smith reduction is used for invariants and Smith coordinates;
the public Smith form, which only the ``snf`` command runs, lives in
``commands.snf``.

Matrices are immutable values and may be shared freely between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import index
from typing import Iterable, Sequence

from .rings import Ring, ZZ


class IntMatrix:
    """An immutable rows x cols matrix of integers over a :class:`Ring`.

    Entries are stored row-major; modular entries are kept reduced into
    ``[0, n)``.  Entries must be integers (``operator.index``); anything else
    raises ``TypeError`` instead of being truncated.  Matrices with zero rows
    or zero columns are legal and denote zero maps and zero modules.
    """

    __slots__ = ("rows", "cols", "entries", "ring")

    def __init__(
        self,
        entries: Iterable[Sequence[int]],
        ring: Ring = ZZ,
        *,
        rows: int | None = None,
        cols: int | None = None,
    ):
        n = ring.modulus
        if n:
            data = [tuple(index(x) % n for x in row) for row in entries]
        else:
            data = [tuple(map(index, row)) for row in entries]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(
                f"entry grid does not match declared shape {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = tuple(data)
        self.ring = ring

    @classmethod
    def from_columns(
        cls, columns: Iterable[Sequence[int]], rows: int, ring: Ring = ZZ
    ) -> "IntMatrix":
        cols = list(columns)
        for c in cols:
            if len(c) != rows:
                raise ValueError(f"column of length {len(c)} in a {rows}-row matrix")
        grid = [[c[i] for c in cols] for i in range(rows)]
        return cls(grid, ring, rows=rows, cols=len(cols))

    @classmethod
    def _trusted(cls, entries: tuple, cols: int, ring: Ring = ZZ) -> "IntMatrix":
        """The matrix whose rows are ``entries``, a tuple of ``cols``-long
        tuples of ints already reduced over ``ring``, taken as is: no entry
        is converted or reduced and no shape is checked."""
        mat = object.__new__(cls)
        mat.rows = len(entries)
        mat.cols = cols
        mat.entries = entries
        mat.ring = ring
        return mat

    # -- accessors ---------------------------------------------------------

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        if self.ring != other.ring:
            raise ValueError("matrix product needs a common ring")
        a, b = self.entries, other.entries
        grid = [
            [sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntMatrix(grid, self.ring, rows=self.rows, cols=other.cols)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product, returned as a plain integer tuple."""
        if len(vec) != self.cols:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} matrix, vector of length {len(vec)}"
            )
        return tuple(
            self.ring.reduce(sum(row[k] * vec[k] for k in range(self.cols)))
            for row in self.entries
        )

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.entries))!r}, ring={self.ring})"


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
    modulo the pivot before the gcd step, and each new pivot column is
    reduced at the later pivot rows.
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


def _snf_with_inverses(a: IntMatrix):
    """Core Smith reduction, by repeated Hermite forms (Kannan and Bachem,
    SIAM J. Comput. 8, 1979).

    Returns the four matrices ``(u, d, v, uinv)`` as lists of rows with
    ``d = u @ a @ v`` diagonal, nonnegative, each entry dividing the next and
    zeros last, and ``uinv = u^-1``.

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


def _preimage(a: IntMatrix, images, top: int = 0):
    """The canonical basis of the preimage of 0 (over Z/n, of n*Z^rows)
    under ``images``, and the matrix of its columns zero above row ``top``,
    cut there, without those that vanish mod n.  Over Z/n the preimage
    contains n*Z^cols, so its entries already lie in ``[0, n)``."""
    from .lattices import Lattice

    n = a.ring.modulus
    target = Lattice.diagonal((n,) * a.rows) if n else Lattice(a.rows, (), ())
    basis = target.preimage(images).basis
    kernel = [c[top:] for c in basis if not any(c[:top])]
    if n:
        kernel = [c for c in kernel if any(x % n for x in c)]
    return basis, IntMatrix.from_columns(kernel, a.cols, a.ring)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Generators of ``{x : a @ x = 0}`` over the ring, as matrix columns:
    the canonical basis of the integer solutions, over Z/n of ``a x`` in
    n*Z^rows, without the columns that vanish mod n."""
    return _preimage(a, a.columns())[1]


_kernel_over_z = kernel_basis  # the name perfbench/traced.py counts


def solve_linear(a: IntMatrix, b: Sequence[int]) -> tuple[tuple | None, IntMatrix]:
    """``(particular, kernel_basis(a))`` for ``a @ x = b``, ``particular``
    ``None`` when unsolvable: read from the preimage of ``(-b, a e_1, ...)``,
    whose first basis column is ``(1, particular)`` iff a solution exists."""
    basis, kernel = _preimage(a, [tuple(-index(x) for x in b)] + a.columns(), 1)
    return (basis[0][1:] if basis and basis[0][0] == 1 else None), kernel
