"""Exact matrix arithmetic over Z and Z/n.

The canonical column echelon (Hermite) basis of a lattice, the core Smith
reduction, integer kernels, and linear solving.  Everything runs on
arbitrary-precision Python integers.  Unreduced elimination over Z swells
entries far past the size of the answer, so the echelon reduces while it
builds.  Kernels and solutions are preimages (``Lattice.preimage``) of 0,
over Z/n of n*Z^rows, so one integer code path covers both rings.  Smith
reduction is used for invariants and Smith coordinates; the public Smith
form, which only the ``snf`` command runs, lives in ``commands.snf``.

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
    """Core Smith reduction.

    Returns the four matrices ``(u, d, v, uinv)`` as lists of lists with
    ``d = u @ a @ v`` and ``uinv = u^-1``.

    Pivoting is deterministic: the nonzero entry of minimal absolute value is
    chosen, ties broken by lowest (row, col), so results are reproducible.
    """
    rows, cols = a.rows, a.cols
    d = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    uinv = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]
        for r in uinv:
            r[i], r[k] = r[k], r[i]

    def swap_cols(j, l):
        for r in d:
            r[j], r[l] = r[l], r[j]
        for r in v:
            r[j], r[l] = r[l], r[j]

    def row_sub(i, q, k):
        # row i -= q * row k
        di, dk = d[i], d[k]
        for j in range(cols):
            di[j] -= q * dk[j]
        ui, uk = u[i], u[k]
        for j in range(rows):
            ui[j] -= q * uk[j]
        for r in uinv:
            r[k] += q * r[i]

    def col_sub(j, q, k):
        # col j -= q * col k
        for r in d:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    for k in range(min(rows, cols)):
        # deterministic pivot: least |entry| in the trailing block,
        # row-major scan keeps the first hit on ties
        best = None
        best_abs = 0
        for i in range(k, rows):
            row = d[i]
            for j in range(k, cols):
                e = row[j]
                if e and (best is None or abs(e) < best_abs):
                    best = (i, j)
                    best_abs = abs(e)
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])

        while True:
            if d[k][k] < 0:
                negate_row(k)
            p = d[k][k]
            # clear column k; a nonzero remainder becomes the new, smaller pivot
            dirty = False
            for i in range(k + 1, rows):
                e = d[i][k]
                if e:
                    q, r = divmod(e, p)
                    row_sub(i, q, k)
                    if r:
                        swap_rows(i, k)
                        dirty = True
                        break
            if dirty:
                continue
            # clear row k by column operations
            dirty = False
            for j in range(k + 1, cols):
                e = d[k][j]
                if e:
                    q, r = divmod(e, p)
                    col_sub(j, q, k)
                    if r:
                        swap_cols(j, k)
                        dirty = True
                        break
            if dirty:
                continue
            # enforce the divisibility chain: pivot must divide the whole
            # trailing block before moving on
            offender = None
            for i in range(k + 1, rows):
                row = d[i]
                for j in range(k + 1, cols):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(k, -1, offender)  # fold the offending row into row k

    return u, d, v, uinv


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
