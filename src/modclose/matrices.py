"""Exact matrix arithmetic over Z and Z/n.

The canonical column echelon (Hermite) basis of a lattice, Smith normal form
with transformation matrices, integer kernels, and linear solving.
Everything runs on arbitrary-precision Python integers.  A system over Z/n
is the integer system with n*Z^rows adjoined to the image, so its solutions
form a lattice containing n*Z^cols and one integer code path (and one oracle)
covers both rings.  Unreduced elimination over Z swells entries far past the
size of the answer, so the echelon reduces while it builds.  Kernels and
solutions are read from one echelon of the stacked columns ``(a e_j, e_j)``,
with ``(n e_i, 0)`` over Z/n; Smith reduction is used only for invariants and
Smith coordinates, and the public Smith form starts from the Hermite form,
which keeps the transforms near the size of the determinant.

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

    __slots__ = ("rows", "cols", "entries", "ring", "_hash")

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
        self._hash = None

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
    def identity(cls, n: int, ring: Ring = ZZ) -> "IntMatrix":
        return cls(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], ring
        )

    @classmethod
    def zeros(cls, rows: int, cols: int, ring: Ring = ZZ) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], ring, rows=rows, cols=cols)

    # -- accessors ---------------------------------------------------------

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

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

    def with_ring(self, ring: Ring) -> "IntMatrix":
        """Reinterpret over ``ring`` (integer matrices may be reduced; a modular
        matrix only recasts to its own ring)."""
        if ring == self.ring:
            return self
        if self.ring.is_modular:
            raise ValueError(f"cannot recast a {self.ring} matrix into {ring}")
        return IntMatrix(self.entries, ring, rows=self.rows, cols=self.cols)

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
        if self._hash is None:
            self._hash = hash((self.ring, self.rows, self.cols, self.entries))
        return self._hash

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


def _identity_stack(a: IntMatrix) -> list[tuple[int, ...]]:
    """The columns ``(a e_j, e_j)`` of ``[a; I]``."""
    cols = a.cols
    return [a.column(j) + tuple(int(i == j) for i in range(cols)) for j in range(cols)]


class SNFResult:
    """Smith normal form ``D = U @ A @ V`` of an integer matrix.

    ``U`` and ``V`` are unimodular over Z; ``D`` is diagonal with nonnegative
    entries, each dividing the next.
    """

    __slots__ = ("u", "d", "v")

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix):
        self.u = u
        self.d = d
        self.v = v

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()

    def __repr__(self) -> str:
        return f"SNFResult(diagonal={list(self.diagonal)!r})"


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


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form of an integer matrix, with both transforms.

    Modular matrices are refused: the caller builds the integer matrix it
    means (for a module over Z/n, its relation lattice's basis, n*Z^g
    included).  The Smith reduction runs on the column Hermite form
    ``h = a @ w``, read off the echelon of the columns of ``[a; I]`` (its
    lower block is the unimodular ``w``).  Its entries are reduced below the
    pivots, which multiply to ``|det a|`` when ``a`` is nonsingular, so the
    transforms stay near the size of the answer; the returned ``V`` is ``w``
    times the Smith transform of ``h``.
    """
    if a.ring.is_modular:
        raise ValueError("Smith reduction runs over the integers; build the matrix over Z")
    rows, cols = a.rows, a.cols
    basis, _ = _echelon(rows + cols, _identity_stack(a))
    h = IntMatrix.from_columns([c[:rows] for c in basis], rows)
    w = IntMatrix.from_columns([c[rows:] for c in basis], cols)
    u, d, v, _ = _snf_with_inverses(h)
    return SNFResult(
        IntMatrix(u, ZZ, rows=rows, cols=rows),
        IntMatrix(d, ZZ, rows=rows, cols=cols),
        w @ IntMatrix(v, ZZ, rows=cols, cols=cols),
    )


def _solve_system(a: IntMatrix, b: Sequence[int] | None = None):
    """``(particular, kernel)`` of ``a @ x = b`` from one echelon of the
    columns ``(a e_j, e_j)`` and, over Z/n, ``(n e_i, 0)``.

    The echelon columns with a pivot in the lower block have a zero upper
    block: they are the canonical basis of the integer solutions of
    ``a x = 0``, over Z/n of ``a x in n*Z^rows``, a lattice containing
    n*Z^cols whose columns that are nonzero mod n generate the kernel.  The
    others are ``(a w + n y, w)``; forward substitution on their pivot rows
    reduces ``(b, 0)`` to ``(0, -x)`` exactly when ``b`` lies in their span.
    ``particular`` is ``None`` without ``b`` or a solution, and is not reduced
    mod n.  Cohen, GTM 138, section 2.4.
    """
    rows, cols, n = a.rows, a.cols, a.ring.modulus
    stack = _identity_stack(a)
    if n:
        zero = (0,) * cols
        stack += [tuple(n * (i == k) for i in range(rows)) + zero for k in range(rows)]
    basis, pivrows = _echelon(rows + cols, stack)
    k = bisect_left(pivrows, rows)
    lower = [c[rows:] for c in basis[k:]]
    if n:
        lower = [c for c in lower if any(x % n for x in c)]
    kernel = IntMatrix.from_columns(lower, cols, a.ring)
    if b is None:
        return None, kernel
    v = [*b] + [0] * cols
    for col, r in zip(basis[:k], pivrows):
        q, rem = divmod(v[r], col[r])
        if rem:
            return None, kernel
        v = [vi - q * ci for vi, ci in zip(v, col)]
    return (None if any(v[:rows]) else tuple(-x for x in v[rows:])), kernel


def _kernel_over_z(a: IntMatrix) -> IntMatrix:
    """Canonical basis of ``{x : a @ x = 0}`` over Z, as columns (for a matrix
    over Z/n, the :func:`kernel_basis` generators)."""
    return _solve_system(a)[1]


def kernel_basis(a: IntMatrix, ring: Ring | None = None) -> IntMatrix:
    """Generators of ``{x : a @ x = 0}`` over the ring, as matrix columns.

    Over Z the columns are the canonical lattice basis.  Over Z/n they are
    the canonical basis of ``{x in Z^cols : a x in n*Z^rows}``, reduced mod n,
    with the columns that vanish mod n dropped.
    """
    return _solve_system(a if ring is None else a.with_ring(ring))[1]


def _solve_over_z(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One solution of ``a @ x = b`` over Z, or ``None`` when unsolvable."""
    return _solve_system(a, b)[0]


def solve_linear(
    a: IntMatrix, b: Sequence[int], ring: Ring | None = None
) -> tuple[tuple[int, ...] | None, IntMatrix]:
    """Solve ``a @ x = b`` over the ring.

    Returns ``(particular, kernel)`` where ``particular`` is one solution (or
    ``None`` when the system is unsolvable) and ``kernel`` is
    :func:`kernel_basis` of ``a``; the full solution set is the particular
    solution plus the kernel span.  Both come from one echelon, over Z and
    Z/n alike.
    """
    mat = a if ring is None else a.with_ring(ring)
    vec = list(map(index, b))
    if len(vec) != mat.rows:
        raise ValueError(
            f"dimension mismatch: matrix has {mat.rows} rows, vector has {len(vec)}"
        )
    sol, kernel = _solve_system(mat, vec)
    return (None if sol is None else tuple(map(mat.ring.reduce, sol))), kernel
