"""The public integer matrix, with kernels and linear solves.

Only ``snf``, ``--oracle`` and library users build an ``IntMatrix``; the other
requests carry tuples and never load this module.  Kernels and solutions are
preimages (``Lattice.preimage``) of 0, over Z/n of n*Z^rows.  Matrices are
immutable values and may be shared freely between threads.
"""

from __future__ import annotations

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
