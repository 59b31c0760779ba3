"""Integer lattices in Z^dim, held by their unique column echelon basis.

Every finitely presented module in this package is a quotient Z^g / L for a
lattice L, and every submodule is an intermediate lattice; keeping each
lattice in Hermite-style canonical form makes equality syntactic and coset
reduction deterministic.

Intersections and preimages are read from one echelon of stacked columns
(``from_stacked``); the kernels and linear solves of ``intmatrix`` are
preimages too.  Smith reduction is used only for the quotient's Smith
coordinates, from which the saturation is read.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence

from .matrices import _Grid, _identity_stack, _snf_with_inverses, _stacked_echelon
from .rings import _seen_part


class Lattice:
    """A sublattice of Z^dim with canonical echelon basis.

    The basis columns have strictly increasing pivot rows, positive pivots,
    and entries of earlier columns reduced into ``[0, pivot)`` at every pivot
    row; two lattices are equal iff their bases are identical tuples.
    """

    __slots__ = ("dim", "basis", "pivots", "_smith")

    def __init__(self, dim: int, basis: tuple, pivots: tuple):
        self.dim = dim
        self.basis = basis
        self.pivots = pivots  # (row, value) per basis column, rows ascending
        self._smith = None

    @classmethod
    def from_columns(cls, dim: int, columns: Iterable[Sequence[int]]) -> "Lattice":
        """The lattice spanned by ``columns``, in canonical form.

        The echelon is reduced as it is built (see ``matrices._echelon``), so
        intermediate entries stay near the size of the canonical basis.
        """
        return cls.from_stacked(0, dim, columns)

    @classmethod
    def from_stacked(
        cls, top: int, dim: int, columns: Iterable[Sequence[int]]
    ) -> "Lattice":
        """The lattice ``{y in Z^dim : (0, y) in span(columns)}`` of columns
        stacked in Z^(top + dim), read from their echelon."""
        basis, pivrows = _stacked_echelon(top, dim, columns)
        return cls(
            dim,
            tuple(tuple(b) for b in basis),
            tuple((r, basis[j][r]) for j, r in enumerate(pivrows)),
        )

    @classmethod
    def diagonal(cls, chain: Sequence[int]) -> "Lattice":
        """The lattice spanned by ``chain[j] * e_j``, for a chain of positive
        integers each dividing the next.

        Its basis is canonical as it stands, and it is its own Smith form:
        a chain is already Hermite both ways, so no pass of
        ``_snf_with_inverses`` moves it, and the coordinates are the chain
        with identity transforms.  Neither an echelon nor a Smith reduction
        runs.
        """
        k = len(chain)
        units = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        lat = cls(
            k,
            tuple(tuple(d if i == j else 0 for i in range(k)) for j, d in enumerate(chain)),
            tuple(enumerate(chain)),
        )
        lat._smith = (tuple(chain), units, units)
        return lat

    # -- coset arithmetic ----------------------------------------------------

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of ``vec`` modulo this lattice."""
        v = list(map(index, vec))
        if len(v) != self.dim:
            raise ValueError(f"vector of length {len(v)} in Z^{self.dim}")
        for (r, p), col in zip(self.pivots, self.basis):
            q = v[r] // p
            if q:
                for i in range(r, self.dim):
                    v[i] -= q * col[i]
        return tuple(v)

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(c) for c in other.basis)

    # -- lattice arithmetic ---------------------------------------------------

    def intersect(self, other: "Lattice") -> "Lattice":
        """The intersection, from the stacked columns ``(b, b)`` for b in
        self and ``(c, 0)`` for c in other: the lower blocks of their
        combinations with a zero upper block are the vectors of both."""
        if self.dim != other.dim:
            raise ValueError("lattice intersection needs a common ambient dimension")
        zero = (0,) * self.dim
        cols = [b + b for b in self.basis] + [c + zero for c in other.basis]
        return Lattice.from_stacked(self.dim, self.dim, cols)

    def saturation(self, e: int = 1) -> "Lattice":
        """The lattice of all x with k*x in self for some k >= 1 coprime to
        ``e``: for each summand Z/d with d nonzero, its Smith generator times
        the part of d on the primes of ``e``.  The default ``e = 1`` keeps
        every such generator, and ``e = 0`` gives self back."""
        diag, _, uinv = self.smith_coordinates()
        return Lattice.from_columns(
            self.dim,
            [tuple(_seen_part(d, e) * x for x in col) for d, col in zip(diag, uinv) if d],
        )

    def preimage(self, images: Sequence[Sequence[int]]) -> "Lattice":
        """``{x in Z^k : sum_j x_j * images[j] in self}`` for the images in
        Z^dim of the unit vectors of Z^k, from the columns ``(images[j], e_j)``
        and ``(l, 0)`` for l in self.  Only the entries are read, so images
        over Z/n are taken as they are when self contains n*Z^dim."""
        k = len(images)
        if any(len(c) != self.dim for c in images):
            raise ValueError(f"an image does not lie in Z^{self.dim}")
        cols = _identity_stack(images) + [c + (0,) * k for c in self.basis]
        return Lattice.from_stacked(self.dim, k, cols)

    # -- quotient data ---------------------------------------------------------

    def smith_coordinates(self) -> tuple[tuple[int, ...], tuple, tuple]:
        """Smith decomposition of Z^dim / self as ``(diag, u, uinv)``.

        ``diag`` has ``dim`` entries, units included, each dividing the next,
        with 0 (free factor) last.  Coordinate ``i`` of ``u @ x`` is the image
        of ``x`` in the summand Z/diag[i] (``u`` is a tuple of row tuples),
        and ``uinv[i]``, column i of ``uinv = u^-1``, generates that summand.

        The reduction runs once per instance: the result is kept on this
        object and freed with it.  Equal lattices built separately reduce
        again.
        """
        if self._smith is None:
            # the basis transposed into rows, read as they stand
            basis = self.basis
            rows = tuple(zip(*basis)) if basis else ((),) * self.dim
            u, d, _, uinv = _snf_with_inverses(_Grid(rows, len(basis)))
            diag_len = min(self.dim, len(basis))
            self._smith = (
                tuple(d[i][i] if i < diag_len else 0 for i in range(self.dim)),
                tuple(map(tuple, u)),
                tuple(zip(*uinv)),
            )
        return self._smith

    def quotient_invariants(self) -> tuple[int, ...]:
        """Invariant factors of Z^dim / self: nonunits only, each dividing the
        next, with 0 (free factor) last."""
        return tuple(f for f in self.smith_coordinates()[0] if f != 1)

    def covolume(self) -> int | None:
        """Order of Z^dim / self, or ``None`` when the quotient is infinite."""
        if len(self.pivots) != self.dim:
            return None
        out = 1
        for _, p in self.pivots:
            out *= p
        return out

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Lattice)
            and self.dim == other.dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.basis))

    def __repr__(self) -> str:
        return f"Lattice(dim={self.dim}, basis={[list(c) for c in self.basis]!r})"
