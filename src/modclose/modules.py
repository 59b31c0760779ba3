"""Finitely presented modules over Z or Z/n, their submodules and quotients.

A module is a quotient Z^g / L where L is the column span of a relation
matrix (plus n*Z^g in the modular case).  A module stores only L, and a
submodule only its preimage lattice, never element sets or matrices;
constructions pass the lattice they hold, and over Z/n every such lattice
contains n*Z^g.
Elements, their enumeration, the submodule lattice (``sub_meet``,
``sub_join``, ``all_submodules``), a submodule as a module
(``sub_as_module``), images and preimages under maps and direct sums live
in :mod:`modclose.elements`, which a request loads only under ``--oracle``;
``is_bounded`` and ``free_summand_rank`` live beside their commands.  Their
old paths here resolve there when read (PEP 562).
"""

from __future__ import annotations

from importlib import import_module

from .lattices import Lattice
from .rings import Ring


def __getattr__(name: str):
    for home, names in (
        ("elements", "_check_same_parent all_submodules sub_as_module sub_join sub_meet"),
        ("commands.bounded", "is_bounded"),
        ("commands.free_rank", "free_summand_rank"),
    ):
        if name in names.split():
            return getattr(import_module(f".{home}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _lattice_arg(value, dim: int, ring: Ring, base, what: str) -> Lattice:
    """The lattice spanned by ``base`` and a matrix or column list over ring."""
    columns = () if value is None else value
    if not isinstance(columns, (list, tuple)):
        from .intmatrix import IntMatrix  # a matrix or another iterable
        if isinstance(value, IntMatrix):
            if value.rows != dim:
                raise ValueError(
                    f"{what} has {value.rows} rows but the module has {dim} generators"
                )
            if value.ring != ring and value.ring.is_modular:
                raise ValueError(f"cannot recast a {value.ring} matrix into {ring}")
            # entries reduced mod n span the same lattice once n*Z^g is in base
            columns = value.columns()
    return Lattice.from_columns(dim, [*base, *columns])


class FPModule:
    """A finitely presented module Z^g / L, stored as its relation lattice L.

    The ``relations`` argument is a relation matrix (or column list),
    echelonized once with n*Z^g over Z/n, or the relation :class:`Lattice`
    itself, taken as is: a lattice in Z^g (containing n*Z^g over Z/n).  The
    ``relations`` property reads the canonical basis back over the ring.

    ``invariant_factors`` is the canonical decomposition: nonunit factors in
    divisibility order, 0 denoting a free summand over Z.  Two values are
    equal iff they present the same quotient on the same generators.
    """

    __slots__ = ("ring", "n_gens", "lattice")

    def __init__(self, ring: Ring, n_gens: int, relations=None):
        if n_gens < 0:
            raise ValueError("generator count must be nonnegative")
        self.ring = ring
        self.n_gens = n_gens
        n = ring.modulus
        # n*Z^g, the relations every module over Z/n has (none over Z)
        scaled_units = [
            tuple(n if i == j else 0 for i in range(n_gens)) for j in range(n_gens)
        ] if n else []
        if isinstance(relations, Lattice):
            if relations.dim != n_gens:
                raise ValueError(
                    f"relation lattice lives in Z^{relations.dim} but the module "
                    f"has {n_gens} generators"
                )
            if not all(relations.contains(c) for c in scaled_units):
                raise ValueError(f"relation lattice does not contain {n}*Z^{n_gens}")
            self.lattice = relations
        else:
            self.lattice = _lattice_arg(
                relations, n_gens, ring, scaled_units, "relation matrix"
            )

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Read from the Smith form the relation lattice memoizes."""
        return self.lattice.quotient_invariants()

    @property
    def relations(self):
        """The canonical basis of the relation lattice, an ``IntMatrix`` over the ring."""
        from .intmatrix import IntMatrix
        return IntMatrix.from_columns(self.lattice.basis, self.n_gens, self.ring)

    # -- structure ----------------------------------------------------------

    def order(self) -> int | None:
        """Number of elements, or ``None`` for an infinite module."""
        return self.lattice.covolume()

    @property
    def is_finite(self) -> bool:
        return self.order() is not None

    @property
    def is_zero(self) -> bool:
        return self.order() == 1

    def free_rank(self) -> int:
        return sum(1 for f in self.invariant_factors if f == 0)

    # -- value semantics ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FPModule)
            and self.ring == other.ring
            and self.n_gens == other.n_gens
            and self.lattice == other.lattice
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.n_gens, self.lattice))

    def __repr__(self) -> str:
        return (
            f"FPModule({self.ring}, gens={self.n_gens}, "
            f"invariants={list(self.invariant_factors)})"
        )


class Submodule:
    """A submodule of a fixed parent, stored as its preimage lattice.

    The ``gens`` argument is a generator matrix (or column list), echelonized
    once with the parent's relation basis, or the preimage :class:`Lattice`
    itself, taken as is: a lattice in Z^g containing the parent's relations.

    ``canonical_gens`` is a deterministic generating set, computed when read:
    a tuple of the echelon basis columns of the preimage lattice that lie
    outside the relation lattice, reduced to canonical coordinates, without
    repeats.  Submodules of the same parent with equal spans compare equal
    and share identical ``canonical_gens``.
    """

    __slots__ = ("parent", "lattice")

    def __init__(self, parent: FPModule, gens=None):
        self.parent = parent
        if isinstance(gens, Lattice):
            if gens.dim != parent.n_gens:
                raise ValueError(
                    f"lattice lives in Z^{gens.dim} but the module has "
                    f"{parent.n_gens} generators"
                )
            if not gens.contains_lattice(parent.lattice):
                raise ValueError("lattice does not contain the parent's relations")
            self.lattice = gens
        else:
            self.lattice = _lattice_arg(
                gens, parent.n_gens, parent.ring, parent.lattice.basis, "generator matrix"
            )

    @property
    def canonical_gens(self) -> tuple[tuple[int, ...], ...]:
        reduced = map(self.parent.lattice.reduce, self.lattice.basis)
        return tuple(dict.fromkeys(c for c in reduced if any(c)))

    # -- predicates ---------------------------------------------------------

    def __contains__(self, x) -> bool:
        """Membership of an element or of a coordinate vector."""
        coords = getattr(x, "coords", x)
        if len(coords) != self.parent.n_gens:
            raise ValueError("coordinate length does not match the parent module")
        return self.lattice.contains(coords)

    contains = __contains__

    @property
    def is_zero(self) -> bool:
        return self.lattice == self.parent.lattice

    @property
    def is_whole(self) -> bool:
        return self.lattice.covolume() == 1

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Submodule)
            and self.parent == other.parent
            and self.lattice == other.lattice
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.lattice))

    def __repr__(self) -> str:
        return f"Submodule(gens={[list(c) for c in self.canonical_gens]!r})"


def quotient_module(m: FPModule, n: Submodule) -> FPModule:
    """The quotient of ``m`` by a submodule, presented on the same generators:
    its relation lattice is the submodule's preimage lattice, taken as is (no
    echelon)."""
    if n.parent != m:
        raise ValueError("submodule does not live in the module being quotiented")
    return FPModule(m.ring, m.n_gens, n.lattice)
