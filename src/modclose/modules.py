"""Finitely presented modules over Z or Z/n and their submodule lattices.

A module is a quotient Z^g / L where L is the column span of a relation
matrix (plus n*Z^g in the modular case).  A module stores only L, and a
submodule only its preimage lattice, never element sets or matrices;
constructions pass the lattice they hold, and over Z/n every such lattice
contains n*Z^g.
Element enumeration exists for finite modules so that test oracles can
cross-check the lattice arithmetic.
Boundedness and free-summand rank over the integers are read off the free
rank.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .lattices import Lattice
from .matrices import IntMatrix
from .rings import Ring


def _lattice_arg(value, dim: int, ring: Ring, base, what: str) -> Lattice:
    """The lattice spanned by ``base`` and a matrix or column list over ring."""
    if value is None:
        columns = []
    elif isinstance(value, IntMatrix):
        if value.rows != dim:
            raise ValueError(
                f"{what} has {value.rows} rows but the module has {dim} generators"
            )
        columns = value.with_ring(ring).columns()
    else:
        columns = list(value)
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

    __slots__ = ("ring", "n_gens", "lattice", "invariant_factors", "_hash")

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
        self.invariant_factors = self.lattice.quotient_invariants()
        self._hash = None

    @property
    def relations(self) -> IntMatrix:
        """The canonical basis of the relation lattice, over the ring."""
        return self.lattice.basis_matrix(self.ring)

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

    # -- elements -------------------------------------------------------------

    def element(self, coords: Sequence[int]) -> "ModuleElement":
        return ModuleElement(self, coords)

    def zero_element(self) -> "ModuleElement":
        return ModuleElement(self, (0,) * self.n_gens)

    def generator(self, i: int) -> "ModuleElement":
        return ModuleElement(
            self, tuple(1 if j == i else 0 for j in range(self.n_gens))
        )

    def elements(self) -> Iterator["ModuleElement"]:
        """All elements, in lexicographic order of canonical coordinates.

        Only finite modules can be enumerated.
        """
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite module")
        boxes = [range(p) for _, p in self.lattice.pivots]

        def rec(prefix, remaining):
            if not remaining:
                yield ModuleElement(self, prefix)
                return
            for x in remaining[0]:
                yield from rec(prefix + (x,), remaining[1:])

        yield from rec((), boxes)

    # -- submodules -------------------------------------------------------------

    def submodule(self, gens) -> "Submodule":
        return Submodule(self, gens)

    def zero_submodule(self) -> "Submodule":
        return Submodule(self, self.lattice)

    def whole_submodule(self) -> "Submodule":
        """The whole module, from the unit lattice Z^g (no echelon)."""
        g = self.n_gens
        units = tuple(tuple(int(i == j) for i in range(g)) for j in range(g))
        return Submodule(self, Lattice(g, units, tuple((j, 1) for j in range(g))))

    # -- value semantics ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FPModule)
            and self.ring == other.ring
            and self.n_gens == other.n_gens
            and self.lattice == other.lattice
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self.n_gens, self.lattice))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"FPModule({self.ring}, gens={self.n_gens}, "
            f"invariants={list(self.invariant_factors)})"
        )


def is_bounded(m: FPModule) -> bool:
    """Whether a Z-module admits no nonzero map to Z: for finitely generated
    modules, no free summand, i.e. no zero among the invariant factors."""
    if m.ring.is_modular:
        raise ValueError("boundedness is defined over the integers; use ring Z")
    return m.free_rank() == 0


def free_summand_rank(m: FPModule) -> int:
    """Rank of the largest free direct summand of a Z-module."""
    if m.ring.is_modular:
        raise ValueError("free-summand rank is defined over the integers; use ring Z")
    return m.free_rank()


def present_module(ring: Ring, n_gens: int, relations=None) -> FPModule:
    """Build a finitely presented module from a relation matrix.

    ``relations`` may be an :class:`IntMatrix` with ``n_gens`` rows, an
    iterable of relation columns, or the relation :class:`Lattice`; ``None``
    means no relations.
    """
    return FPModule(ring, n_gens, relations)


class ModuleElement:
    """An element of an :class:`FPModule`, stored in canonical coordinates."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: FPModule, coords: Sequence[int]):
        if len(coords) != parent.n_gens:
            raise ValueError(
                f"coordinate length {len(coords)} does not match "
                f"{parent.n_gens} generators"
            )
        self.parent = parent
        self.coords = parent.lattice.reduce(coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_parent(other)
        return ModuleElement(
            self.parent, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        self._check_parent(other)
        return ModuleElement(
            self.parent, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.parent, tuple(-a for a in self.coords))

    def __rmul__(self, scalar: int) -> "ModuleElement":
        return ModuleElement(self.parent, tuple(scalar * a for a in self.coords))

    def _check_parent(self, other: "ModuleElement") -> None:
        if self.parent != other.parent:
            raise ValueError("elements of different modules cannot be combined")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModuleElement)
            and self.parent == other.parent
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.coords))

    def __repr__(self) -> str:
        return f"ModuleElement{self.coords!r}"


class Submodule:
    """A submodule of a fixed parent, stored as its preimage lattice.

    The ``gens`` argument is a generator matrix (or column list), echelonized
    once with the parent's relation basis, or the preimage :class:`Lattice`
    itself, taken as is: a lattice in Z^g containing the parent's relations.

    ``canonical_gens`` is a deterministic generating matrix, computed when
    read: the echelon basis of the preimage lattice with columns lying in the
    relation lattice removed (those map to zero) and the survivors reduced to
    canonical coordinates.  Submodules of the same parent with equal spans
    compare equal and share identical ``canonical_gens``.
    """

    __slots__ = ("parent", "lattice", "_hash")

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
        self._hash = None

    @property
    def canonical_gens(self) -> IntMatrix:
        parent = self.parent
        reduced = map(parent.lattice.reduce, self.lattice.basis)
        cols = list(dict.fromkeys(c for c in reduced if any(c)))
        return IntMatrix.from_columns(cols, parent.n_gens, parent.ring)

    # -- predicates ---------------------------------------------------------

    def contains(self, x) -> bool:
        coords = x.coords if isinstance(x, ModuleElement) else x
        if len(coords) != self.parent.n_gens:
            raise ValueError("coordinate length does not match the parent module")
        return self.lattice.contains(coords)

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def is_subset_of(self, other: "Submodule") -> bool:
        _check_same_parent(self, other)
        return other.lattice.contains_lattice(self.lattice)

    @property
    def is_zero(self) -> bool:
        return self.lattice == self.parent.lattice

    @property
    def is_whole(self) -> bool:
        return self.lattice.covolume() == 1

    def size(self) -> int | None:
        """Number of elements of the submodule, or ``None`` when infinite."""
        sub_covol = self.lattice.covolume()
        amb_covol = self.parent.lattice.covolume()
        if sub_covol is None or amb_covol is None:
            return None
        return amb_covol // sub_covol

    def elements(self) -> Iterator[ModuleElement]:
        for x in self.parent.elements():
            if self.contains(x):
                yield x

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Submodule)
            and self.parent == other.parent
            and self.lattice == other.lattice
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.parent, self.lattice))
        return self._hash

    def __repr__(self) -> str:
        return f"Submodule(gens={[list(c) for c in self.canonical_gens.columns()]!r})"


def _check_same_parent(u: Submodule, v: Submodule) -> None:
    if u.parent != v.parent:
        raise ValueError("submodules have different parent modules")


def sub_meet(u: Submodule, v: Submodule) -> Submodule:
    """Intersection of two submodules of the same parent."""
    _check_same_parent(u, v)
    return Submodule(u.parent, u.lattice.intersect(v.lattice))


def sub_join(u: Submodule, v: Submodule) -> Submodule:
    """Sum of two submodules of the same parent."""
    _check_same_parent(u, v)
    return Submodule(u.parent, u.lattice.sum(v.lattice))


def quotient_module(m: FPModule, n: Submodule) -> FPModule:
    """The quotient of ``m`` by a submodule, presented on the same generators:
    its relation lattice is the submodule's preimage lattice, taken as is (no
    echelon)."""
    if n.parent != m:
        raise ValueError("submodule does not live in the module being quotiented")
    return FPModule(m.ring, m.n_gens, n.lattice)


def sub_image(f, u: Submodule) -> Submodule:
    """Image of a submodule of the domain under a homomorphism: one echelon
    of the codomain's relation basis and the images of the generators."""
    if u.parent != f.dom:
        raise ValueError("submodule does not live in the homomorphism's domain")
    images = tuple(f.matrix.apply(c) for c in u.canonical_gens.columns())
    lattice = Lattice.from_columns(f.cod.n_gens, f.cod.lattice.basis + images)
    return Submodule(f.cod, lattice)


def sub_preimage(f, w: Submodule) -> Submodule:
    """Preimage ``{x : f(x) in w}`` of a submodule of the codomain."""
    if w.parent != f.cod:
        raise ValueError("submodule does not live in the homomorphism's codomain")
    return Submodule(f.dom, w.lattice.preimage(f.matrix))


def sub_as_module(u: Submodule):
    """Present a submodule as a module in its own right.

    Returns ``(module, inclusion)`` where the module is generated by the
    columns of ``canonical_gens`` and the inclusion maps those generators back
    into the parent.
    """
    parent = u.parent
    b = u.canonical_gens
    rel = parent.lattice.preimage(b)
    smod = FPModule(parent.ring, b.cols, rel)
    from .homs import Homomorphism

    return smod, Homomorphism(smod, parent, b)


def direct_sum(m1: FPModule, m2: FPModule) -> FPModule:
    """External direct sum, presented on the concatenated generators.

    The two canonical relation bases, padded with zeros, are already the
    canonical basis of the block-diagonal relation lattice.
    """
    if m1.ring != m2.ring:
        raise ValueError("direct sum needs a common ring")
    g1, g2 = m1.n_gens, m2.n_gens
    a, b = m1.lattice, m2.lattice
    block = Lattice(
        g1 + g2,
        tuple(c + (0,) * g2 for c in a.basis) + tuple((0,) * g1 + c for c in b.basis),
        a.pivots + tuple((r + g1, p) for r, p in b.pivots),
    )
    return FPModule(m1.ring, g1 + g2, block)


def all_submodules(m: FPModule) -> list[Submodule]:
    """Every submodule of a finite module.

    Computed on preimage lattices as the join-closure of the cyclic
    submodules: one generator is kept per distinct cyclic lattice, a lattice
    is extended by one generator column at a time (skipping generators it
    already contains), and a :class:`Submodule` is built only for each final
    lattice.  Returned in a deterministic order.
    """
    if not m.is_finite:
        raise ValueError("submodule enumeration requires a finite module")
    dim, base = m.n_gens, m.lattice.basis
    gens = []
    seen_cyc = set()
    for x in m.elements():
        c = Lattice.from_columns(dim, base + (x.coords,))
        if c not in seen_cyc:
            seen_cyc.add(c)
            gens.append(x.coords)
    found = {m.lattice}
    frontier = [m.lattice]
    while frontier:
        s = frontier.pop()
        for x in gens:
            if s.contains(x):
                continue
            j = Lattice.from_columns(dim, s.basis + (x,))
            if j not in found:
                found.add(j)
                frontier.append(j)
    lattices = sorted(found, key=lambda lat: (len(lat.basis), lat.basis))
    return [Submodule(m, lat) for lat in lattices]
