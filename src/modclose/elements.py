"""Element-level code: module elements, the submodule lattice, and the
homomorphism certificate, kernels, hom-group elements and Baer test.

The paper's results are computed on lattices, so the command-line paths call
none of this: a request loads this module only under ``--oracle``.  Otherwise
it serves library users and the tests; helpers that only the tests call
(identity and zero maps, map arithmetic) live with the tests.
The modules every request loads reach it only lazily: the certifying
``Homomorphism`` constructor imports it when called, and the names moved
here from ``modules`` and ``homs`` resolve at their old paths when read.
Methods that lived on those modules' classes are functions here, taking the
object they act on first.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import TYPE_CHECKING, Iterator, Sequence

from .homs import Homomorphism, HomGroup, _canonical_matrix
from .intmatrix import IntMatrix
from .lattices import Lattice
from .modules import FPModule, Submodule
from .rings import Ring

if TYPE_CHECKING:
    from .closure import Subcategory
    from .workspace import Workspace


# -- matrices -------------------------------------------------------------------


def with_ring(a: IntMatrix, ring: Ring) -> IntMatrix:
    """``a`` reinterpreted over ``ring`` (integer matrices may be reduced; a
    modular matrix only recasts to its own ring)."""
    if ring == a.ring:
        return a
    if a.ring.is_modular:
        raise ValueError(f"cannot recast a {a.ring} matrix into {ring}")
    return IntMatrix(a.entries, ring, rows=a.rows, cols=a.cols)


# -- lattices -------------------------------------------------------------------


def invariants_over(lat: Lattice, sub: Lattice) -> tuple[int, ...]:
    """Invariant factors of lat / sub, for a sublattice ``sub``, and
    ``ValueError`` when ``sub`` does not lie in ``lat``.

    The preimage of ``sub`` under the basis of ``lat`` is the lattice of the
    coordinates of ``sub`` in that basis, so the quotient is Z^k modulo it,
    k the rank of ``lat``.
    """
    if sub.dim != lat.dim:
        raise ValueError("lattice quotient needs a common ambient dimension")
    if not lat.contains_lattice(sub):
        raise ValueError("lattice is not contained in this lattice")
    return sub.preimage(lat.basis).quotient_invariants()


# -- modules and their elements ----------------------------------------------------


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


def generator(m: FPModule, i: int) -> ModuleElement:
    return ModuleElement(m, tuple(1 if j == i else 0 for j in range(m.n_gens)))


def module_elements(m: FPModule) -> Iterator[ModuleElement]:
    """All elements of a finite module, in lexicographic order of canonical
    coordinates."""
    if not m.is_finite:
        raise ValueError("cannot enumerate an infinite module")
    for coords in product(*(range(p) for _, p in m.lattice.pivots)):
        yield ModuleElement(m, coords)


# -- submodules ---------------------------------------------------------------------


def zero_submodule(m: FPModule) -> Submodule:
    return Submodule(m, m.lattice)


def whole_submodule(m: FPModule) -> Submodule:
    """The whole module, from the unit lattice Z^g (no echelon)."""
    g = m.n_gens
    units = tuple(tuple(int(i == j) for i in range(g)) for j in range(g))
    return Submodule(m, Lattice(g, units, tuple((j, 1) for j in range(g))))


def _check_same_parent(u: Submodule, v: Submodule) -> None:
    if u.parent != v.parent:
        raise ValueError("submodules have different parent modules")


def is_subset_of(u: Submodule, v: Submodule) -> bool:
    _check_same_parent(u, v)
    return v.lattice.contains_lattice(u.lattice)


def sub_meet(u: Submodule, v: Submodule) -> Submodule:
    """Intersection of two submodules of the same parent."""
    _check_same_parent(u, v)
    return Submodule(u.parent, u.lattice.intersect(v.lattice))


def sub_join(u: Submodule, v: Submodule) -> Submodule:
    """Sum of two submodules of the same parent."""
    _check_same_parent(u, v)
    lat = Lattice.from_columns(u.parent.n_gens, u.lattice.basis + v.lattice.basis)
    return Submodule(u.parent, lat)


def sub_as_module(u: Submodule):
    """Present a submodule as a module in its own right.

    Returns ``(module, inclusion)`` where the module is generated by the
    columns of ``canonical_gens`` and the inclusion maps those generators back
    into the parent.
    """
    parent = u.parent
    b = u.canonical_gens
    smod = FPModule(parent.ring, len(b), parent.lattice.preimage(b))
    inclusion = IntMatrix.from_columns(b, parent.n_gens, parent.ring)
    return smod, Homomorphism(smod, parent, inclusion)


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
    for x in module_elements(m):
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


def sub_image(f: Homomorphism, u: Submodule) -> Submodule:
    """Image of a submodule of the domain under a homomorphism: one echelon
    of the codomain's relation basis and the images of the generators."""
    if u.parent != f.dom:
        raise ValueError("submodule does not live in the homomorphism's domain")
    images = tuple(f.matrix.apply(c) for c in u.canonical_gens)
    lattice = Lattice.from_columns(f.cod.n_gens, f.cod.lattice.basis + images)
    return Submodule(f.cod, lattice)


def sub_preimage(f: Homomorphism, w: Submodule) -> Submodule:
    """Preimage ``{x : f(x) in w}`` of a submodule of the codomain."""
    if w.parent != f.cod:
        raise ValueError("submodule does not live in the homomorphism's codomain")
    return Submodule(f.dom, w.lattice.preimage(f.matrix.columns()))


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


# -- homomorphisms ----------------------------------------------------------------------


def _is_compatible(dom: FPModule, cod: FPModule, columns: list) -> bool:
    """Well-definedness certificate: every relation of the domain is sent,
    by the image columns, into the relation lattice of the codomain."""
    contains = cod.lattice.contains
    for rel in dom.lattice.basis:
        img = tuple(
            sum(columns[j][i] * rel[j] for j in range(len(columns)))
            for i in range(cod.n_gens)
        )
        if not contains(img):
            return False
    return True


def certified_matrix(dom: FPModule, cod: FPModule, matrix) -> tuple:
    """The canonical rows of the map ``matrix`` (an :class:`IntMatrix` or
    rows), after checking that every relation of the domain is sent into the
    relation lattice of the codomain; the ``Homomorphism`` constructor."""
    if dom.ring != cod.ring:
        raise ValueError("domain and codomain must share a ring")
    if isinstance(matrix, IntMatrix):
        mat = with_ring(matrix, dom.ring)
    else:
        mat = IntMatrix(matrix, dom.ring)
    if mat.rows != cod.n_gens or mat.cols != dom.n_gens:
        raise ValueError(
            f"matrix must be {cod.n_gens}x{dom.n_gens}, got {mat.rows}x{mat.cols}"
        )
    if not _is_compatible(dom, cod, mat.columns()):
        raise ValueError(
            "matrix does not define a homomorphism: a relation of the "
            "domain is not sent into the relation lattice of the codomain"
        )
    return _canonical_matrix(cod, mat.columns())


def kernel_of_hom(f: Homomorphism) -> Submodule:
    """The submodule ``{x : f(x) = 0}`` of the domain."""
    return Submodule(f.dom, f.cod.lattice.preimage(f.matrix.columns()))


def hom_apply(f: Homomorphism, x: ModuleElement) -> ModuleElement:
    """f(x)."""
    if x.parent != f.dom:
        raise ValueError("element is not in the domain")
    return ModuleElement(f.cod, f.matrix.apply(x.coords))


def hom_group_order(hg: HomGroup) -> int | None:
    """The number of homomorphisms, or ``None`` when there are infinitely many."""
    total = 1
    for d in hg.structure:
        if d == 0:
            return None
        total *= d
    return total


def hom_group_elements(hg: HomGroup) -> Iterator[Homomorphism]:
    """Every homomorphism of a finite hom group, each once: the combinations
    ``sum r_i * generators[i]`` with ``0 <= r_i < structure[i]``."""
    if hom_group_order(hg) is None:
        raise ValueError("cannot enumerate an infinite hom group")
    b, a = hg.cod.n_gens, hg.dom.n_gens
    gen_grids = [g.rows for g in hg.generators]
    for coeffs in product(*(range(d) for d in hg.structure)):
        cols = [
            [sum(r * g[i][j] for r, g in zip(coeffs, gen_grids)) for i in range(b)]
            for j in range(a)
        ]
        yield Homomorphism._trusted(hg.dom, hg.cod, _canonical_matrix(hg.cod, cols))


def is_injective_module(a: FPModule) -> bool:
    """Baer-criterion brute force over a modular ring, the oracle for
    :func:`modclose.closure.is_injective_by_structure`.

    The ideals of Z/n are exactly the cyclic ideals generated by divisors of
    n, so injectivity reduces to: for each divisor d > 1 (d = 1 holds
    trivially), every element killed by n/d is divisible by d.
    """
    if not a.ring.is_modular:
        raise ValueError(
            "injectivity testing needs a modular ring; over the integers the "
            "divisible modules Q and Q/Z play this role"
        )
    from .torsion import _divisors
    n = a.ring.modulus
    elements = [x.coords for x in module_elements(a)]
    lattice = a.lattice
    for d in _divisors(n, n):
        e = n // d
        annihilated = [x for x in elements if not any(lattice.reduce(tuple(e * c for c in x)))]
        multiples = {lattice.reduce(tuple(d * c for c in x)) for x in elements}
        if any(lattice.reduce(x) not in multiples for x in annihilated):
            return False
    return True


# -- closure and torsion predicates ---------------------------------------------------------


def is_dense(m: FPModule, n: Submodule, cat: Subcategory) -> bool:
    """Whether the closure of ``n`` is all of ``m``."""
    from .closure import _check_compat, _closure_lattice

    _check_compat(m, n, cat)
    return _closure_lattice(n.lattice, cat).covolume() == 1


def is_closed(m: FPModule, n: Submodule, cat: Subcategory) -> bool:
    """Whether ``n`` equals its own closure."""
    from .closure import _check_compat, _closure_lattice

    _check_compat(m, n, cat)
    return _closure_lattice(n.lattice, cat) == n.lattice


class Classification(Enum):
    TORSION = "torsion"
    TORSION_FREE = "torsion_free"
    MIXED = "mixed"


def classify(x: FPModule, cat: Subcategory) -> Classification:
    """Torsion when the radical is everything, torsion-free when it is zero.

    The zero module satisfies both and is reported as torsion.
    """
    from .torsion import torsion_radical

    t = torsion_radical(x, cat)
    if t.is_whole:
        return Classification.TORSION
    if t.is_zero:
        return Classification.TORSION_FREE
    return Classification.MIXED


# -- workspaces ------------------------------------------------------------------------------


def serialize_workspace(ws: Workspace) -> dict:
    """The document of a workspace: each module as the canonical basis of its
    relation lattice, each submodule as its ``canonical_gens``; loading it
    gives the workspace back."""
    from .workspace import encode_int, ring_name

    return {
        "ring": ring_name(ws.ring),
        "modules": {
            name: {
                "generators": m.n_gens,
                "relations": [[encode_int(x) for x in c] for c in m.lattice.basis],
            }
            for name, m in ws.modules.items()
        },
        "submodules": {
            name: {
                "parent": ws.submodule_parents[name],
                "gens": [[encode_int(x) for x in c] for c in s.canonical_gens],
            }
            for name, s in ws.submodules.items()
        },
        "subcategories": {
            name: {
                "finite": list(ws.subcategory_members[name][0]),
                "divisible": list(ws.subcategory_members[name][1]),
            }
            for name in ws.subcategories
        },
    }
