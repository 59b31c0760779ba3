"""Homomorphisms between finitely presented modules.

Hom(M, N) is computed as a finitely generated module with an explicit
generating set, by the gcd formula in the Smith coordinates of M and N:
Hom(sum_j Z/d_j, sum_i Z/e_i) = sum_{i,j} Z/gcd(d_j, e_i), with
Hom(Z/d, Z) = 0 for d != 0.  The Baer-criterion injectivity test, the oracle
of ``closure.is_injective_by_structure``, lives alongside; the brute-force
enumeration oracle is ``oracles.enumerate_homs``.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Iterator

from .matrices import IntMatrix, _snf_with_inverses
from .modules import FPModule, ModuleElement, Submodule
from .rings import ZZ, _divisors


class Homomorphism:
    """A module map given by a matrix on generators (cod gens x dom gens).

    Construction certifies well-definedness: every relation of the domain
    must map into the relation lattice of the codomain.  Columns are stored
    in canonical coordinates, so the zero map has the zero matrix and equal
    maps have equal matrices.
    """

    __slots__ = ("dom", "cod", "matrix", "_hash")

    def __init__(self, dom: FPModule, cod: FPModule, matrix):
        if dom.ring != cod.ring:
            raise ValueError("domain and codomain must share a ring")
        if isinstance(matrix, IntMatrix):
            mat = matrix if matrix.ring == dom.ring else matrix.with_ring(dom.ring)
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
        self.dom = dom
        self.cod = cod
        self.matrix = _canonical_matrix(cod, mat.columns())
        self._hash = None

    @classmethod
    def _trusted(cls, dom: FPModule, cod: FPModule, canonical: IntMatrix):
        obj = object.__new__(cls)
        obj.dom = dom
        obj.cod = cod
        obj.matrix = canonical
        obj._hash = None
        return obj

    @classmethod
    def identity(cls, m: FPModule) -> "Homomorphism":
        return cls(m, m, IntMatrix.identity(m.n_gens, m.ring))

    @classmethod
    def zero(cls, dom: FPModule, cod: FPModule) -> "Homomorphism":
        return cls(dom, cod, IntMatrix.zeros(cod.n_gens, dom.n_gens, dom.ring))

    # -- action ---------------------------------------------------------------

    def __call__(self, x: ModuleElement) -> ModuleElement:
        if x.parent != self.dom:
            raise ValueError("element is not in the domain")
        return ModuleElement(self.cod, self.matrix.apply(x.coords))

    def compose(self, other: "Homomorphism") -> "Homomorphism":
        """self after other."""
        if other.cod != self.dom:
            raise ValueError("composition needs matching middle module")
        return Homomorphism(other.dom, self.cod, self.matrix @ other.matrix)

    def __add__(self, other: "Homomorphism") -> "Homomorphism":
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError("sum needs equal domain and codomain")
        grid = [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.matrix.entries, other.matrix.entries)
        ]
        return Homomorphism(self.dom, self.cod, IntMatrix(grid, self.dom.ring,
                                                          rows=self.cod.n_gens,
                                                          cols=self.dom.n_gens))

    def scale(self, r: int) -> "Homomorphism":
        grid = [[r * x for x in row] for row in self.matrix.entries]
        return Homomorphism(self.dom, self.cod, IntMatrix(grid, self.dom.ring,
                                                          rows=self.cod.n_gens,
                                                          cols=self.dom.n_gens))

    @property
    def is_zero(self) -> bool:
        return self.matrix.is_zero

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Homomorphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dom, self.cod, self.matrix))
        return self._hash

    def __repr__(self) -> str:
        return f"Homomorphism({list(map(list, self.matrix.entries))!r})"


def _canonical_matrix(cod: FPModule, columns) -> IntMatrix:
    """The matrix of integer image columns, each reduced by the codomain's
    relation lattice, which over Z/n contains n*Z^g, so the entries are read
    whatever their ring."""
    reduce = cod.lattice.reduce
    return IntMatrix.from_columns([reduce(c) for c in columns], cod.n_gens, cod.ring)


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


class HomGroup:
    """Hom(M, N) as a finitely generated module.

    ``generators[i]`` has order ``structure[i]`` (0 meaning infinite), the
    factors are in divisibility order, and every homomorphism is a unique
    combination ``sum r_i * generators[i]`` with ``0 <= r_i < structure[i]``.
    """

    __slots__ = ("dom", "cod", "generators", "structure")

    def __init__(self, dom, cod, generators, structure):
        self.dom = dom
        self.cod = cod
        self.generators = generators
        self.structure = structure

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def element_count(self) -> int | None:
        total = 1
        for d in self.structure:
            if d == 0:
                return None
            total *= d
        return total

    def elements(self) -> Iterator[Homomorphism]:
        """Every homomorphism, when the group is finite."""
        if self.element_count() is None:
            raise ValueError("cannot enumerate an infinite hom group")
        b, a = self.cod.n_gens, self.dom.n_gens
        gen_grids = [g.matrix.entries for g in self.generators]
        for coeffs in product(*(range(d) for d in self.structure)):
            cols = [
                [
                    sum(r * g[i][j] for r, g in zip(coeffs, gen_grids))
                    for i in range(b)
                ]
                for j in range(a)
            ]
            mat = _canonical_matrix(self.cod, cols)
            yield Homomorphism._trusted(self.dom, self.cod, mat)

    def __repr__(self) -> str:
        return f"HomGroup(structure={list(self.structure)!r})"


# Cap on the pieces Z/gcd(d_j, e_i) of one hom group.  Their regrouping is a
# dense s x s Smith reduction, cubic in the piece count s: Hom(Z^k, (Z/2)^k)
# took 0.46 s at 256 pieces, 5.7 s at 576, 12 s at 784 and 29 s at 1,024
# (77 MB peak RSS) on a 2-core VM, while a workspace module may have 256
# generators, so a request could ask for 65,536 pieces.  The benchmark's
# largest has 60.
HOM_PIECE_CAP = 576


def hom_group(m: FPModule, n: FPModule) -> HomGroup:
    """Hom(M, N) with an explicit generating set.

    In Smith coordinates M = sum_j Z/d_j and N = sum_i Z/e_i, so Hom(M, N)
    is the sum of the pieces Hom(Z/d_j, Z/e_i) = Z/gcd(d_j, e_i), generated
    by multiplication with e_i / gcd(d_j, e_i) (with 1 when d_j is 0, and
    no piece when d_j is nonzero and e_i is 0).  A piece maps back to the
    presentations as ``U_N^-1 E_ij U_M``.  The pieces are regrouped by one
    Smith reduction of their orders, so generators are aligned with the
    invariant factors and enumerating coefficient boxes walks each
    homomorphism exactly once.  More than ``HOM_PIECE_CAP`` pieces raise
    ``ValueError`` before that reduction.
    """
    if m.ring != n.ring:
        raise ValueError("hom groups need a common ring")
    a, b = m.n_gens, n.n_gens
    d, u_m, _ = m.lattice.smith_coordinates()
    e, _, uinv_n = n.lattice.smith_coordinates()

    # (i, j, multiplier) per piece Z/gcd(d_j, e_i) with a nonunit order
    pieces = []
    orders = []
    for j, dj in enumerate(d):
        for i, ei in enumerate(e):
            g = gcd(dj, ei)
            if g == 1 or (dj and not ei):
                continue
            pieces.append((i, j, ei // g if dj else 1))
            orders.append(g)
    s = len(pieces)
    if s > HOM_PIECE_CAP:
        raise ValueError(
            f"hom group too large: {s} cyclic pieces, past the cap of "
            f"{HOM_PIECE_CAP}; use modules with fewer invariant factors"
        )
    rel_mat = IntMatrix(
        [[orders[k] if k == l else 0 for l in range(s)] for k in range(s)], ZZ,
        rows=s, cols=s,
    )
    _, dd, _, uinv = _snf_with_inverses(rel_mat)
    # generator t is U_N^-1 Phi_t U_M, where Phi_t holds c * uinv[k][t] at
    # (i, j) for each piece k = (i, j, c): a sum of the rank-one products
    # (column i of U_N^-1)(row j of U_M), one per nonzero coefficient
    uinv_cols = [tuple(row[i] for row in uinv_n) for i in range(b)]

    gens = []
    structure = []
    for t in range(s):
        f = dd[t][t]
        if f == 1:
            continue
        cols = [[0] * b for _ in range(a)]
        for k, (i, j, c) in enumerate(pieces):
            coef = c * uinv[k][t]
            if not coef:
                continue
            left = uinv_cols[i]
            for col, x in zip(cols, u_m[j]):
                if x:
                    x *= coef
                    for r in range(b):
                        col[r] += x * left[r]
        gens.append(Homomorphism._trusted(m, n, _canonical_matrix(n, cols)))
        structure.append(f)
    return HomGroup(m, n, tuple(gens), tuple(structure))


def kernel_of_hom(f: Homomorphism) -> Submodule:
    """The submodule ``{x : f(x) = 0}`` of the domain."""
    return Submodule(f.dom, f.cod.lattice.preimage(f.matrix))


def is_injective_module(a: FPModule) -> bool:
    """Baer-criterion brute force over a modular ring.

    The oracle for :func:`modclose.closure.is_injective_by_structure`.  The
    ideals of Z/n are exactly the cyclic ideals generated by divisors of n,
    so injectivity reduces to: for each divisor d > 1 (d = 1 holds
    trivially), every element killed by n/d is divisible by d.  For the ring
    of integers use the divisible injectives instead.
    """
    if not a.ring.is_modular:
        raise ValueError(
            "injectivity testing needs a modular ring; over the integers the "
            "divisible modules Q and Q/Z play this role"
        )
    n = a.ring.modulus
    elements = [x.coords for x in a.elements()]
    lattice = a.lattice
    for d in _divisors(n, n):
        e = n // d
        annihilated = [x for x in elements if not any(lattice.reduce(tuple(e * c for c in x)))]
        multiples = {lattice.reduce(tuple(d * c for c in x)) for x in elements}
        if any(lattice.reduce(x) not in multiples for x in annihilated):
            return False
    return True
