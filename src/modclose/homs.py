"""Homomorphisms between finitely presented modules.

Hom(M, N) is computed as a finitely generated module with an explicit
generating set, by the gcd formula in the Smith coordinates of M and N:
Hom(sum_j Z/d_j, sum_i Z/e_i) = sum_{i,j} Z/gcd(d_j, e_i), with
Hom(Z/d, Z) = 0 for d != 0, the pieces regrouped into invariant factors by
pairwise gcds and lcms (``rings._regroup``).  ``HOM_PIECE_CAP`` bounds the
piece count s, and with it the answer: at most s generators, each a matrix
of the size of the presentations.  A map is held by its canonical rows.
The certificate of a map given by a matrix, ``kernel_of_hom``, the listing
of a hom group's elements and the Baer-criterion injectivity test
(``is_injective_module``, the oracle of ``closure.is_injective_by_structure``)
live in :mod:`modclose.elements`, which a request loads only under
``--oracle``; their old paths here resolve there (PEP 562).  The brute-force
enumeration oracle is ``oracles.enumerate_homs``.
"""

from __future__ import annotations

from math import gcd

from .modules import FPModule
from .rings import _regroup


def __getattr__(name: str):
    if name in ("kernel_of_hom", "is_injective_module"):
        from . import elements

        return getattr(elements, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Homomorphism:
    """A module map given by a matrix on generators (cod gens x dom gens).

    Construction certifies well-definedness (``elements.certified_matrix``):
    every relation of the domain must map into the relation lattice of the
    codomain.  The map is stored as ``rows``, a tuple of ``cod.n_gens`` row
    tuples whose columns are in canonical coordinates, so the zero map has
    zero rows and equal maps have equal rows.
    """

    __slots__ = ("dom", "cod", "rows")

    def __init__(self, dom: FPModule, cod: FPModule, matrix):
        from .elements import certified_matrix

        self.dom = dom
        self.cod = cod
        self.rows = certified_matrix(dom, cod, matrix)

    @classmethod
    def _trusted(cls, dom: FPModule, cod: FPModule, rows: tuple):
        obj = object.__new__(cls)
        obj.dom = dom
        obj.cod = cod
        obj.rows = rows
        return obj

    @property
    def matrix(self):
        """The ``IntMatrix`` of ``rows`` over the codomain's ring, built on read."""
        from .intmatrix import IntMatrix

        return IntMatrix._trusted(self.rows, self.dom.n_gens, self.cod.ring)

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Homomorphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.rows))

    def __repr__(self) -> str:
        return f"Homomorphism({list(map(list, self.rows))!r})"


def _canonical_matrix(cod: FPModule, columns) -> tuple:
    """The rows of the matrix of integer image columns, each reduced by the
    codomain's relation lattice, which over Z/n contains n*Z^g, so the
    entries are read whatever their ring.  The reduced entries are ints, and
    over Z/n every row is a pivot row whose pivot divides n, so they already
    lie in ``[0, n)`` and the rows are taken as they are."""
    reduced = [cod.lattice.reduce(c) for c in columns]
    return tuple(zip(*reduced)) or ((),) * cod.n_gens


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

    def __repr__(self) -> str:
        return f"HomGroup(structure={list(self.structure)!r})"


# Cap on the pieces Z/gcd(d_j, e_i) of one hom group.  The answer is up to s
# generators of b x a cells for s pieces, so Hom(Z^k, (Z/2)^k), k^4 cells,
# took 0.10 s at 576 pieces, 0.35 s at 1,024 and 1.2 s at 2,304 (in process,
# a 2-core VM; 0.3 s for the whole CLI request at 576), while a workspace
# module may have 256 generators, so a request could ask for 65,536 pieces
# of 65,536 cells each.  The benchmark's largest has 60.
HOM_PIECE_CAP = 576


def hom_group(m: FPModule, n: FPModule) -> HomGroup:
    """Hom(M, N) with an explicit generating set.

    In Smith coordinates M = sum_j Z/d_j and N = sum_i Z/e_i, so Hom(M, N)
    is the sum of the pieces Hom(Z/d_j, Z/e_i) = Z/gcd(d_j, e_i), generated
    by multiplication with e_i / gcd(d_j, e_i) (with 1 when d_j is 0, and
    no piece when d_j is nonzero and e_i is 0).  A piece maps back to the
    presentations as ``U_N^-1 E_ij U_M``, column i of U_N^-1 (``uinv[i]``
    of N's Smith coordinates) times row j of U_M.  The pieces are regrouped
    by pairwise gcds and lcms of their orders (``rings._regroup``), so
    generators are aligned with the invariant factors and enumerating
    coefficient boxes walks each homomorphism exactly once.  More than
    ``HOM_PIECE_CAP`` pieces raise ``ValueError`` before the regrouping.
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
    structure, coefficients = _regroup(orders)
    # generator t is U_N^-1 Phi_t U_M, where Phi_t holds c * v at (i, j) for
    # each piece k = (i, j, c) with coefficient v in t: a sum of the rank-one
    # products (uinv_n[i])(u_m[j]), one per such piece
    gens = []
    for coefs in coefficients:
        cols = [[0] * b for _ in range(a)]
        for k, v in coefs.items():
            i, j, c = pieces[k]
            coef = c * v
            left = uinv_n[i]
            for col, x in zip(cols, u_m[j]):
                if x:
                    x *= coef
                    for r in range(b):
                        col[r] += x * left[r]
        gens.append(Homomorphism._trusted(m, n, _canonical_matrix(n, cols)))
    return HomGroup(m, n, tuple(gens), structure)
