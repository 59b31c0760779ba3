"""Homomorphisms between finitely presented modules.

Hom(M, N) is computed as a finitely generated module with an explicit
generating set: the lattice of well-defined matrices is the kernel of a
block system, and quotienting by the matrices that act as zero yields
generators aligned with the invariant factors.  A brute-force enumeration
oracle and a Baer-criterion injectivity test live alongside.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .errors import OracleInfeasibleError
from .matrices import IntMatrix, _kernel_over_z, _snf_with_inverses, _solve_over_z
from .modules import FPModule, ModuleElement, Submodule
from .rings import ZZ


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
        lifted = mat.lift()
        for c in dom.lattice.basis:
            if not cod.lattice.contains(lifted.apply(c)):
                raise ValueError(
                    "matrix does not define a homomorphism: a relation of the "
                    "domain is not sent into the relation lattice of the codomain"
                )
        self.dom = dom
        self.cod = cod
        self.matrix = _canonical_matrix(cod, mat)
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
        return ModuleElement(self.cod, self.matrix.lift().apply(x.coords))

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


def _canonical_matrix(cod: FPModule, mat: IntMatrix) -> IntMatrix:
    cols = [cod.lattice.reduce(mat.lift().column(j)) for j in range(mat.cols)]
    return IntMatrix.from_columns(cols, cod.n_gens, cod.ring)


def _is_compatible(dom: FPModule, cod: FPModule, columns: list) -> bool:
    """Well-definedness certificate without building a Homomorphism."""
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
            grid = [
                [
                    sum(r * g[i][j] for r, g in zip(coeffs, gen_grids))
                    for j in range(a)
                ]
                for i in range(b)
            ]
            mat = _canonical_matrix(
                self.cod, IntMatrix(grid, ZZ, rows=b, cols=a)
            )
            yield Homomorphism._trusted(self.dom, self.cod, mat)

    def __repr__(self) -> str:
        return f"HomGroup(structure={list(self.structure)!r})"


_HOM_CACHE: dict = {}


def hom_group(m: FPModule, n: FPModule) -> HomGroup:
    """Hom(M, N) with an explicit generating set.

    Solves for all matrices sending the relation lattice of M into that of N
    (a kernel computation on a block system), then quotients by the matrices
    whose columns lie in N's relation lattice (the zero maps).  Generators are
    aligned with the invariant factors of the quotient, so enumerating
    coefficient boxes walks each homomorphism exactly once.
    """
    if m.ring != n.ring:
        raise ValueError("hom groups need a common ring")
    key = (m, n)
    cached = _HOM_CACHE.get(key)
    if cached is not None:
        return cached

    a, b = m.n_gens, n.n_gens
    p_cols = list(m.lattice.basis)
    q_cols = list(n.lattice.basis)
    n_p, n_q = len(p_cols), len(q_cols)

    # unknowns: vec(F) (column-major, b*a) then one coefficient vector per
    # domain relation (n_q each); equations: F @ p_k = Q @ y_k
    width = b * a + n_q * n_p
    rows = []
    for k, p in enumerate(p_cols):
        for i in range(b):
            row = [0] * width
            for j in range(a):
                if p[j]:
                    row[j * b + i] = p[j]
            for l, q in enumerate(q_cols):
                if q[i]:
                    row[b * a + k * n_q + l] = -q[i]
            rows.append(row)
    system = IntMatrix(rows, ZZ, rows=b * n_p, cols=width)
    kernel = _kernel_over_z(system)
    h_cols = [c[: b * a] for c in kernel.columns()]
    h_mat = IntMatrix.from_columns(h_cols, b * a, ZZ)
    s = len(h_cols)

    # zero maps: one generator per (domain generator, codomain relation) pair
    zero_vecs = []
    for j in range(a):
        for q in q_cols:
            vec = [0] * (b * a)
            for i in range(b):
                vec[j * b + i] = q[i]
            zero_vecs.append(tuple(vec))

    # h_mat has full column rank, so each zero map has unique coordinates
    rel_cols = _solve_over_z(h_mat, zero_vecs)
    if None in rel_cols:
        raise AssertionError("zero map not in the solution lattice")
    if m.ring.is_modular:
        nmod = m.ring.modulus
        rel_cols += [
            tuple(nmod if i == j else 0 for i in range(s)) for j in range(s)
        ]
    rel_mat = IntMatrix.from_columns(rel_cols, s, ZZ)

    _, d, _, uinv = _snf_with_inverses(rel_mat)
    diag_len = min(s, rel_mat.cols)
    factors = [d[i][i] if i < diag_len else 0 for i in range(s)]

    gens = []
    structure = []
    for i, f in enumerate(factors):
        if f == 1:
            continue
        coeff = tuple(uinv[r][i] for r in range(s))
        vec = h_mat.apply(coeff)
        cols = [tuple(vec[j * b + i2] for i2 in range(b)) for j in range(a)]
        mat = _canonical_matrix(n, IntMatrix.from_columns(cols, b, ZZ))
        gens.append(Homomorphism._trusted(m, n, mat))
        structure.append(f)

    result = HomGroup(m, n, tuple(gens), tuple(structure))
    _HOM_CACHE[key] = result
    return result


def kernel_of_hom(f: Homomorphism) -> Submodule:
    """The submodule ``{x : f(x) = 0}`` of the domain."""
    return Submodule(f.dom, f.cod.lattice.preimage(f.matrix.lift()))


_ENUM_CACHE: dict = {}


def enumerate_homs(m: FPModule, n: FPModule, cap: int = 200_000) -> list[Homomorphism]:
    """The complete list of homomorphisms M -> N, by brute force.

    Enumerates every assignment of generator images (elements of N in
    lexicographic coordinate order) and keeps the ones passing the
    well-definedness certificate.  Raises :class:`OracleInfeasibleError` when
    the assignment count exceeds ``cap``; it never truncates silently.
    """
    if m.ring != n.ring:
        raise ValueError("hom enumeration needs a common ring")
    if not (m.is_finite and n.is_finite):
        raise OracleInfeasibleError("oracle infeasible: both modules must be finite")
    total = (n.order() or 0) ** m.n_gens
    if total > cap:
        raise OracleInfeasibleError(
            f"oracle infeasible: {total} generator assignments exceed cap {cap}"
        )
    key = (m, n)
    cached = _ENUM_CACHE.get(key)
    if cached is not None:
        return list(cached)

    targets = [x.coords for x in n.elements()]
    out = []
    for assignment in product(targets, repeat=m.n_gens):
        cols = list(assignment)
        if _is_compatible(m, n, cols):
            mat = IntMatrix.from_columns(cols, n.n_gens, n.ring)
            out.append(Homomorphism._trusted(m, n, _canonical_matrix(n, mat)))
    _ENUM_CACHE[key] = tuple(out)
    return out


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def is_injective_module(a: FPModule) -> bool:
    """Baer-criterion brute force over a modular ring.

    The oracle for :func:`is_injective_by_structure`.  The ideals of Z/n are
    exactly the cyclic ideals generated by divisors of n, so injectivity
    reduces to: for each divisor d, every element killed by n/d is divisible
    by d.  For the ring of integers use the divisible injectives instead.
    """
    if not a.ring.is_modular:
        raise ValueError(
            "injectivity testing needs a modular ring; over the integers the "
            "divisible modules Q and Q/Z play this role"
        )
    n = a.ring.modulus
    elements = [x.coords for x in a.elements()]
    lattice = a.lattice
    for d in _divisors(n):
        e = n // d
        annihilated = [x for x in elements if not any(lattice.reduce(tuple(e * c for c in x)))]
        multiples = {lattice.reduce(tuple(d * c for c in x)) for x in elements}
        if any(lattice.reduce(x) not in multiples for x in annihilated):
            return False
    return True


def is_injective_by_structure(a: FPModule) -> bool:
    """Structure-criterion injectivity test over Z/n.

    A module is injective over Z/n iff for each prime power p^e exactly
    dividing n, its p-primary part is free over Z/p^e, i.e. every invariant
    factor has p-valuation 0 or e.
    """
    if not a.ring.is_modular:
        raise ValueError(
            "injectivity testing needs a modular ring; over the integers the "
            "divisible modules Q and Q/Z play this role"
        )
    n = a.ring.modulus
    n_factors = _prime_factors(n)
    for f in a.invariant_factors:
        for p, e in n_factors.items():
            v = 0
            x = f
            while x % p == 0:
                v += 1
                x //= p
            if v not in (0, e):
                return False
    return True
