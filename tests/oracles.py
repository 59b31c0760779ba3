"""Test-side oracles, independent of the library's structural algorithms.

Element-set computations for finite modules: a submodule becomes a frozenset
of canonical coordinate tuples, and the lattice operations become plain set
operations plus subgroup generation.  Kernels, intersections, preimages and
saturations of integer lattices also have a Smith-form route here, which the
library's stacked-echelon reads are compared with.

The element-level helpers that only the tests call live here too: identity
and zero matrices and maps, map arithmetic, the zero element, lattice sums
and submodule sizes.
"""

from itertools import combinations_with_replacement, product
from math import gcd

from modclose import (
    ZZ,
    DivisibleModule,
    FPModule,
    Homomorphism,
    IntMatrix,
    Ring,
    Subcategory,
    Submodule,
    all_submodules,
    hom_group,
    kernel_of_hom,
    quotient_module,
    smith_normal_form,
    solve_linear,
    sub_meet,
)
from modclose.elements import (
    ModuleElement,
    module_elements,
    whole_submodule,
)
from modclose.intmatrix import _kernel_over_z
from modclose.lattices import Lattice
from modclose.matrices import _snf_with_inverses
from modclose.oracles import listed_class_pairs, torsion_preimage_by_exponent
from modclose.rings import _regroup


def identity_matrix(n: int, ring: Ring = ZZ) -> IntMatrix:
    return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], ring)


def zero_matrix(rows: int, cols: int, ring: Ring = ZZ) -> IntMatrix:
    return IntMatrix([[0] * cols for _ in range(rows)], ring, rows=rows, cols=cols)


def is_zero_matrix(a: IntMatrix) -> bool:
    return all(x == 0 for row in a.entries for x in row)


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    if a.dim != b.dim:
        raise ValueError("lattice sum needs a common ambient dimension")
    return Lattice.from_columns(a.dim, a.basis + b.basis)


def zero_element(m: FPModule) -> ModuleElement:
    return ModuleElement(m, (0,) * m.n_gens)


def submodule_size(u: Submodule) -> int | None:
    """Number of elements of the submodule, or ``None`` when infinite."""
    sub_covol = u.lattice.covolume()
    amb_covol = u.parent.lattice.covolume()
    if sub_covol is None or amb_covol is None:
        return None
    return amb_covol // sub_covol


def hom_identity(m: FPModule) -> Homomorphism:
    return Homomorphism(m, m, identity_matrix(m.n_gens, m.ring))


def hom_zero(dom: FPModule, cod: FPModule) -> Homomorphism:
    return Homomorphism(dom, cod, zero_matrix(cod.n_gens, dom.n_gens, dom.ring))


def hom_compose(f: Homomorphism, g: Homomorphism) -> Homomorphism:
    """f after g."""
    if g.cod != f.dom:
        raise ValueError("composition needs matching middle module")
    return Homomorphism(g.dom, f.cod, f.matrix @ g.matrix)


def hom_add(f: Homomorphism, g: Homomorphism) -> Homomorphism:
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("sum needs equal domain and codomain")
    grid = [
        [a + b for a, b in zip(r1, r2)]
        for r1, r2 in zip(f.matrix.entries, g.matrix.entries)
    ]
    return Homomorphism(
        f.dom, f.cod, IntMatrix(grid, f.dom.ring, rows=f.cod.n_gens, cols=f.dom.n_gens)
    )


def hom_scale(f: Homomorphism, r: int) -> Homomorphism:
    grid = [[r * x for x in row] for row in f.matrix.entries]
    return Homomorphism(
        f.dom, f.cod, IntMatrix(grid, f.dom.ring, rows=f.cod.n_gens, cols=f.dom.n_gens)
    )


def hom_is_zero(f: Homomorphism) -> bool:
    return is_zero_matrix(f.matrix)


def _solve_over_z(a: IntMatrix, b) -> tuple | None:
    """One solution of ``a @ x = b`` over Z, or ``None`` when unsolvable."""
    return solve_linear(a, b)[0]


def class_pairs(universe) -> tuple:
    """The listed class pairs of every scanned object of a
    ``ModuleUniverse``, in object order."""
    return tuple(
        listed_class_pairs(m) for m in universe.objects[:len(universe.pair_sets)]
    )


def element_set(sub: Submodule) -> frozenset:
    """All elements of a submodule of a finite module, as coordinate tuples."""
    return frozenset(x.coords for x in module_elements(sub.parent) if x in sub)


def generated_subgroup(m: FPModule, seeds) -> frozenset:
    """Closure of a set of elements under addition (finite modules)."""
    zero = zero_element(m)
    found = {zero.coords}
    frontier = [zero]
    seed_elems = [ModuleElement(m, s) for s in seeds]
    while frontier:
        x = frontier.pop()
        for s in seed_elems:
            y = x + s
            if y.coords not in found:
                found.add(y.coords)
                frontier.append(y)
    return frozenset(found)


def subgroups_by_elements(m: FPModule, k: int) -> set:
    """Every subgroup of a finite module generated by at most ``k`` of its
    elements, as element sets.  With ``k`` at least the number of invariant
    factors this is every subgroup."""
    elems = [x.coords for x in module_elements(m)]
    return {
        generated_subgroup(m, combo)
        for combo in combinations_with_replacement(elems, k)
    }


def universe_chains(modulus: int, max_gens: int, max_order: int) -> list:
    """The invariant-factor chains ``enumerate_universe`` lists, in its
    order, by trying every factor up to ``max_order`` (small bounds only).
    ``modulus`` 0 means the integers."""
    chains = []

    def extend(chain, product_):
        chains.append(tuple(chain))
        if len(chain) >= max_gens:
            return
        for d in range(chain[-1] if chain else 2, max_order + 1):
            if product_ * d > max_order:
                break
            if chain and d % chain[-1]:
                continue
            if modulus and modulus % d:
                continue
            extend(chain + [d], product_ * d)

    extend([], 1)
    return chains


def join_by_elements(u: Submodule, v: Submodule) -> frozenset:
    m = u.parent
    return generated_subgroup(m, u.canonical_gens + v.canonical_gens)


def meet_by_elements(u: Submodule, v: Submodule) -> frozenset:
    return element_set(u) & element_set(v)


def _with_modulus_columns(mat: IntMatrix) -> IntMatrix:
    """``[a | n*I]`` over Z for a matrix ``a`` over Z/n: its integer solutions,
    cut to the first ``a.cols`` entries, are the solutions of ``a`` mod n."""
    n = mat.ring.modulus
    grid = [
        row + tuple(n * (i == k) for k in range(mat.rows))
        for i, row in enumerate(mat.entries)
    ]
    return IntMatrix(grid, ZZ, rows=mat.rows, cols=mat.cols + mat.rows)


def kernel_by_modulus_columns(a: IntMatrix) -> IntMatrix:
    """Kernel generators of a matrix over Z/n from the integer kernel of
    ``[a | n*I]``, cut to the first ``a.cols`` entries and reduced mod n."""
    n = a.ring.modulus
    heads = [c[: a.cols] for c in _kernel_over_z(_with_modulus_columns(a)).columns()]
    cols = dict.fromkeys(tuple(x % n for x in c) for c in heads)
    return IntMatrix.from_columns([c for c in cols if any(c)], a.cols, a.ring)


def quotient_by_concatenation(m: FPModule, n: Submodule) -> FPModule:
    """M/N presented by M's relation columns followed by N's canonical
    generators, echelonized afresh."""
    cols = m.relations.columns() + list(n.canonical_gens)
    return FPModule(m.ring, m.n_gens, cols)


def quotient_with_projection(m: FPModule, n: Submodule):
    """``(M/N, projection)``: the quotient on M's generators, whose projection
    is the identity on generator coordinates."""
    q = quotient_module(m, n)
    return q, Homomorphism(m, q, identity_matrix(m.n_gens, m.ring))


def submodules_between(m: FPModule, n: Submodule) -> list:
    """Every submodule of M containing N, from the submodules of a finite M/N
    (they share their preimage lattices)."""
    q = quotient_module(m, n)
    if not q.is_finite:
        raise ValueError("enumeration requires a finite quotient")
    return [Submodule(m, s.lattice) for s in all_submodules(q)]


def whole_by_identity(m: FPModule) -> Submodule:
    """The whole module, generated by the identity matrix."""
    return Submodule(m, identity_matrix(m.n_gens, m.ring))


def zero_by_relations(m: FPModule) -> Submodule:
    """The zero submodule, from no generators (the relation basis alone)."""
    return Submodule(m, None)


def image_by_matrix(f: Homomorphism, u: Submodule) -> Submodule:
    """f(U), generated by the images of U's canonical generators."""
    cols = [f.matrix.apply(c) for c in u.canonical_gens]
    return Submodule(f.cod, IntMatrix.from_columns(cols, f.cod.n_gens, f.cod.ring))


def kernel_by_smith(a: IntMatrix) -> Lattice:
    """The kernel lattice of an integer matrix from its Smith form
    ``D = U A V``: the columns of V over the zero diagonal entries of D.
    The public Smith form is used, since reducing the raw block swells a
    30 x 32 integer block to entries of about 340,000 bits."""
    snf = smith_normal_form(a)
    diag = snf.diagonal
    return Lattice.from_columns(
        a.cols,
        [snf.v.column(j) for j in range(a.cols) if j >= len(diag) or not diag[j]],
    )


def intersect_by_smith(l1: Lattice, l2: Lattice) -> Lattice:
    """L1 meet L2: the combinations of L1's basis whose coefficients, with
    some coefficients on L2's basis, lie in the kernel of ``[B1 | -B2]``."""
    dim = l1.dim
    if not l1.basis or not l2.basis:
        return Lattice.from_columns(dim, [])
    block = IntMatrix.from_columns(
        list(l1.basis) + [tuple(-x for x in c) for c in l2.basis], dim, ZZ
    )
    s = len(l1.basis)
    return Lattice.from_columns(
        dim,
        [
            tuple(sum(l1.basis[j][i] * c[j] for j in range(s)) for i in range(dim))
            for c in kernel_by_smith(block).basis
        ],
    )


def preimage_by_smith(lat: Lattice, f: IntMatrix) -> Lattice:
    """``{x : f @ x in lat}``: the first ``f.cols`` coordinates of the kernel
    of ``[f | -B]``."""
    block = IntMatrix.from_columns(
        f.columns() + [tuple(-x for x in c) for c in lat.basis], lat.dim, ZZ
    )
    return Lattice.from_columns(
        f.cols, [c[: f.cols] for c in kernel_by_smith(block).basis]
    )


def saturation_by_smith(lat: Lattice) -> Lattice:
    """The saturation as the kernel of the left kernel: x lies in it iff
    every integer row vector vanishing on the lattice vanishes on x."""
    left = kernel_by_smith(IntMatrix(lat.basis, ZZ, rows=len(lat.basis), cols=lat.dim))
    return kernel_by_smith(IntMatrix(left.basis, ZZ, rows=len(left.basis), cols=lat.dim))


def element_order_statistics(elements, add, zero):
    """Multiset of element orders; determines a finite abelian group up to
    isomorphism."""
    stats = {}
    for x in elements:
        order = 1
        y = x
        while y != zero:
            y = add(y, x)
            order += 1
        stats[order] = stats.get(order, 0) + 1
    return stats


def order_statistics_of_invariants(invariants) -> dict:
    """Order statistics of a direct sum of cyclic groups given by invariant
    factors (all nonzero): the order of a tuple is the lcm of its coordinate
    orders."""
    stats = {}
    for combo in product(*[range(d) for d in invariants]):
        order = 1
        for c, d in zip(combo, invariants):
            o = d // gcd(c, d)
            order = order * o // gcd(order, o)
        stats[order] = stats.get(order, 0) + 1
    return stats


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


def echelon_unreduced(dim: int, columns) -> tuple:
    """Canonical column echelon basis by plain gcd elimination, with no
    reduction until the end: ``(basis, pivots)`` as :class:`Lattice` holds
    them.  Intermediate entries may swell; the result is the unique Hermite
    basis, so the library's reduced echelon must match it exactly."""
    from bisect import bisect_left

    basis: list[list[int]] = []
    pivrows: list[int] = []
    for col in columns:
        v = [int(x) for x in col]
        while True:
            r = next((i for i, x in enumerate(v) if x), None)
            if r is None:
                break
            pos = bisect_left(pivrows, r)
            if pos < len(pivrows) and pivrows[pos] == r:
                b = basis[pos]
                a, c = b[r], v[r]
                if c % a == 0:
                    q = c // a
                    v = [vi - q * bi for vi, bi in zip(v, b)]
                else:
                    x, y, g = _xgcd(a, c)
                    ag, cg = a // g, c // g
                    nb = [x * bi + y * vi for bi, vi in zip(b, v)]
                    v = [-cg * bi + ag * vi for bi, vi in zip(b, v)]
                    basis[pos] = nb
            else:
                basis.insert(pos, v)
                pivrows.insert(pos, r)
                break
    for j, r in enumerate(pivrows):
        if basis[j][r] < 0:
            basis[j] = [-x for x in basis[j]]
    for j, r in enumerate(pivrows):
        p = basis[j][r]
        for j2 in range(j):
            q = basis[j2][r] // p
            if q:
                basis[j2] = [a - q * b for a, b in zip(basis[j2], basis[j])]
    return (
        tuple(tuple(b) for b in basis),
        tuple((r, basis[j][r]) for j, r in enumerate(pivrows)),
    )


def det_bareiss(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so the work stays polynomial."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def hom_structure_block_system(m: FPModule, n: FPModule) -> tuple:
    """Invariant factors of Hom(M, N) by a general block system: the
    well-defined matrices are the kernel of ``F @ p_k = Q @ y_k`` over the
    relations ``p_k`` of M, and the matrices whose columns lie in N's
    relation lattice (the zero maps) are quotiented out."""
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
    rel_cols = [_solve_over_z(h_mat, z) for z in zero_vecs]
    if None in rel_cols:
        raise AssertionError("zero map not in the solution lattice")
    if m.ring.is_modular:
        nmod = m.ring.modulus
        rel_cols += [
            tuple(nmod if i == j else 0 for i in range(s)) for j in range(s)
        ]
    rel_mat = IntMatrix.from_columns(rel_cols, s, ZZ)

    _, d, _, _ = _snf_with_inverses(rel_mat)
    diag_len = min(s, rel_mat.cols)
    factors = [d[i][i] if i < diag_len else 0 for i in range(s)]
    return tuple(f for f in factors if f != 1)


def regroup_dense(orders) -> tuple:
    """The invariant factors of the sum of the cyclic pieces Z/orders[k]
    by a dense Smith reduction of their diagonal matrix, units dropped: the
    oracle of ``rings._regroup``."""
    s = len(orders)
    diag = IntMatrix(
        [[orders[k] if k == l else 0 for l in range(s)] for k in range(s)], ZZ,
        rows=s, cols=s,
    )
    _, d, _, _ = _snf_with_inverses(diag)
    return tuple(d[t][t] for t in range(s) if d[t][t] != 1)


def hom_generators_dense(m: FPModule, n: FPModule) -> list:
    """The matrices of ``hom_group``'s generators built by dense products:
    ``U_N^-1 @ Phi_t @ U_M`` for each generator t, Phi_t holding each piece's
    multiplier times its coefficient in t from ``rings._regroup``, then
    reduced modulo the codomain's relation lattice.  It checks the rank-one
    assembly, not the choice of generators."""
    a, b = m.n_gens, n.n_gens
    d, u_m, _ = m.lattice.smith_coordinates()
    e, _, uinv_n = n.lattice.smith_coordinates()
    pieces, orders = [], []
    for j, dj in enumerate(d):
        for i, ei in enumerate(e):
            g = gcd(dj, ei)
            if g == 1 or (dj and not ei):
                continue
            pieces.append((i, j, ei // g if dj else 1))
            orders.append(g)
    left = IntMatrix.from_columns(uinv_n, b)
    right = IntMatrix(u_m, ZZ, rows=a, cols=a)
    out = []
    for coefs in _regroup(orders)[1]:
        phi = [[0] * a for _ in range(b)]
        for k, v in coefs.items():
            i, j, c = pieces[k]
            phi[i][j] = c * v
        mat = left @ IntMatrix(phi, ZZ, rows=b, cols=a) @ right
        cols = [n.lattice.reduce(col) for col in mat.columns()]
        out.append(IntMatrix.from_columns(cols, b, n.ring))
    return out


def closure_by_kernel_meets(m: FPModule, n: Submodule, cat: Subcategory) -> Submodule:
    """The regular closure by one full kernel and one meet per hom-group
    generator, each lift certified as a homomorphism; the divisible objects
    contribute the preimage of the torsion of M/N (Q) and N itself (Q/Z)."""
    running = whole_submodule(m)
    q = quotient_module(m, n)
    for obj in cat.finite_objects:
        for gen in hom_group(q, obj).generators:
            lifted = Homomorphism(m, obj, gen.matrix)
            running = sub_meet(running, kernel_of_hom(lifted))
    for div in cat.divisible_objects:
        kernel = torsion_preimage_by_exponent(m, n) if div is DivisibleModule.Q else n
        running = sub_meet(running, kernel)
    return running


def closure_by_prime_support(m: FPModule, n: Submodule, cat: Subcategory) -> Submodule:
    """The regular closure over Z/n in closed form: N + m_S*M, where m_S is
    the product of the full prime powers p^v_p(n) over the primes p dividing
    some invariant factor of an object.  An injective object's p-parts are
    free over Z/p^v_p(n), so maps into it separate exactly the p-parts of
    M/N with p in S, and m_S kills those parts and is a unit on the rest."""
    factors = [f for obj in cat.finite_objects for f in obj.invariant_factors]
    m_s, rest, p = 1, m.ring.modulus, 2
    while rest > 1:
        power = 1
        while rest % p == 0:
            rest //= p
            power *= p
        if any(f % p == 0 for f in factors):
            m_s *= power
        p += 1
    scaled = [
        tuple(m_s if i == j else 0 for i in range(m.n_gens)) for j in range(m.n_gens)
    ]
    return Submodule(m, list(n.canonical_gens) + scaled)


def canonical_gens_eager(sub: Submodule) -> tuple:
    """A submodule's canonical generators as they were built when every
    submodule stored them: the echelon basis of its preimage lattice reduced
    modulo the parent's relation lattice, zero and repeated columns dropped,
    as a tuple of columns.  The zero submodule is the one with no such
    column."""
    parent = sub.parent
    cols = []
    for c in sub.lattice.basis:
        r = parent.lattice.reduce(c)
        if any(r) and r not in cols:
            cols.append(r)
    return tuple(cols)


def basis_matrix(lat: Lattice, ring=ZZ) -> IntMatrix:
    """The canonical basis of a lattice as the columns of a matrix over
    ``ring``."""
    return IntMatrix.from_columns(lat.basis, lat.dim, ring)
