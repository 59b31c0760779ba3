import math
import random
import time
from itertools import product

import pytest

from modclose import (
    FPModule,
    Homomorphism,
    IntMatrix,
    OracleInfeasibleError,
    Submodule,
    ZZ,
    Zmod,
    enumerate_homs,
    enumerate_universe,
    hom_group,
    is_injective_by_structure,
    is_injective_module,
    kernel_of_hom,
    present_module,
)
from modclose.elements import (
    hom_apply,
    hom_group_elements,
    is_subset_of,
    module_elements,
)

from modclose.homs import _canonical_matrix
from modclose.rings import _regroup
from modclose.torsion import TRIAL_DIVISION_BOUND, _divisors, _prime_factors

from conftest import random_finite_module
from oracles import (
    hom_add,
    hom_compose,
    hom_generators_dense,
    hom_identity,
    hom_is_zero,
    hom_scale,
    hom_structure_block_system,
    hom_zero,
    regroup_dense,
)


# -- hom groups -------------------------------------------------------------------


def test_hom_z4_z6_over_z():
    m = present_module(ZZ, 1, [(4,)])
    n = present_module(ZZ, 1, [(6,)])
    hg = hom_group(m, n)
    assert hg.structure == (2,)
    assert [g.matrix.entries for g in hg.generators] == [((3,),)]


def test_hom_z_z_is_free_on_identity():
    z = present_module(ZZ, 1)
    hg = hom_group(z, z)
    assert hg.structure == (0,)
    assert hg.generators[0].matrix.entries in (((1,),), ((-1,),))


def test_hom_z2_z4_over_zmod4():
    r = Zmod(4)
    m = present_module(r, 1, [(2,)])
    n = present_module(r, 1)
    hg = hom_group(m, n)
    assert hg.structure == (2,)
    assert [g.matrix.entries for g in hg.generators] == [((2,),)]


def test_hom_with_zero_module_is_empty():
    z6 = present_module(ZZ, 1, [(6,)])
    zero = present_module(ZZ, 0)
    assert hom_group(zero, z6).generators == ()
    assert hom_group(z6, zero).generators == ()


def test_hom_ring_mismatch():
    with pytest.raises(ValueError):
        hom_group(present_module(ZZ, 1), present_module(Zmod(4), 1))


def _random_presentation(rng, ring, free_rank):
    """Up to 4 generators with entries in [-9, 9]; over Z, ``free_rank``
    fewer relations than generators."""
    g = rng.randint(max(free_rank, 1), 4)
    k = g - free_rank if not ring.is_modular else rng.randint(0, g + 1)
    cols = [tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(k)]
    return FPModule(ring, g, cols)


def test_hom_group_matches_block_system_and_orders():
    rng = random.Random(60061)
    cases = [(ZZ, rng.randint(0, 2), rng.randint(0, 2)) for _ in range(300)]
    cases += [(Zmod(n), 0, 0) for n in (8, 12, 30, 36, 72) for _ in range(60)]
    for ring, rank_m, rank_n in cases:
        m = _random_presentation(rng, ring, rank_m)
        n = _random_presentation(rng, ring, rank_n)
        hg = hom_group(m, n)
        assert hg.structure == hom_structure_block_system(m, n)
        for gen, d in zip(hg.generators, hg.structure):
            assert Homomorphism(m, n, gen.matrix) == gen
            assert not hom_is_zero(gen)
            if d:
                assert hom_is_zero(hom_scale(gen, d))
                for p in _prime_factors(d):
                    assert not hom_is_zero(hom_scale(gen, d // p))


def test_hom_generators_stay_small_over_z():
    # two 5-generator modules over Z, 3 relations each (free rank 2); a
    # general block system printed generator entries of 9,819 digits here
    m = present_module(
        ZZ, 5, [(9, 3, -8, 2, -4), (7, 4, -2, -4, 7), (8, -7, 1, -7, -9)]
    )
    n = present_module(
        ZZ, 5, [(4, 4, -5, 3, -1), (-6, -1, -5, -1, 0), (4, -8, -7, 4, -9)]
    )
    hg = hom_group(m, n)
    assert hg.structure == hom_structure_block_system(m, n)
    for gen in hg.generators:
        for row in gen.matrix.entries:
            assert all(len(str(abs(x))) < 100 for x in row)


def test_hom_generators_equal_the_dense_products():
    # each generator is a sum of rank-one pieces; the integers must equal
    # those of U_N^-1 @ Phi @ U_M entry for entry, free summands included
    rng = random.Random(71003)
    cases = [(ZZ, rng.randint(0, 2), rng.randint(0, 2)) for _ in range(120)]
    cases += [(Zmod(n), 0, 0) for n in (12, 72) for _ in range(60)]
    nontrivial = 0
    for ring, rank_m, rank_n in cases:
        m = _random_presentation(rng, ring, rank_m)
        n = _random_presentation(rng, ring, rank_n)
        hg = hom_group(m, n)
        assert [g.matrix for g in hg.generators] == hom_generators_dense(m, n)
        nontrivial += bool(hg.generators)
    assert nontrivial >= 150
    # Z/4 + Z/12 into Z/6 + Z/36, off the diagonal: the pieces Z/2, Z/4, Z/6
    # and Z/12 are out of divisibility order, so generators sum several
    m = FPModule(ZZ, 2, [(4, 4), (0, 12)])
    n = FPModule(ZZ, 2, [(6, 6), (0, 36)])
    hg = hom_group(m, n)
    assert hg.structure == (2, 2, 12, 12)
    assert [g.matrix for g in hg.generators] == hom_generators_dense(m, n)


def _order_of(coefs, orders):
    """The order of ``sum v * x_k`` in the sum of the Z/orders[k], 0 when a
    free piece has a nonzero coefficient."""
    out = 1
    for k, v in coefs.items():
        if not orders[k]:
            return 0
        out = math.lcm(out, orders[k] // math.gcd(orders[k], v))
    return out


def test_regroup_matches_the_dense_smith_reduction():
    rng = random.Random(23017)
    pools = [
        [x for x in range(1, 73) if 72 % x == 0],
        [x for x in range(1, 361) if 360 % x == 0],
        [0, 0, 1, 2, 3, 4, 5, 7, 9, 11, 25],
    ]
    cases = [(), (1, 1, 1), (0,), (0, 0, 0), (0, 1, 0), (12, 8, 3), (6, 0, 4)]
    cases += [
        tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))
        for pool in pools for _ in range(1000)
    ]
    boxes = 0
    for orders in cases:
        structure, gens = _regroup(orders)
        assert structure == regroup_dense(orders)
        assert [_order_of(g, orders) for g in gens] == list(structure)
        for g in gens:
            assert all(0 < v < (orders[k] or v + 1) for k, v in g.items())
        size = math.prod(structure)
        if 0 < size <= 2000:
            # the coefficient box lists every element exactly once
            boxes += 1
            seen = {
                tuple(
                    sum(r * g.get(k, 0) for r, g in zip(box, gens)) % o
                    for k, o in enumerate(orders)
                )
                for box in product(*map(range, structure))
            }
            assert len(seen) == size == math.prod(orders)
    assert boxes >= 1000


# -- homomorphism values ---------------------------------------------------------------


def test_canonical_matrix_equals_the_converted_matrix():
    # the reduced image columns are taken as is: the same rows, read as a
    # matrix of k columns, as converting them through IntMatrix.from_columns
    rng = random.Random(3030)
    rings = [ZZ] + [Zmod(n) for n in (2, 4, 6, 12, 36)]
    for t in range(600):
        ring = rings[t % len(rings)]
        g, k = rng.randint(0, 3), rng.randint(0, 3)
        rels = [tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(rng.randint(0, 3))]
        cod = FPModule(ring, g, rels)
        cols = [tuple(rng.randint(-50, 50) for _ in range(g)) for _ in range(k)]
        got = _canonical_matrix(cod, cols)
        expected = IntMatrix.from_columns(
            [cod.lattice.reduce(c) for c in cols], g, ring
        )
        assert IntMatrix._trusted(got, k, ring) == expected
        assert all(type(x) is int for row in got for x in row)


def test_a_map_is_held_by_its_rows_and_builds_its_matrix_when_read():
    # hom_group's generators never build a matrix; recertifying one from the
    # matrix it reads gives an equal map, with equal hash and repr
    rng = random.Random(3434)
    rings = [ZZ, Zmod(12), Zmod(36)]
    seen = 0
    for t in range(60):
        ring = rings[t % len(rings)]
        m, n = (
            FPModule(ring, g, [tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(g - 1)])
            for g in (rng.randint(0, 3), rng.randint(1, 3))
        )
        for g in hom_group(m, n).generators:
            again = Homomorphism(g.dom, g.cod, g.matrix)
            assert (again, hash(again), repr(again)) == (g, hash(g), repr(g))
            assert g.matrix == IntMatrix(g.rows, ring, rows=n.n_gens, cols=m.n_gens)
            seen += 1
    assert seen > 50
    # no rows, or rows of no entries: the matrix keeps the domain's columns
    m, zero = FPModule(ZZ, 2, [(0, 2)]), FPModule(ZZ, 0)
    into_zero = Homomorphism(m, zero, IntMatrix([], rows=0, cols=2))
    assert into_zero.rows == () and (into_zero.matrix.rows, into_zero.matrix.cols) == (0, 2)
    out_of_zero = Homomorphism(zero, m, IntMatrix([(), ()], rows=2, cols=0))
    assert out_of_zero.rows == ((), ()) and out_of_zero.matrix == IntMatrix([(), ()], cols=0)


def test_well_definedness_certified_at_construction():
    m = present_module(ZZ, 1, [(4,)])
    n = present_module(ZZ, 1, [(6,)])
    Homomorphism(m, n, [[3]])  # 4*3 = 12 lies in 6Z
    with pytest.raises(ValueError):
        Homomorphism(m, n, [[1]])  # 4*1 = 4 does not


def test_zero_map_normal_form():
    m = present_module(ZZ, 1, [(4,)])
    n = present_module(ZZ, 1, [(6,)])
    h = Homomorphism(m, n, [[6]])
    assert hom_is_zero(h)
    assert h.matrix.entries == ((0,),)


def test_composition_well_defined_and_functorial(rng):
    for _ in range(10):
        ring = rng.choice([ZZ, Zmod(6), Zmod(8)])
        a = random_finite_module(rng, ring)
        b = random_finite_module(rng, ring)
        c = random_finite_module(rng, ring)
        f = _random_hom(rng, a, b)
        g = _random_hom(rng, b, c)
        gf = hom_compose(g, f)
        for x in module_elements(a):
            assert hom_apply(gf, x) == hom_apply(g, hom_apply(f, x))
        assert is_subset_of(kernel_of_hom(f), kernel_of_hom(gf))


def _random_hom(rng, a, b):
    hg = hom_group(a, b)
    if not hg.generators:
        return hom_zero(a, b)
    h = hom_zero(a, b)
    for gen, d in zip(hg.generators, hg.structure):
        r = rng.randrange(d if d else 7)
        if r:
            h = hom_add(h, hom_scale(gen, r))
    return h


# -- kernels -----------------------------------------------------------------------


def test_kernel_of_hom_examples():
    r = Zmod(4)
    m = present_module(r, 1)
    double = Homomorphism(m, m, [[2]])
    assert kernel_of_hom(double) == Submodule(m, [(2,)])
    assert {x.coords for x in module_elements(m) if hom_apply(double, x).is_zero} == {(0,), (2,)}

    zero = hom_zero(m, m)
    assert kernel_of_hom(zero).is_whole

    ident = hom_identity(m)
    assert kernel_of_hom(ident).is_zero


# -- enumeration oracle ----------------------------------------------------------------


def test_enumerate_homs_examples():
    z2 = present_module(ZZ, 1, [(2,)])
    assert len(enumerate_homs(z2, z2)) == 2

    z4 = present_module(ZZ, 1, [(4,)])
    z6 = present_module(ZZ, 1, [(6,)])
    assert len(enumerate_homs(z4, z6)) == 2

    z3 = present_module(ZZ, 1, [(3,)])
    homs = enumerate_homs(z2, z3)
    assert len(homs) == 1 and hom_is_zero(homs[0])


def test_enumerate_homs_cap_is_explicit():
    m = present_module(Zmod(8), 2)
    with pytest.raises(OracleInfeasibleError):
        enumerate_homs(m, m, cap=10)


def test_enumerate_homs_requires_finite():
    z = present_module(ZZ, 1)
    with pytest.raises(OracleInfeasibleError):
        enumerate_homs(z, z)


def test_hom_group_span_equals_enumeration_small_sweep():
    rings_and_mods = [
        (ZZ, [(), ((2,),), ((4,),), ((6,),)]),
        (Zmod(4), [(), ((2,),)]),
        (Zmod(6), [(), ((2,),), ((3,),)]),
    ]
    for ring, rel_choices in rings_and_mods:
        mods = []
        for rels in rel_choices:
            m = present_module(ring, 1, list(rels))
            if m.is_finite and m.order() <= 64:
                mods.append(m)
        for a in mods:
            for b in mods:
                hg = hom_group(a, b)
                spanned = {h.matrix for h in hom_group_elements(hg)}
                listed = {h.matrix for h in enumerate_homs(a, b)}
                assert spanned == listed


# -- injectivity ------------------------------------------------------------------------


def test_injectivity_examples():
    r4 = Zmod(4)
    assert is_injective_module(present_module(r4, 1)) is True
    assert is_injective_module(present_module(r4, 1, [(2,)])) is False
    r6 = Zmod(6)
    assert is_injective_module(present_module(r6, 1, [(2,)])) is True


def test_injectivity_rejects_integer_ring():
    with pytest.raises(ValueError):
        is_injective_module(present_module(ZZ, 1))
    with pytest.raises(ValueError):
        is_injective_by_structure(present_module(ZZ, 1))


def test_injectivity_dual_oracles_agree_small():
    for n in (4, 6, 9, 12, 72, 200, 360):
        ring = Zmod(n)
        divisors = [d for d in range(1, n + 1) if n % d == 0 and d > 1]
        mods = [present_module(ring, 0)]
        mods += [present_module(ring, 1, [(d,)]) for d in divisors]
        for m in mods:
            assert is_injective_module(m) == is_injective_by_structure(m)


def test_injectivity_by_coprime_cofactors_matches_baer_up_to_72():
    # every module of each Z/n universe, n <= 72, with at most 2 generators
    checked = 0
    for n in range(2, 73):
        for m in enumerate_universe(Zmod(n), 2, min(n * n, 4 * n)):
            assert is_injective_by_structure(m) == is_injective_module(m), (n, m)
            checked += 1
    assert checked == 718


def test_baer_injectivity_refuses_a_modulus_it_cannot_factor():
    # the divisors of 2^61 - 1 up to itself need its factorization, which
    # trial division up to TRIAL_DIVISION_BOUND cannot reach; a search up to
    # sqrt(n) would run for minutes
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot factor 2305843009213693951"):
        is_injective_module(FPModule(Zmod(2**61 - 1), 0))
    assert time.perf_counter() - start < 5


def test_injectivity_over_a_large_prime_modulus_needs_no_factoring():
    p = 2**61 - 1
    ring = Zmod(p)
    assert is_injective_by_structure(present_module(ring, 1))
    assert is_injective_by_structure(present_module(ring, 2, [(0, p)]))
    assert is_injective_by_structure(present_module(ring, 1, [(1,)]))  # zero module
    big = Zmod(6 * p)
    assert is_injective_by_structure(present_module(big, 1, [(6,)]))
    assert not is_injective_by_structure(present_module(Zmod(4 * p), 1, [(2,)]))


def test_prime_factors_are_bounded():
    for n in range(1, 2000):
        factors = _prime_factors(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(_prime_factors(p) == {p: 1} for p in factors)
    # both primes at the bound's scale: the trial division still finishes
    p, q = 1048573, 1048583
    assert _prime_factors(p * q) == {p: 1, q: 1}
    with pytest.raises(ValueError, match=f"trial-division bound {TRIAL_DIVISION_BOUND}"):
        _prime_factors(2**5 * (2**61 - 1))


def _brute_divisors(n: int, limit: int) -> list[int]:
    """The divisors of ``n`` in ``[2, limit]``, from the pairs (k, n // k)."""
    pairs = (d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k))
    return sorted({d for d in pairs if 1 < d <= limit})


def test_divisors_read_from_a_factorization_match_trial_division():
    rng = random.Random(5150)
    for _ in range(3000):
        n = rng.randint(2, 10**6)
        limit = rng.choice([n, rng.randint(1, n), rng.randint(1, 2000)])
        assert _divisors(n, limit) == _brute_divisors(n, limit), (n, limit)
    # up to TRIAL_DIVISION_BOUND no modulus is refused: the factorization
    # stops at the limit, and a prime cofactor past it is dropped
    for n in (12, 2**40, 2**61 - 1):
        expected = [d for d in range(2, TRIAL_DIVISION_BOUND + 1) if n % d == 0]
        assert _divisors(n, TRIAL_DIVISION_BOUND) == expected
    n, limit = 2**30 * 3**20, 10**20
    expected = sorted(
        2**a * 3**b for a in range(31) for b in range(21) if 1 < 2**a * 3**b <= limit
    )
    assert _divisors(n, limit) == expected
    assert _divisors(2**50, 10**20) == [2**i for i in range(1, 51)]
    # past the bound a modulus that cannot be factored is refused
    with pytest.raises(ValueError, match="cannot factor 2305843009213693951"):
        _divisors(2**61 - 1, TRIAL_DIVISION_BOUND + 1)
