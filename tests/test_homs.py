import random

import pytest

from modclose import (
    FPModule,
    Homomorphism,
    OracleInfeasibleError,
    ZZ,
    Zmod,
    enumerate_homs,
    hom_group,
    is_injective_by_structure,
    is_injective_module,
    kernel_of_hom,
    present_module,
)

from modclose.homs import _prime_factors

from conftest import random_finite_module
from oracles import hom_generators_dense, hom_structure_block_system


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
            assert not gen.is_zero
            if d:
                assert gen.scale(d).is_zero
                for p in _prime_factors(d):
                    assert not gen.scale(d // p).is_zero


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


# -- homomorphism values ---------------------------------------------------------------


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
    assert h.is_zero
    assert h.matrix.entries == ((0,),)


def test_composition_well_defined_and_functorial(rng):
    for _ in range(10):
        ring = rng.choice([ZZ, Zmod(6), Zmod(8)])
        a = random_finite_module(rng, ring)
        b = random_finite_module(rng, ring)
        c = random_finite_module(rng, ring)
        f = _random_hom(rng, a, b)
        g = _random_hom(rng, b, c)
        gf = g.compose(f)
        for x in a.elements():
            assert gf(x) == g(f(x))
        assert kernel_of_hom(f).is_subset_of(kernel_of_hom(gf))


def _random_hom(rng, a, b):
    hg = hom_group(a, b)
    if hg.is_zero:
        return Homomorphism.zero(a, b)
    h = Homomorphism.zero(a, b)
    for gen, d in zip(hg.generators, hg.structure):
        r = rng.randrange(d if d else 7)
        if r:
            h = h + gen.scale(r)
    return h


# -- kernels -----------------------------------------------------------------------


def test_kernel_of_hom_examples():
    r = Zmod(4)
    m = present_module(r, 1)
    double = Homomorphism(m, m, [[2]])
    assert kernel_of_hom(double) == m.submodule([(2,)])
    assert {x.coords for x in m.elements() if double(x).is_zero} == {(0,), (2,)}

    zero = Homomorphism.zero(m, m)
    assert kernel_of_hom(zero).is_whole

    ident = Homomorphism.identity(m)
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
    assert len(homs) == 1 and homs[0].is_zero


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
                spanned = {h.matrix for h in hg.elements()}
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
