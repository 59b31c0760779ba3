import random

import pytest

from modclose import (
    FPModule,
    IntMatrix,
    Submodule,
    ZZ,
    Zmod,
    all_submodules,
    direct_sum,
    enumerate_universe,
    present_module,
    quotient,
    quotient_module,
    sub_as_module,
    sub_contains,
    sub_equal,
    sub_image,
    sub_join,
    sub_meet,
    sub_preimage,
    submodules_between,
)
from modclose.homs import Homomorphism, hom_group
from modclose.lattices import Lattice
from modclose.oracles import enumerate_homs

from conftest import random_finite_module
from oracles import (
    canonical_gens_eager,
    image_by_matrix,
    quotient_by_concatenation,
    whole_by_identity,
    zero_by_relations,
)

from oracles import (
    element_order_statistics,
    element_set,
    join_by_elements,
    meet_by_elements,
    order_statistics_of_invariants,
    subgroups_by_elements,
)


# -- presentation ---------------------------------------------------------------


def test_invariant_factors_worked_example():
    m = present_module(ZZ, 2, [(2, 0), (0, 3)])
    assert m.invariant_factors == (6,)
    assert m.order() == 6


def test_free_module_over_z():
    m = present_module(ZZ, 1)
    assert m.invariant_factors == (0,)
    assert m.order() is None


def test_free_module_over_zmod4():
    m = present_module(Zmod(4), 1)
    assert m.invariant_factors == (4,)
    assert m.order() == 4


def test_zero_module():
    m = present_module(ZZ, 0)
    assert m.invariant_factors == ()
    assert m.order() == 1
    assert m.is_zero


def test_row_count_mismatch_rejected():
    with pytest.raises(ValueError):
        present_module(ZZ, 2, [(1, 2, 3)])


def test_module_equality_by_lattice():
    a = present_module(ZZ, 1, [(2,), (4,)])
    b = present_module(ZZ, 1, [(2,)])
    assert a == b
    assert hash(a) == hash(b)


def test_element_canonical_form():
    m = present_module(ZZ, 2, [(2, 0), (0, 3)])
    x = m.element((5, -1))
    y = m.element((1, 2))
    assert x == y
    assert (x - y).is_zero


def test_element_enumeration_count():
    m = present_module(Zmod(6), 2, [(2, 0)])
    assert m.order() == 12
    assert len(list(m.elements())) == 12
    assert len({e.coords for e in m.elements()}) == 12


# -- submodule canonicalization ---------------------------------------------------


def test_sub_equal_worked_example():
    m = present_module(ZZ, 1)
    u = m.submodule([(2,)])
    v = m.submodule([(-2,), (4,)])
    assert sub_equal(u, v)
    assert u.canonical_gens == v.canonical_gens
    assert hash(u) == hash(v)


def test_zero_in_every_submodule_and_parity():
    m = present_module(ZZ, 1)
    u = m.submodule([(2,)])
    assert sub_contains(u, m.zero_element())
    assert not sub_contains(u, m.element((1,)))


def test_canonicalization_soundness_random(rng):
    for _ in range(25):
        ring = rng.choice([ZZ, Zmod(4), Zmod(6), Zmod(12)])
        g = rng.randint(0, 3)
        m = present_module(
            ring,
            g,
            [
                tuple(rng.randint(-9, 9) for _ in range(g))
                for _ in range(rng.randint(0, 3))
            ],
        )
        gens = [
            tuple(rng.randint(-9, 9) for _ in range(g))
            for _ in range(rng.randint(0, 3))
        ]
        u = m.submodule(gens)
        again = m.submodule(u.canonical_gens)
        assert sub_equal(u, again)


# -- lattice operations -----------------------------------------------------------


def test_meet_worked_examples():
    z = present_module(ZZ, 1)
    two, three = z.submodule([(2,)]), z.submodule([(3,)])
    assert sub_meet(two, three) == z.submodule([(6,)])
    # brute-force membership scan
    meet = sub_meet(two, three)
    for x in range(-20, 21):
        assert meet.contains((x,)) == (x % 6 == 0)

    whole = z.whole_submodule()
    assert sub_meet(whole, two) == two

    r4 = present_module(Zmod(4), 1)
    u = r4.submodule([(2,)])
    assert sub_meet(u, u) == u


def test_join_worked_examples():
    z = present_module(ZZ, 1)
    two, three = z.submodule([(2,)]), z.submodule([(3,)])
    assert sub_join(two, three).is_whole
    assert sub_join(two, z.zero_submodule()) == two
    r4 = present_module(Zmod(4), 1)
    u = r4.submodule([(2,)])
    assert sub_join(u, u) == u


def test_parent_mismatch_rejected():
    a = present_module(ZZ, 1)
    b = present_module(ZZ, 2)
    with pytest.raises(ValueError):
        sub_meet(a.whole_submodule(), b.whole_submodule())


def test_lattice_laws_against_element_oracle(rng):
    rings = [Zmod(4), Zmod(6), Zmod(8), Zmod(12)]
    for _ in range(12):
        ring = rng.choice(rings)
        g = rng.randint(1, 2)
        m = present_module(ring, g)
        if m.order() > 64:
            continue
        subs = []
        for _ in range(3):
            gens = [
                tuple(rng.randint(0, ring.modulus - 1) for _ in range(g))
                for _ in range(rng.randint(0, 2))
            ]
            subs.append(m.submodule(gens))
        u, v, w = subs
        # element-set agreement
        assert element_set(sub_meet(u, v)) == meet_by_elements(u, v)
        assert element_set(sub_join(u, v)) == join_by_elements(u, v)
        # lattice laws
        assert sub_meet(u, v) == sub_meet(v, u)
        assert sub_join(u, v) == sub_join(v, u)
        assert sub_meet(u, sub_meet(v, w)) == sub_meet(sub_meet(u, v), w)
        assert sub_join(u, sub_join(v, w)) == sub_join(sub_join(u, v), w)
        assert sub_join(u, sub_meet(u, v)) == u
        assert sub_meet(u, sub_join(u, v)) == u
        # order agrees with containment
        assert u.is_subset_of(sub_join(u, v))
        assert sub_meet(u, v).is_subset_of(u)


@pytest.mark.parametrize("n", [4, 6, 12, 36])
def test_meets_and_preimages_match_element_sets_exhaustively(n):
    # every pair of submodules of each small module, and every submodule's
    # preimage under every homomorphism between two of them, on diagonal and
    # on random presentations
    rng = random.Random(7100 + n)
    ring = Zmod(n)
    mods = [m for m in enumerate_universe(ring, 2, 12) if not m.is_zero]
    mods += [random_finite_module(rng, ring, max_gens=3, max_order=12) for _ in range(2)]
    subs = {m: [(s, element_set(s)) for s in all_submodules(m)] for m in mods}
    checked = 0
    for m in mods:
        for u, eu in subs[m]:
            for v, ev in subs[m]:
                assert element_set(sub_meet(u, v)) == eu & ev
                checked += 1
    for m in mods:
        elements = list(m.elements())
        for m2 in mods:
            for f in enumerate_homs(m, m2):
                images = [f(x).coords for x in elements]
                for w, ew in subs[m2]:
                    expected = {x.coords for x, y in zip(elements, images) if y in ew}
                    assert element_set(sub_preimage(f, w)) == expected
                    checked += 1
    assert checked > 900


# -- quotients ----------------------------------------------------------------------


def test_quotient_worked_examples():
    z = present_module(ZZ, 1)
    q, proj = quotient(z, z.submodule([(2,)]))
    assert q.invariant_factors == (2,)
    assert proj.matrix == IntMatrix.identity(1)

    q2, _ = quotient(z, z.zero_submodule())
    assert q2.invariant_factors == z.invariant_factors

    m = present_module(ZZ, 2, [(0, 2)])  # Z + Z/2
    q3, _ = quotient(m, m.submodule([(2, 0)]))
    assert q3.invariant_factors == (2, 2)


def test_quotient_projection_surjective_and_well_defined():
    m = present_module(Zmod(6), 2, [(2, 0)])
    n = m.submodule([(0, 3)])
    q, proj = quotient(m, n)
    imgs = {proj(x).coords for x in m.elements()}
    assert len(imgs) == q.order()


def test_quotient_preimage_roundtrip(rng):
    for _ in range(10):
        ring = rng.choice([Zmod(4), Zmod(6), Zmod(9)])
        m = present_module(ring, 2)
        n = m.submodule(
            [tuple(rng.randint(0, ring.modulus - 1) for _ in range(2))]
        )
        q, proj = quotient(m, n)
        w = q.submodule(
            [tuple(rng.randint(0, ring.modulus - 1) for _ in range(2))]
        )
        assert sub_image(proj, sub_preimage(proj, w)) == w


# -- image / preimage -----------------------------------------------------------------


def test_image_worked_examples():
    z = present_module(ZZ, 1)
    z2, proj = quotient(z, z.submodule([(2,)]))
    img = sub_image(proj, z.submodule([(2,)]))
    assert img.is_zero

    ident = Homomorphism.identity(z)
    u = z.submodule([(5,)])
    assert sub_image(ident, u) == u

    r4 = present_module(Zmod(4), 1)
    double = Homomorphism(r4, r4, [[2]])
    pre = sub_preimage(double, r4.zero_submodule())
    assert pre == r4.submodule([(2,)])
    # enumerate all 4 elements as a check
    expected = {x.coords for x in r4.elements() if double(x).is_zero}
    assert element_set(pre) == expected


# -- submodule as module / direct sums -------------------------------------------------


def test_image_preimage_against_element_oracle(rng):
    for _ in range(10):
        ring = rng.choice([Zmod(4), Zmod(6), Zmod(9)])
        n_mod = ring.modulus
        m = present_module(ring, 2)
        grid = [[rng.randint(0, n_mod - 1) for _ in range(2)] for _ in range(2)]
        try:
            f = Homomorphism(m, m, grid)
        except ValueError:
            continue  # free module: every matrix works, so this never triggers
        u = m.submodule([tuple(rng.randint(0, n_mod - 1) for _ in range(2))])
        img = sub_image(f, u)
        assert element_set(img) == {
            f(x).coords for x in m.elements() if u.contains(x)
        }
        pre = sub_preimage(f, u)
        assert element_set(pre) == {
            x.coords for x in m.elements() if u.contains(f(x))
        }


def test_sub_as_module_matches_order_statistics(rng):
    for _ in range(10):
        ring = rng.choice([Zmod(4), Zmod(6), Zmod(12)])
        m = present_module(ring, 2)
        gens = [
            tuple(rng.randint(0, ring.modulus - 1) for _ in range(2))
            for _ in range(rng.randint(0, 2))
        ]
        u = m.submodule(gens)
        smod, incl = sub_as_module(u)
        assert all(f != 0 for f in smod.invariant_factors)
        # the inclusion embeds onto exactly the submodule's element set
        imgs = {incl(x).coords for x in smod.elements()}
        assert imgs == element_set(u)
        assert len(imgs) == smod.order()
        # iso class check via order statistics
        elems = list(element_set(u))
        zero = tuple([0] * 2)
        stats = element_order_statistics(
            elems,
            add=lambda a, b: m.lattice.reduce(tuple(x + y for x, y in zip(a, b))),
            zero=zero,
        )
        assert stats == order_statistics_of_invariants(smod.invariant_factors)


def test_direct_sum_invariants():
    a = present_module(ZZ, 1, [(4,)])
    b = present_module(ZZ, 1, [(6,)])
    s = direct_sum(a, b)
    assert s.invariant_factors == (2, 12)


def test_all_submodules_of_klein_like():
    m = present_module(Zmod(2), 2)
    subs = all_submodules(m)
    assert len(subs) == 5  # 0, three cyclics, whole


def test_all_submodules_counts_cyclic():
    m = present_module(Zmod(12), 1)
    subs = all_submodules(m)
    assert len(subs) == 6  # one per divisor of 12


def test_submodules_between():
    m = present_module(Zmod(12), 1)
    n = m.submodule([(6,)])
    between = submodules_between(m, n)
    assert all(n.is_subset_of(s) for s in between)
    assert len(between) == 4  # <6>, <3>, <2>, whole


def test_all_submodules_requires_finite():
    m = present_module(ZZ, 1)
    with pytest.raises(ValueError):
        all_submodules(m)


def _assert_submodules_match_element_oracle(m):
    sets = [element_set(s) for s in all_submodules(m)]
    assert len(set(sets)) == len(sets)
    k = max(len(m.invariant_factors), 1)
    assert set(sets) == subgroups_by_elements(m, k)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_all_submodules_match_element_oracle_over_universe(n):
    for m in enumerate_universe(Zmod(n), 2, 36):
        _assert_submodules_match_element_oracle(m)


@pytest.mark.parametrize(
    "m",
    [
        present_module(Zmod(2), 3),  # (Z/2)^3: subgroups need three generators
        present_module(Zmod(4), 2, [(2, 0)]),  # Z/2 + Z/4
        present_module(Zmod(8), 2, [(2, 2), (0, 4)]),  # Z/2 + Z/4, skew coordinates
    ],
    ids=["z2^3", "z2+z4", "z2+z4-skew"],
)
def test_all_submodules_match_element_oracle_small_presentations(m):
    _assert_submodules_match_element_oracle(m)


def test_submodule_from_lattice_matches_generator_matrix(rng):
    for ring in (ZZ, Zmod(12)):
        for _ in range(40):
            g = rng.randint(1, 3)
            rels = [
                tuple(rng.randint(-9, 9) for _ in range(g))
                for _ in range(rng.randint(0, g + 1))
            ]
            m = present_module(ring, g, rels)
            gens = [
                tuple(rng.randint(-9, 9) for _ in range(g))
                for _ in range(rng.randint(0, 3))
            ]
            lat = Submodule(m, gens).lattice
            a = Submodule(m, lat)
            b = Submodule(m, lat.basis_matrix(ring))
            assert a.lattice == b.lattice == lat
            assert a.canonical_gens == b.canonical_gens


def test_module_from_relation_lattice_matches_relation_matrix(rng):
    for ring in (ZZ, Zmod(12), Zmod(72)):
        for _ in range(40):
            g = rng.randint(1, 3)
            m = present_module(ring, g, [
                tuple(rng.randint(-9, 9) for _ in range(g))
                for _ in range(rng.randint(0, g + 1))
            ])
            u = m.submodule([
                tuple(rng.randint(-9, 9) for _ in range(g))
                for _ in range(rng.randint(0, 3))
            ])
            b = u.canonical_gens
            rel = m.lattice.preimage(b)
            from_lattice = FPModule(ring, b.cols, rel)
            from_matrix = FPModule(ring, b.cols, rel.basis_matrix(ring))
            assert from_lattice == from_matrix
            assert from_lattice.lattice == rel
            assert from_lattice.relations == from_matrix.relations
            assert from_lattice.invariant_factors == from_matrix.invariant_factors
            assert sub_as_module(u)[0] == from_matrix


def test_module_rejects_relation_lattice_off_the_ring():
    with pytest.raises(ValueError, match="generators"):
        FPModule(ZZ, 2, Lattice.from_columns(3, [(4, 0, 0)]))
    with pytest.raises(ValueError, match=r"contain 4\*Z\^2"):
        FPModule(Zmod(4), 2, Lattice.from_columns(2, [(4, 0), (0, 8)]))
    assert FPModule(Zmod(4), 2, Lattice.from_columns(2, [(4, 0), (0, 2)])).order() == 8
    z_z8 = FPModule(ZZ, 2, Lattice.from_columns(2, [(0, 8)]))
    assert z_z8.invariant_factors == (8, 0)


def test_submodule_rejects_lattice_missing_parent_relations():
    m = present_module(ZZ, 2, [(4, 0), (0, 6)])
    with pytest.raises(ValueError, match="relations"):
        Submodule(m, Lattice.from_columns(2, [(8, 0), (0, 6)]))
    with pytest.raises(ValueError, match="generators"):
        Submodule(m, Lattice.from_columns(3, [(4, 0, 0), (0, 6, 0)]))
    assert Submodule(m, Lattice.from_columns(2, [(2, 0), (0, 6)])).size() == 2


def test_zero_module_ops_accept_degenerate_input():
    m = present_module(ZZ, 0)
    z = m.zero_submodule()
    assert sub_meet(z, z) == z
    assert sub_join(z, z) == z
    assert z.is_whole and z.is_zero
    q, proj = quotient(m, z)
    assert q.is_zero


def test_direct_sum_matches_concatenated_relations(rng):
    # the block-diagonal lattice of the two canonical bases is taken as is;
    # it must equal the lattice echelonized from the concatenated relations
    def module(ring):
        g = rng.randint(0, 3)
        return present_module(ring, g, [
            tuple(rng.randint(-9, 9) for _ in range(g))
            for _ in range(rng.randint(0, g + 1))
        ])

    for ring in (ZZ, Zmod(12), Zmod(72)):
        for _ in range(120):
            m1, m2 = module(ring), module(ring)
            g1, g2 = m1.n_gens, m2.n_gens
            cols = [tuple(c) + (0,) * g2 for c in m1.relations.columns()]
            cols += [(0,) * g1 + tuple(c) for c in m2.relations.columns()]
            expected = FPModule(ring, g1 + g2, cols)
            got = direct_sum(m1, m2)
            assert got == expected
            assert got.lattice.pivots == expected.lattice.pivots
            assert got.invariant_factors == expected.invariant_factors
            assert got.relations == got.lattice.basis_matrix(ring)


def _random_module_and_submodule(rng, ring):
    g = rng.randint(0, 3)
    m = present_module(ring, g, [
        tuple(rng.randint(-9, 9) for _ in range(g))
        for _ in range(rng.randint(0, g + 1))
    ])
    return m, m.submodule([
        tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(rng.randint(0, 3))
    ])


def _assert_same_submodule(got, expected):
    assert got == expected
    assert got.canonical_gens == expected.canonical_gens
    assert (
        sub_as_module(got)[0].invariant_factors
        == sub_as_module(expected)[0].invariant_factors
    )


def test_lattice_constructions_match_matrix_built_oracles(rng):
    # quotients, zero and whole submodules and images are built from the
    # lattices in hand; the matrix-built constructions agree on 330 pairs
    for ring in (ZZ, Zmod(12), Zmod(72)):
        for _ in range(110):
            m, u = _random_module_and_submodule(rng, ring)
            q, expected = quotient_module(m, u), quotient_by_concatenation(m, u)
            assert q == expected and q.lattice == u.lattice
            assert q.invariant_factors == expected.invariant_factors
            _assert_same_submodule(m.zero_submodule(), zero_by_relations(m))
            whole = m.whole_submodule()
            _assert_same_submodule(whole, whole_by_identity(m))
            m2, _ = _random_module_and_submodule(rng, ring)
            f = Homomorphism.zero(m, m2)
            for gen in hom_group(m, m2).generators:
                f = f + gen.scale(rng.randint(-3, 3))
            _assert_same_submodule(sub_image(f, u), image_by_matrix(f, u))


def test_quotient_module_runs_no_echelon(echelon_calls):
    m = present_module(Zmod(12), 2, [(2, 4)])
    u = m.submodule([(3, 1)])
    before = len(echelon_calls)
    q = quotient_module(m, u)
    assert len(echelon_calls) == before
    assert q == quotient_by_concatenation(m, u)


def test_modules_store_only_their_lattices():
    m = present_module(Zmod(6), 2, IntMatrix([[4, 0], [0, 3]], Zmod(6)))
    u = m.submodule([(1, 1)])
    assert set(FPModule.__slots__) == {"ring", "n_gens", "lattice", "invariant_factors", "_hash"}
    assert set(Submodule.__slots__) == {"parent", "lattice", "_hash"}
    for obj in (m, u):
        assert not any(isinstance(getattr(obj, a), IntMatrix) for a in obj.__slots__)


def test_relations_are_the_canonical_basis_whatever_the_presentation(rng):
    a = present_module(Zmod(6), 1, [(4,)])
    b = present_module(Zmod(6), 1, [(2,)])
    assert a == b
    assert a.relations == b.relations == IntMatrix([[2]], Zmod(6))
    for ring in (ZZ, Zmod(12), Zmod(72)):
        for _ in range(40):
            g = rng.randint(1, 3)
            cols = [
                tuple(rng.randint(-9, 9) for _ in range(g))
                for _ in range(rng.randint(1, g + 1))
            ]
            # the same lattice, spanned in another order with a redundant column
            mixed = cols[::-1] + [tuple(x + 2 * y for x, y in zip(cols[0], cols[-1]))]
            m1 = present_module(ring, g, cols)
            m2 = present_module(ring, g, IntMatrix.from_columns(mixed, g))
            assert m1 == m2
            assert m1.relations == m2.relations == m1.lattice.basis_matrix(ring)


def _assert_matches_eager_oracle(s):
    eager = canonical_gens_eager(s)
    assert s.canonical_gens == eager
    assert s.is_zero == (eager.cols == 0)
    assert Submodule(s.parent, s.canonical_gens) == s


def test_canonical_gens_and_is_zero_match_the_eager_oracle(rng):
    for n in (4, 6, 12, 36):
        for m in enumerate_universe(Zmod(n), 2, 36):
            subs = all_submodules(m)
            assert sum(s.is_zero for s in subs) == 1
            for s in subs:
                _assert_matches_eager_oracle(s)
    for ring in (ZZ, Zmod(12), Zmod(72)):
        for _ in range(60):
            m, u = _random_module_and_submodule(rng, ring)
            for s in (u, m.zero_submodule(), m.whole_submodule()):
                _assert_matches_eager_oracle(s)
