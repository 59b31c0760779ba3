from math import gcd

import pytest

from modclose import (
    DivisibleModule,
    Homomorphism,
    OracleInfeasibleError,
    Subcategory,
    Submodule,
    ZZ,
    Zmod,
    axiom_suite,
    closedness_witness_scan,
    enumerate_homs,
    hom_group,
    is_closed,
    is_dense,
    is_hom_vanishing,
    kernel_of_hom,
    present_module,
    quotient_module,
    regular_closure,
    sub_meet,
)
from modclose.closure import _admits_nonzero_map
from modclose.elements import (
    ModuleElement,
    hom_apply,
    whole_submodule,
    zero_submodule,
)
from modclose.oracles import (
    separates_every_nonzero_element,
    torsion_preimage_by_exponent,
)

from conftest import random_finite_module
from oracles import (
    closure_by_kernel_meets,
    closure_by_prime_support,
    hom_identity,
    hom_is_zero,
)


# -- subcategory validation ---------------------------------------------------------


def test_subcategory_needs_an_object():
    with pytest.raises(ValueError):
        Subcategory(ZZ, [], [])


def test_subcategory_rejects_non_injective_object():
    r4 = Zmod(4)
    with pytest.raises(ValueError):
        Subcategory(r4, [present_module(r4, 1, [(2,)])])


def test_subcategory_rejects_finite_objects_over_z():
    with pytest.raises(ValueError):
        Subcategory(ZZ, [present_module(ZZ, 1, [(2,)])])


def test_subcategory_rejects_divisible_over_modular():
    with pytest.raises(ValueError):
        Subcategory(Zmod(4), [present_module(Zmod(4), 1)], [DivisibleModule.Q])


@pytest.mark.parametrize("ring, objects, divisible, exponent", [
    (ZZ, [], [DivisibleModule.Q], 1),
    (ZZ, [], [DivisibleModule.Q_MOD_Z], 0),
    (ZZ, [], [DivisibleModule.Q, DivisibleModule.Q_MOD_Z], 0),
    (Zmod(12), [(4,)], [], 4),
    (Zmod(12), [(4,), (3,)], [], 12),
    (Zmod(12), [(1,)], [], 1),  # the zero module alone sees no prime
], ids=["Q", "QmodZ", "Q-QmodZ", "Z4", "Z4-Z3", "zero"])
def test_subcategory_exponent(ring, objects, divisible, exponent):
    finite = [present_module(ring, 1, [rel]) for rel in objects]
    assert Subcategory(ring, finite, divisible).exponent == exponent


# -- worked closure examples -----------------------------------------------------------


def test_closure_mod4_worked_example():
    r4 = Zmod(4)
    m = present_module(r4, 1)
    n = Submodule(m, [(2,)])
    cat = Subcategory(r4, [m])
    res = regular_closure(m, n, cat)
    assert res.closure == n
    assert res.closed and not res.dense
    # brute force over all four maps out of m: the maps killing n are x -> 0
    # and x -> 2x, with kernels m and <2>
    kernels = [
        kernel_of_hom(h)
        for h in enumerate_homs(m, m)
        if all(hom_apply(h, ModuleElement(m, c)).is_zero for c in [(2,)])
    ]
    meet = whole_submodule(m)
    for k in kernels:
        meet = sub_meet(meet, k)
    assert meet == res.closure


def test_closure_dense_over_z_with_q():
    z = present_module(ZZ, 1)
    n = Submodule(z, [(2,)])
    cat = Subcategory(ZZ, [], [DivisibleModule.Q])
    res = regular_closure(z, n, cat)
    assert res.dense and not res.closed
    assert res.closure.is_whole


def test_closure_of_whole_module_is_trivial():
    r4 = Zmod(4)
    m = present_module(r4, 1)
    cat = Subcategory(r4, [m])
    res = regular_closure(m, whole_submodule(m), cat)
    assert res.dense and res.closed


def test_closure_of_zero_module():
    m = present_module(ZZ, 0)
    cat = Subcategory(ZZ, [], [DivisibleModule.Q])
    res = regular_closure(m, zero_submodule(m), cat)
    assert res.dense and res.closed


def test_closure_witnesses_deterministic_and_shrinking():
    r6 = Zmod(6)
    m = present_module(r6, 1)
    cat = Subcategory(r6, [present_module(r6, 1, [(2,)])])
    res = regular_closure(m, zero_submodule(m), cat)
    assert len(res.witnesses) == 1
    w = res.witnesses[0]
    assert w.hom is not None and not hom_is_zero(w.hom)


# -- divisible rules --------------------------------------------------------------------

Q_ONLY = Subcategory(ZZ, [], [DivisibleModule.Q])
Q_MOD_Z_ONLY = Subcategory(ZZ, [], [DivisibleModule.Q_MOD_Z])


def test_divisible_q_worked_example():
    m = present_module(ZZ, 2, [(0, 2)])  # Z + Z/2
    c = regular_closure(m, zero_submodule(m), Q_ONLY).closure
    assert c.canonical_gens == ((0, 1),)


def test_divisible_q_on_free_module():
    z = present_module(ZZ, 1)
    c = regular_closure(z, zero_submodule(z), Q_ONLY).closure
    assert c.is_zero


def test_divisible_q_mod_z_is_identity(rng):
    for _ in range(10):
        g = rng.randint(0, 2)
        m = present_module(
            ZZ,
            g,
            [
                tuple(rng.randint(-6, 6) for _ in range(g))
                for _ in range(rng.randint(0, 2))
            ],
        )
        gens = [
            tuple(rng.randint(-6, 6) for _ in range(g))
            for _ in range(rng.randint(0, 2))
        ]
        n = Submodule(m, gens)
        assert regular_closure(m, n, Q_MOD_Z_ONLY).closure == n


def test_divisible_q_idempotent_and_matches_exponent_formula(rng):
    for _ in range(10):
        g = rng.randint(1, 2)
        m = present_module(
            ZZ,
            g,
            [
                tuple(rng.randint(-6, 6) for _ in range(g))
                for _ in range(rng.randint(0, 2))
            ],
        )
        n = Submodule(
            m, [tuple(rng.randint(-6, 6) for _ in range(g)) for _ in range(rng.randint(0, 2))]
        )
        c = regular_closure(m, n, Q_ONLY).closure
        assert regular_closure(m, c, Q_ONLY).closure == c
        assert torsion_preimage_by_exponent(m, n) == c


def test_divisible_witnesses_are_the_objects_receiving_a_nonzero_map():
    both = Subcategory(ZZ, [], [DivisibleModule.Q, DivisibleModule.Q_MOD_Z])
    z2 = present_module(ZZ, 2)
    free = regular_closure(z2, Submodule(z2, [(1, 0)]), both)  # quotient Z
    assert free.closed and not free.dense
    assert [(w.source, w.hom) for w in free.witnesses] == [
        (DivisibleModule.Q, None),
        (DivisibleModule.Q_MOD_Z, None),
    ]
    z = present_module(ZZ, 1)
    finite = regular_closure(z, Submodule(z, [(6,)]), Q_ONLY)  # quotient Z/6
    assert finite.dense and finite.witnesses == ()


def test_q_mod_z_separation_oracle():
    # finite quotients: maps into cyclic pieces separate every nonzero coset
    for rels, gens in [
        ([(4,)], [(2,)]),
        ([(6,)], []),
        ([(2, 0), (0, 8)], [(1, 2)]),
    ]:
        g = len(rels[0])
        m = present_module(ZZ, g, rels)
        n = Submodule(m, gens)
        assert separates_every_nonzero_element(m, n)


def test_divisible_rules_reject_modular_ring():
    m = present_module(Zmod(4), 1)
    with pytest.raises(ValueError):
        regular_closure(m, zero_submodule(m), Q_ONLY)


# -- density and the hom-vanishing equivalence ----------------------------------------------


def test_density_worked_examples():
    r4 = Zmod(4)
    m = present_module(r4, 1)
    n = Submodule(m, [(2,)])
    cat = Subcategory(r4, [m])
    assert is_dense(m, n, cat) is False
    assert is_hom_vanishing(m, n, cat) is False

    z = present_module(ZZ, 1)
    nz = Submodule(z, [(2,)])
    catq = Subcategory(ZZ, [], [DivisibleModule.Q])
    assert is_dense(z, nz, catq) is True
    assert is_hom_vanishing(z, nz, catq) is True

    assert is_dense(m, whole_submodule(m), cat) is True
    assert is_hom_vanishing(m, whole_submodule(m), cat) is True


def test_density_equivalence_random_modular(rng):
    for _ in range(30):
        n_mod = rng.choice([4, 6, 8, 9])
        ring = Zmod(n_mod)
        m = random_finite_module(rng, ring, max_gens=2, max_order=36)
        gens = [
            tuple(rng.randint(0, n_mod - 1) for _ in range(m.n_gens))
            for _ in range(rng.randint(0, 2))
        ]
        n = Submodule(m, gens)
        objs = [
            present_module(ring, 1),
            present_module(ring, 0),
        ]
        cat = Subcategory(ring, [rng.choice(objs)])
        assert is_dense(m, n, cat) == is_hom_vanishing(m, n, cat)


# -- closedness and the witness scan ----------------------------------------------------------


def test_closedness_worked_examples():
    r4 = Zmod(4)
    m = present_module(r4, 1)
    n = Submodule(m, [(2,)])
    cat = Subcategory(r4, [m])
    assert is_closed(m, n, cat) is True
    scan = closedness_witness_scan(m, n, cat)
    assert scan.exists_reading_closed and scan.agrees_with_closure
    assert len(scan.entries) == 1  # the unique nonzero submodule of Z/2

    z = present_module(ZZ, 1)
    nz = Submodule(z, [(2,)])
    catq = Subcategory(ZZ, [], [DivisibleModule.Q])
    assert is_closed(z, nz, catq) is False
    scan2 = closedness_witness_scan(z, nz, catq)
    assert not scan2.exists_reading_closed and scan2.agrees_with_closure

    assert is_closed(m, whole_submodule(m), cat) is True
    scan3 = closedness_witness_scan(m, whole_submodule(m), cat)
    assert scan3.entries == () and scan3.exists_reading_closed


def test_scan_infeasible_on_infinite_quotient():
    z = present_module(ZZ, 1)
    cat = Subcategory(ZZ, [], [DivisibleModule.Q])
    with pytest.raises(OracleInfeasibleError):
        closedness_witness_scan(z, zero_submodule(z), cat)


def test_forall_reading_fails_over_z_with_both_divisibles():
    # torsion module, zero submodule: closed, and the existential reading
    # agrees; but Hom(-, Q) = 0 breaks the universal reading
    m = present_module(ZZ, 1, [(2,)])
    cat = Subcategory(ZZ, [], [DivisibleModule.Q, DivisibleModule.Q_MOD_Z])
    scan = closedness_witness_scan(m, zero_submodule(m), cat)
    assert scan.closure_closed is True
    assert scan.exists_reading_closed is True
    assert scan.agrees_with_closure
    assert scan.forall_reading_closed is False


# -- generator sufficiency ---------------------------------------------------------------------


def test_intersecting_generator_kernels_equals_all_homs(rng):
    for _ in range(10):
        n_mod = rng.choice([4, 6, 9])
        ring = Zmod(n_mod)
        m = random_finite_module(rng, ring, max_gens=2, max_order=36)
        n = Submodule(
            m, [tuple(rng.randint(0, n_mod - 1) for _ in range(m.n_gens))]
        )
        obj = present_module(ring, 1)
        cat = Subcategory(ring, [obj])
        res = regular_closure(m, n, cat)
        q = quotient_module(m, n)
        meet = whole_submodule(m)
        for h in enumerate_homs(q, obj):
            lifted = Homomorphism(m, obj, h.matrix)
            meet = sub_meet(meet, kernel_of_hom(lifted))
        assert meet == res.closure


def _injective_orders(n_mod):
    """The orders d of the injective cyclic modules Z/d over Z/n: each prime
    power of n is taken fully or not at all."""
    return [
        d for d in range(2, n_mod + 1) if n_mod % d == 0 and gcd(d, n_mod // d) == 1
    ]


def _injective_object(rng, ring, max_factors):
    orders = [
        rng.choice(_injective_orders(ring.modulus))
        for _ in range(rng.randint(1, max_factors))
    ]
    r = len(orders)
    diagonal = [
        tuple(d if i == j else 0 for i in range(r)) for j, d in enumerate(orders)
    ]
    return present_module(ring, r, diagonal)


def test_closure_matches_kernel_meets_on_wide_modules(rng):
    """Modules shaped like the benchmark's closure requests: (Z/n)^k with up
    to two relations, N on one to three generators, one or two objects.  The
    witnesses are every lifted hom-group generator, in object order, and
    their kernels meet in the closure."""
    proper = 0
    for _ in range(40):
        ring = Zmod(rng.choice([72, 200, 360]))
        k = rng.randint(6, 12)

        def columns(count):
            return [
                tuple(rng.randrange(ring.modulus) for _ in range(k))
                for _ in range(count)
            ]

        m = present_module(ring, k, columns(rng.randint(0, 2)))
        n = Submodule(m, columns(rng.randint(1, 3)))
        cat = Subcategory(
            ring, [_injective_object(rng, ring, 3) for _ in range(rng.randint(1, 2))]
        )
        res = regular_closure(m, n, cat)
        assert res.closure == closure_by_kernel_meets(m, n, cat)
        assert res.closure == closure_by_prime_support(m, n, cat)
        q = quotient_module(m, n)
        lifted = [
            Homomorphism(m, obj, gen.matrix)
            for obj in cat.finite_objects
            for gen in hom_group(q, obj).generators
        ]
        assert [w.hom for w in res.witnesses] == lifted
        assert [w.source for w in res.witnesses] == [h.cod for h in lifted]
        meet = whole_submodule(m)
        for w in res.witnesses:
            assert all(
                hom_apply(w.hom, ModuleElement(m, c)).is_zero
                for c in n.canonical_gens
            )
            meet = sub_meet(meet, kernel_of_hom(w.hom))
        assert meet == res.closure
        proper += not (res.dense or res.closed)
    assert proper > 0


def test_closure_matches_prime_support_form_at_desk_scale(rng):
    for _ in range(900):
        ring = Zmod(rng.choice([4, 6, 8, 9, 12, 18, 20, 36, 72]))
        m = random_finite_module(rng, ring, max_gens=3, max_order=ring.modulus**3)
        n = Submodule(
            m, [
                tuple(rng.randrange(ring.modulus) for _ in range(m.n_gens))
                for _ in range(rng.randint(0, 2))
            ]
        )
        cat = Subcategory(
            ring, [_injective_object(rng, ring, 2) for _ in range(rng.randint(1, 2))]
        )
        assert regular_closure(m, n, cat).closure == closure_by_prime_support(m, n, cat)


def test_nonzero_map_by_invariant_factors_matches_hom_group(rng):
    def module(ring):
        # up to three generators and at most as many relations, so over Z
        # free summands are common
        g = rng.randint(0, 3)
        rels = [
            tuple(rng.randint(-9, 9) for _ in range(g))
            for _ in range(rng.randint(0, g))
        ]
        return present_module(ring, g, rels)

    free_pairs, answers = 0, set()
    for ring in [ZZ] + [Zmod(n) for n in (4, 6, 8, 12, 30, 36, 72)]:
        for _ in range(120):
            x, a = module(ring), module(ring)
            admits = _admits_nonzero_map(x.invariant_factors, a)
            assert admits == bool(hom_group(x, a).generators)
            free_pairs += x.free_rank() > 0 and a.free_rank() > 0
            answers.add(admits)
    assert free_pairs > 0 and answers == {True, False}


def test_closure_is_idempotent(rng):
    for _ in range(10):
        n_mod = rng.choice([4, 6, 8, 12])
        ring = Zmod(n_mod)
        m = random_finite_module(rng, ring, max_gens=2, max_order=36)
        n = Submodule(
            m, [tuple(rng.randint(0, n_mod - 1) for _ in range(m.n_gens))]
        )
        cat = Subcategory(ring, [present_module(ring, 1)])
        c = regular_closure(m, n, cat).closure
        assert regular_closure(m, c, cat).closure == c


# -- axiom suite --------------------------------------------------------------------------------


def test_axiom_suite_worked_example():
    r4 = Zmod(4)
    m = present_module(r4, 1)
    cat = Subcategory(r4, [m])
    n = Submodule(m, [(2,)])
    samples = [(n, zero_submodule(m), hom_identity(m))]
    report = axiom_suite(m, cat, samples)
    assert report.extension_ok
    assert report.monotonicity_ok
    assert report.idempotency_ok
    assert report.continuity_ok
    assert report.all_axioms_ok


def test_axiom_suite_continuity_with_projection():
    z = present_module(ZZ, 1)
    n = Submodule(z, [(2,)])
    q = quotient_module(z, n)
    proj = Homomorphism(z, q, [[1]])
    cat = Subcategory(ZZ, [], [DivisibleModule.Q_MOD_Z])
    report = axiom_suite(z, cat, [(n, zero_submodule(z), proj)])
    assert report.continuity_ok
    assert report.all_axioms_ok
