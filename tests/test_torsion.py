import itertools
import math
import random
from functools import lru_cache

import pytest

from modclose import (
    Classification,
    DivisibleModule,
    ModuleUniverse,
    Subcategory,
    Submodule,
    ZZ,
    Zmod,
    classify,
    direct_sum,
    enumerate_universe,
    free_summand_rank,
    hom_group,
    is_bounded,
    all_submodules,
    present_module,
    quotient_module,
    sub_as_module,
    torsion_radical,
    verify_torsion_theory,
)
from modclose.elements import zero_submodule
from modclose.lattices import Lattice
from modclose.matrices import IntMatrix
from modclose.torsion import (
    UNIVERSE_ORDER_CAP,
    class_pair_support,
    _in_torsion_class,
    _in_torsion_free_class,
    _sum_chain,
)

from conftest import random_finite_module
from oracles import class_pairs, closure_by_prime_support, universe_chains


# -- radical ------------------------------------------------------------------------


def test_radical_worked_example():
    r6 = Zmod(6)
    m = present_module(r6, 1)
    cat = Subcategory(r6, [present_module(r6, 1, [(2,)])])
    t = torsion_radical(m, cat)
    assert t == Submodule(m, [(2,)])
    smod, _ = sub_as_module(t)
    assert smod.invariant_factors == (3,)


def test_radical_of_subcategory_member_is_zero():
    r6 = Zmod(6)
    a = present_module(r6, 1, [(2,)])
    cat = Subcategory(r6, [a])
    assert torsion_radical(a, cat).is_zero


def test_radical_of_zero_module():
    r6 = Zmod(6)
    cat = Subcategory(r6, [present_module(r6, 1, [(2,)])])
    z = present_module(r6, 0)
    assert torsion_radical(z, cat).is_zero


def test_radical_kills_all_homs(rng):
    # any map into a subcategory object vanishes on the radical
    for _ in range(8):
        n_mod = rng.choice([4, 6, 12])
        ring = Zmod(n_mod)
        g = rng.randint(1, 2)
        m = present_module(
            ring,
            g,
            [tuple(rng.randint(0, n_mod - 1) for _ in range(g))],
        )
        obj = present_module(ring, 1)
        cat = Subcategory(ring, [obj])
        t = torsion_radical(m, cat)
        smod, incl = sub_as_module(t)
        assert not hom_group(smod, obj).generators


def _prime_power_subcategories(ring):
    """The subcategory of Z/q for every nonempty set of full prime powers q
    of the modulus."""
    powers, rest, p = [], ring.modulus, 2
    while rest > 1:
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        if q > 1:
            powers.append(q)
        p += 1
    return [
        Subcategory(ring, [present_module(ring, 1, [(q,)]) for q in chosen])
        for size in range(1, len(powers) + 1)
        for chosen in itertools.combinations(powers, size)
    ]


@pytest.mark.parametrize("n", [4, 6, 12, 36, 72])
def test_radical_is_m_s_times_m(n):
    # t(M) = m_S*M, m_S the product of the full prime powers of n over the
    # primes S the subcategory sees: the closure of 0 in closed form
    ring = Zmod(n)
    objects = enumerate_universe(ring, 2, 72)
    for cat in _prime_power_subcategories(ring):
        for m in objects:
            expected = closure_by_prime_support(m, zero_submodule(m), cat)
            assert torsion_radical(m, cat) == expected


# -- classification ----------------------------------------------------------------------


def test_classify_worked_examples():
    r6 = Zmod(6)
    cat = Subcategory(r6, [present_module(r6, 1, [(2,)])])
    assert classify(present_module(r6, 1, [(3,)]), cat) is Classification.TORSION
    assert classify(present_module(r6, 1, [(2,)]), cat) is Classification.TORSION_FREE
    assert classify(present_module(r6, 1), cat) is Classification.MIXED


def test_classify_zero_module_is_torsion():
    r6 = Zmod(6)
    cat = Subcategory(r6, [present_module(r6, 1, [(2,)])])
    assert classify(present_module(r6, 0), cat) is Classification.TORSION


# -- universes --------------------------------------------------------------------------------


def test_enumerate_universe_bounds():
    mods = enumerate_universe(Zmod(6), 2, 36)
    invariants = {m.invariant_factors for m in mods}
    assert () in invariants
    assert (2,) in invariants and (3,) in invariants and (6, 6) in invariants
    assert all(len(m.invariant_factors) <= 2 for m in mods)
    assert all((m.order() or 0) <= 36 for m in mods)
    assert len(invariants) == len(mods)


def test_enumerate_universe_over_z():
    mods = enumerate_universe(ZZ, 2, 12)
    invariants = {m.invariant_factors for m in mods}
    assert (2, 6) in invariants
    assert all(m.is_finite for m in mods)


def test_enumerate_universe_matches_direct_search():
    cases = [(n, g, o) for n in range(2, 37) for g in range(4) for o in (1, 8, 36, 100)]
    cases += [(0, g, o) for g in range(3) for o in (1, 12, 60, 100)]
    for modulus, max_gens, max_order in cases:
        ring = Zmod(modulus) if modulus else ZZ
        chains = universe_chains(modulus, max_gens, max_order)
        total = sum(math.prod(c) for c in chains)
        if total > UNIVERSE_ORDER_CAP:
            with pytest.raises(ValueError, match=str(UNIVERSE_ORDER_CAP)):
                enumerate_universe(ring, max_gens, max_order)
        else:
            got = [m.invariant_factors for m in enumerate_universe(ring, max_gens, max_order)]
            assert got == chains, (modulus, max_gens, max_order)


def test_enumerate_universe_tries_divisors_only():
    # looping the factor up to the order bound would take days here
    mods = enumerate_universe(Zmod(12), 1, 10**12)
    assert [m.invariant_factors for m in mods] == [(), (2,), (3,), (4,), (6,), (12,)]


def test_enumerate_universe_admits_desk_scale_universes():
    mods = enumerate_universe(Zmod(12), 3, 300)
    assert sum(m.order() for m in mods) == 2168 <= UNIVERSE_ORDER_CAP


def test_enumerate_universe_refuses_past_the_order_cap():
    for ring, max_gens, max_order in [(Zmod(12), 10, 100_000), (ZZ, 1, 10**12)]:
        with pytest.raises(ValueError, match=f"cap of {UNIVERSE_ORDER_CAP}"):
            enumerate_universe(ring, max_gens, max_order)


@pytest.mark.parametrize("ring, max_gens, max_order", [(Zmod(12), 3, 300), (ZZ, 2, 12)])
def test_chain_modules_equal_the_presented_diagonal_modules(ring, max_gens, max_order):
    # the diagonal lattice is taken as canonical and as its own Smith form
    mods = enumerate_universe(ring, max_gens, max_order)
    assert len(mods) > 10
    for m in mods:
        chain = m.invariant_factors
        k = len(chain)
        diag = [tuple(chain[j] if i == j else 0 for i in range(k)) for j in range(k)]
        presented = present_module(ring, k, diag)
        assert m == presented and m.invariant_factors == presented.invariant_factors
        assert m.lattice.pivots == presented.lattice.pivots
        rebuilt = Lattice.from_columns(k, m.lattice.basis)
        assert m.lattice.smith_coordinates() == rebuilt.smith_coordinates(), chain


def test_universe_dedupes_iso_classes():
    r4 = Zmod(4)
    a = present_module(r4, 1, [(2,)])
    b = present_module(r4, 2, [(2, 0), (0, 1)])  # also Z/2
    u = ModuleUniverse(r4, [a, b])
    assert len(u.objects) == 1


def test_universe_closure_flags():
    r4 = Zmod(4)
    full = ModuleUniverse(r4, enumerate_universe(r4, 2, 16))
    assert full.closed_under_submodules is True
    assert full.closed_under_quotients is True
    partial = ModuleUniverse(r4, [present_module(r4, 1)])
    assert partial.closed_under_submodules is False


def test_universe_flags_undecided_on_infinite_objects():
    u = ModuleUniverse(ZZ, [present_module(ZZ, 1, [(2,)]), present_module(ZZ, 1)])
    assert u.closed_under_submodules is None
    assert u.closed_under_quotients is None
    # a finite object that already fails decides the flag before Z^2 is reached
    u = ModuleUniverse(ZZ, [present_module(ZZ, 1, [(4,)]), present_module(ZZ, 2)])
    assert u.closed_under_submodules is False


def test_universe_flags_propagate_enumeration_errors(monkeypatch):
    import modclose.modules as modules_mod

    def broken(m):
        raise ValueError("enumeration broke")

    monkeypatch.setattr(modules_mod, "all_submodules", broken)
    # the flags read the pair sets; only the oracle's listed pairs enumerate
    u = ModuleUniverse(Zmod(4), [present_module(Zmod(4), 1)])
    with pytest.raises(ValueError, match="enumeration broke"):
        class_pairs(u)


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 18, 36, 72])
def test_class_pairs_match_presented_submodules_and_quotients(n, rng):
    # brute force: present every submodule and quotient as a module, keep the
    # distinct (submodule class, quotient class) pairs in first-seen order
    ring = Zmod(n)
    objs = enumerate_universe(ring, 2, 72)
    objs += [random_finite_module(rng, ring, max_gens=3, max_order=72) for _ in range(3)]
    u = ModuleUniverse(ring, objs)
    assert len(class_pairs(u)) == len(u.objects)
    for m, pairs in zip(u.objects, class_pairs(u)):
        expected = dict.fromkeys(
            (sub_as_module(s)[0].invariant_factors, quotient_module(m, s).invariant_factors)
            for s in all_submodules(m)
        )
        assert pairs == tuple(expected)
    classes = {m.invariant_factors for m in u.objects}
    every = [pair for pairs in class_pairs(u) for pair in pairs]
    assert u.closed_under_submodules == all(sc in classes for sc, _ in every)
    assert u.closed_under_quotients == all(qc in classes for _, qc in every)


@pytest.mark.parametrize("n", [4, 8, 9, 12, 16, 18, 27, 36, 72])
def test_pair_support_matches_enumerated_class_pairs(n):
    ring = Zmod(n)
    u = ModuleUniverse(ring, enumerate_universe(ring, 2, 72))
    assert len(u.pair_sets) == len(u.objects)
    for m, support, pairs in zip(u.objects, u.pair_sets, class_pairs(u)):
        assert class_pair_support(m.invariant_factors) == support == set(pairs)


def _p_group_types():
    """(p, chain) for every p-group type with p in {2, 3}, at most 3 parts,
    exponents 1-4 and order at most 128."""
    types = []
    for p in (2, 3):
        for k in (1, 2, 3):
            for exps in itertools.combinations_with_replacement(range(1, 5), k):
                if p ** sum(exps) <= 128:
                    types.append((p, tuple(p**e for e in exps)))
    return types


def test_pair_support_matches_enumeration_on_p_group_types():
    types = _p_group_types()
    assert len(types) == 33
    for p, chain in types:
        ring = Zmod(p**4)
        (pairs,) = class_pairs(ModuleUniverse(ring, [_diagonal(ring, chain)]))
        assert class_pair_support(chain) == set(pairs), chain


def test_pair_support_refuses_infinite_chains():
    with pytest.raises(ValueError, match="finite module"):
        class_pair_support((2, 0))


def test_pair_support_caps_its_work(monkeypatch):
    import modclose.torsion as torsion_mod

    # a 3-type of 21 cells is refused before any support is searched, even
    # that of the 2-type, which comes first
    searched = []
    monkeypatch.setattr(torsion_mod, "_lr_support", lambda lam: searched.append(lam))
    with pytest.raises(ValueError, match="3-part has 21 cells, past the cell cap of 20"):
        class_pair_support.__wrapped__((2, 2 * 3**21))
    assert searched == []
    monkeypatch.undo()
    # a type at the cap is searched: (Z/2)^20 has a subgroup (Z/2)^k with
    # quotient (Z/2)^(20-k) for each k
    assert torsion_mod.PAIR_TYPE_CELL_CAP == 20
    assert len(class_pair_support((2,) * 20)) == 21
    # a pair set at the cap is formed, one past it is refused
    chain = (2 * 3 * 5 * 7, 2 * 3 * 5**2 * 7)
    monkeypatch.setattr(torsion_mod, "PAIR_SET_CAP", len(class_pair_support(chain)))
    assert class_pair_support.__wrapped__(chain) == class_pair_support(chain)
    monkeypatch.setattr(torsion_mod, "PAIR_SET_CAP", torsion_mod.PAIR_SET_CAP - 1)
    with pytest.raises(ValueError, match="pairs, past the pair-set cap of"):
        class_pair_support.__wrapped__(chain)


def test_infinite_object_leaves_flags_undecided_and_verify_refuses():
    z2, z = present_module(ZZ, 1, [(2,)]), present_module(ZZ, 1)
    u = ModuleUniverse(ZZ, [z2, z])
    assert class_pairs(u) == ()  # Z sorts first and stops the scan
    assert u.closed_under_submodules is None and u.closed_under_quotients is None
    cat = Subcategory(ZZ, divisible_objects=[DivisibleModule.Q])
    with pytest.raises(ValueError, match=r"invariant factors \[0\] is infinite"):
        verify_torsion_theory(u, cat)
    # finite objects only: the scan covers every object
    u = ModuleUniverse(ZZ, enumerate_universe(ZZ, 2, 8))
    assert len(class_pairs(u)) == len(u.objects)
    assert verify_torsion_theory(u, cat).all_passed


# -- verification -------------------------------------------------------------------------------


def _universe(ring):
    return ModuleUniverse(ring, enumerate_universe(ring, 2, 36))


def test_verify_z6_with_z2():
    r6 = Zmod(6)
    cat = Subcategory(r6, [present_module(r6, 1, [(2,)])])
    rep = verify_torsion_theory(_universe(r6), cat)
    assert rep.all_passed
    t_inv = {m.invariant_factors for m in rep.T_members}
    assert t_inv == {(), (3,), (3, 3)}
    f_inv = {m.invariant_factors for m in rep.F_members}
    assert f_inv == {(), (2,), (2, 2)}


def test_verify_z4_cogenerator():
    r4 = Zmod(4)
    cat = Subcategory(r4, [present_module(r4, 1)])
    rep = verify_torsion_theory(_universe(r4), cat)
    assert rep.all_passed
    assert {m.invariant_factors for m in rep.T_members} == {()}
    assert len(rep.F_members) == len(rep.universe.objects)


def test_verify_vacuous_on_zero_universe():
    r4 = Zmod(4)
    cat = Subcategory(r4, [present_module(r4, 1)])
    rep = verify_torsion_theory(
        ModuleUniverse(r4, [present_module(r4, 0)]), cat
    )
    assert rep.all_passed


def test_verify_invariant_under_reordering(rng):
    r6 = Zmod(6)
    objs = enumerate_universe(r6, 2, 16)
    cat = Subcategory(
        r6,
        [present_module(r6, 1, [(2,)]), present_module(r6, 1, [(3,)])],
    )
    rep1 = verify_torsion_theory(ModuleUniverse(r6, objs), cat)
    shuffled = objs[:]
    rng.shuffle(shuffled)
    cat2 = Subcategory(
        r6,
        [present_module(r6, 1, [(3,)]), present_module(r6, 1, [(2,)])],
    )
    rep2 = verify_torsion_theory(ModuleUniverse(r6, shuffled), cat2)
    assert {m.invariant_factors for m in rep1.T_members} == {
        m.invariant_factors for m in rep2.T_members
    }
    assert {m.invariant_factors for m in rep1.F_members} == {
        m.invariant_factors for m in rep2.F_members
    }
    assert [c.passed for c in rep1.checks] == [c.passed for c in rep2.checks]
    assert rep1.all_passed and rep2.all_passed


def test_verify_adjoins_subcategory_objects():
    r6 = Zmod(6)
    cat = Subcategory(r6, [present_module(r6, 1, [(2,)])])
    u = ModuleUniverse(r6, [present_module(r6, 0)])
    rep = verify_torsion_theory(u, cat)
    assert rep.universe is not u
    assert [m.invariant_factors for m in rep.universe.objects] == [(), (2,)]


def test_verify_adjoin_enumerates_each_object_once(monkeypatch):
    # Z/12 is missing from the 7-object universe: adjoining it computes the
    # pair set of Z/12 alone (one new miss of a fresh pair-set memo), a
    # verify whose laws all pass lists no submodule, and the report equals
    # that over a universe holding Z/12 from the start
    import modclose.modules as modules_mod
    import modclose.torsion as torsion_mod

    r12 = Zmod(12)
    objects = enumerate_universe(r12, 2, 8)
    cat = Subcategory(r12, [present_module(r12, 1)])
    support = lru_cache(maxsize=1024)(torsion_mod.class_pair_support.__wrapped__)
    monkeypatch.setattr(torsion_mod, "class_pair_support", support)
    u = ModuleUniverse(r12, objects)
    misses = support.cache_info().misses
    listings, listing = [], modules_mod.all_submodules
    monkeypatch.setattr(modules_mod, "all_submodules", lambda m: listings.append(m) or listing(m))
    rep = verify_torsion_theory(u, cat)
    assert rep.all_passed
    assert len(objects) == 7 and len(rep.universe.objects) == 8
    assert support.cache_info().misses == misses + 1
    assert listings == []
    expected = verify_torsion_theory(ModuleUniverse(r12, objects + [cat.finite_objects[0]]), cat)
    for name in ("objects", "pair_sets", "closed_under_submodules",
                 "closed_under_quotients", "closed_under_sums"):
        assert getattr(rep.universe, name) == getattr(expected.universe, name), name
    assert class_pairs(rep.universe) == class_pairs(expected.universe)
    assert rep._replace(universe=None) == expected._replace(universe=None)


def test_verify_reuses_a_universe_holding_the_subcategory():
    r6 = Zmod(6)
    u = _universe(r6)
    # Z/2 in other coordinates: its class is already in the universe
    cat = Subcategory(r6, [present_module(r6, 2, [(2, 0), (0, 1)])])
    rep = verify_torsion_theory(u, cat)
    assert rep.universe is u
    assert rep.all_passed


def _diagonal(ring, chain):
    cols = [tuple(d if i == j else 0 for i in range(len(chain))) for j, d in enumerate(chain)]
    return present_module(ring, len(chain), cols)


@pytest.mark.parametrize(
    "n, chains",
    [(6, [(2,)]), (6, [(3,), (2,)]), (12, [(4,)]), (12, [(3,)]), (9, [(9,)])],
)
def test_membership_is_an_isomorphism_invariant_over_the_scan(n, chains):
    # verify decides T and F membership once per invariant-factor chain;
    # every sub and quotient presentation its scan meets must agree
    ring = Zmod(n)
    cat = Subcategory(ring, [_diagonal(ring, c) for c in chains])
    for m in enumerate_universe(ring, 2, 36):
        for s in all_submodules(m):
            for x in (sub_as_module(s)[0], quotient_module(m, s)):
                rep = _diagonal(ring, x.invariant_factors)
                in_t = _in_torsion_class(x.invariant_factors, cat)
                assert in_t == torsion_radical(x, cat).is_whole
                assert in_t == torsion_radical(rep, cat).is_whole
                in_f = _in_torsion_free_class(x.invariant_factors, cat)
                assert in_f == torsion_radical(x, cat).is_zero
                assert in_f == torsion_radical(rep, cat).is_zero


@pytest.mark.parametrize("n", [4, 6, 12, 36, 72])
def test_torsion_free_by_chain_matches_the_radical(n):
    # F membership by the lcm of the objects' factors equals the vanishing of
    # the computed radical on every object and every sub and quotient
    # presentation of the universe
    ring = Zmod(n)
    modules = []
    for m in enumerate_universe(ring, 2, 72):
        modules.append(m)
        for s in all_submodules(m):
            modules += [sub_as_module(s)[0], quotient_module(m, s)]
    for cat in _prime_power_subcategories(ring):
        for x in modules:
            in_f = _in_torsion_free_class(x.invariant_factors, cat)
            assert in_f == torsion_radical(x, cat).is_zero, (cat, x)


def _random_z_module(rng):
    """A random presentation over Z on at most 2 generators, so of free rank
    0 to 2."""
    g = rng.randint(0, 2)
    cols = [tuple(rng.randint(-6, 6) for _ in range(g)) for _ in range(rng.randint(0, g + 1))]
    return present_module(ZZ, g, cols)


def test_torsion_free_by_chain_matches_the_radical_over_z(rng):
    # Q separates the free factors only, Q/Z every element
    modules = [_diagonal(ZZ, c + (0,) * r)
               for c in universe_chains(0, 2, 12) for r in range(3)]
    modules += [_random_z_module(rng) for _ in range(60)]
    assert {m.free_rank() for m in modules} == {0, 1, 2}
    for objs in ([DivisibleModule.Q], [DivisibleModule.Q_MOD_Z],
                 [DivisibleModule.Q, DivisibleModule.Q_MOD_Z]):
        cat = Subcategory(ZZ, [], objs)
        for x in modules:
            in_f = _in_torsion_free_class(x.invariant_factors, cat)
            assert in_f == torsion_radical(x, cat).is_zero, (objs, x)


def test_sum_chain_matches_the_built_direct_sum(rng):
    for n in (4, 6, 12, 36, 72):
        objects = enumerate_universe(Zmod(n), 2, 72)
        for i, x in enumerate(objects):
            for y in objects[i:]:
                expected = direct_sum(x, y).invariant_factors
                assert _sum_chain(x.invariant_factors, y.invariant_factors) == expected
                assert _sum_chain(y.invariant_factors, x.invariant_factors) == expected
    # free factors (0) over Z
    modules = [_diagonal(ZZ, c + (0,) * r)
               for c in universe_chains(0, 2, 12) for r in range(3)]
    modules += [_random_z_module(rng) for _ in range(30)]
    for x in modules:
        for y in modules:
            expected = direct_sum(x, y).invariant_factors
            assert _sum_chain(x.invariant_factors, y.invariant_factors) == expected
    assert _sum_chain((), ()) == ()
    assert _sum_chain((0,), (2, 6)) == (2, 6, 0)
    assert _sum_chain((4, 0), (6,)) == (2, 12, 0)


PAIR_CHECKS = (
    "torsion_class_closed_under_quotients",
    "torsion_class_closed_under_submodules",
    "torsion_free_class_closed_under_submodules",
    "torsion_class_closed_under_extensions",
    "torsion_free_class_closed_under_extensions",
)


def _presented_scan(objects):
    """(chain of M, chain of S, chain of M/S) over every submodule S of every
    object M, each sub and quotient presented as a module."""
    return [
        (m.invariant_factors, sub_as_module(s)[0].invariant_factors,
         quotient_module(m, s).invariant_factors)
        for m in objects
        for s in all_submodules(m)
    ]


def _first_pair_counterexamples(scan, in_t, in_f):
    """The counterexample of each pair law: among the triples of the first
    object in scan order where it fails, the one with the least (chain of S,
    chain of M/S)."""
    position = {mc: i for i, mc in enumerate(dict.fromkeys(mc for mc, _, _ in scan))}
    bad = dict.fromkeys(PAIR_CHECKS)

    def note(name, key, value):
        if bad[name] is None or key < bad[name][0]:
            bad[name] = (key, value)

    for mc, sc, qc in scan:
        key = (position[mc], sc, qc)
        ext = {"middle": list(mc), "sub": list(sc), "quotient": list(qc)}
        if in_t(mc) and not in_t(qc):
            note(PAIR_CHECKS[0], key, {"module": list(mc), "quotient": list(qc)})
        if in_t(mc) and not in_t(sc):
            note(PAIR_CHECKS[1], key, {"module": list(mc), "submodule": list(sc)})
        if in_f(mc) and not in_f(sc):
            note(PAIR_CHECKS[2], key, {"module": list(mc), "submodule": list(sc)})
        if in_t(sc) and in_t(qc) and not in_t(mc):
            note(PAIR_CHECKS[3], key, ext)
        if in_f(sc) and in_f(qc) and not in_f(mc):
            note(PAIR_CHECKS[4], key, ext)
    return {name: found and found[1] for name, found in bad.items()}


SUM_CHECKS = (
    "torsion_class_closed_under_finite_sums",
    "torsion_free_class_closed_under_finite_products",
)


def _first_sum_counterexamples(chains, sums, in_t, in_f):
    """The first counterexample of each sum law, scanning every ordered pair
    of members in universe order."""
    bad = dict.fromkeys(SUM_CHECKS)
    for name, member in zip(SUM_CHECKS, (in_t, in_f)):
        members = [c for c in chains if member(c)]
        for x in members:
            for y in members:
                if bad[name] is None and not member(sums[x, y]):
                    bad[name] = {"left": list(x), "right": list(y)}
    return bad


@pytest.mark.parametrize("n", [12, 36])
def test_pair_laws_report_the_first_counterexample(n, rng, monkeypatch):
    # the laws hold for genuine subcategories, so T and F are rigged to
    # random sets of chains to make them fail; each pair law reports the
    # least failing pair of the first object where it fails
    import modclose.torsion as torsion_mod

    ring = Zmod(n)
    u = ModuleUniverse(ring, enumerate_universe(ring, 2, 36))
    cat = Subcategory(ring, [present_module(ring, 1)])
    chains = sorted({m.invariant_factors for m in u.objects})
    scan = _presented_scan(u.objects)
    ordered = [m.invariant_factors for m in u.objects]
    sums = {
        (x.invariant_factors, y.invariant_factors): direct_sum(x, y).invariant_factors
        for x in u.objects
        for y in u.objects
    }
    failures = 0
    for _ in range(15):
        t_set = {c for c in chains if rng.random() < 0.5}
        f_set = {c for c in chains if rng.random() < 0.5}
        monkeypatch.setattr(torsion_mod, "_in_torsion_class", lambda x, c: x in t_set)
        monkeypatch.setattr(
            torsion_mod, "_in_torsion_free_class", lambda x, c: x in f_set
        )
        rep = verify_torsion_theory(u, cat)
        got = {
            c.name: c.counterexample
            for c in rep.checks
            if c.name in PAIR_CHECKS + SUM_CHECKS
        }
        in_t, in_f = t_set.__contains__, f_set.__contains__
        expected = _first_pair_counterexamples(scan, in_t, in_f)
        expected.update(_first_sum_counterexamples(ordered, sums, in_t, in_f))
        assert got == expected
        failures += sum(v is not None for v in expected.values())
    assert failures > 0


def _scrambled(rng, ring, chain):
    """The class of ``chain`` on two generators in random coordinates:
    Z^2 / U diag(1, ..., chain) for a random unimodular U."""
    d = (1,) * (2 - len(chain)) + chain
    u = [[1, 0], [0, 1]]
    for _ in range(4):
        a = rng.randint(-3, 3)
        i = rng.randrange(2)
        u[i] = [x + a * y for x, y in zip(u[i], u[1 - i])]  # a row operation
    return present_module(ring, 2, [(u[0][j] * d[j], u[1][j] * d[j]) for j in range(2)])


@pytest.mark.parametrize("n", [8, 12, 36])
def test_verify_checks_do_not_depend_on_the_presentation(n, rng, monkeypatch):
    # T and F are rigged to random sets of chains so that laws fail; every
    # check, counterexamples included, reads the chains alone, so diagonal
    # and scrambled presentations of one universe report the same checks
    import modclose.torsion as torsion_mod

    ring = Zmod(n)
    chains = [m.invariant_factors for m in enumerate_universe(ring, 2, 36)]
    cat = Subcategory(ring, [present_module(ring, 1)])
    diagonal = ModuleUniverse(ring, [_diagonal(ring, c) for c in chains])
    failures = 0
    for _ in range(20):
        scrambled = ModuleUniverse(ring, [_scrambled(rng, ring, c) for c in chains])
        assert scrambled.objects != diagonal.objects
        assert [m.invariant_factors for m in scrambled.objects] == [
            m.invariant_factors for m in diagonal.objects
        ]
        t_set = {c for c in chains if rng.random() < 0.5}
        f_set = {c for c in chains if rng.random() < 0.5}
        monkeypatch.setattr(torsion_mod, "_in_torsion_class", lambda x, c: x in t_set)
        monkeypatch.setattr(
            torsion_mod, "_in_torsion_free_class", lambda x, c: x in f_set
        )
        checks = verify_torsion_theory(diagonal, cat).checks
        assert verify_torsion_theory(scrambled, cat).checks == checks
        failures += sum(c.counterexample is not None for c in checks)
    assert failures > 0


def test_radical_cache_is_bounded(monkeypatch):
    import modclose.oracles as oracles_mod
    import modclose.torsion as torsion_mod

    for memo in (torsion_mod.torsion_radical, torsion_mod._lr_support,
                 torsion_mod.class_pair_support, oracles_mod._all_homs):
        assert memo.cache_info().maxsize == 1024
    # filled past a small cap, the radicals stay right and the size bounded
    small = lru_cache(maxsize=3)(torsion_mod.torsion_radical.__wrapped__)
    ring = Zmod(12)
    cat = Subcategory(ring, [present_module(ring, 1, [(4,)])])
    objects = enumerate_universe(ring, 2, 36)
    assert len(objects) > 3
    for _ in range(2):
        for m in objects:
            expected = closure_by_prime_support(m, zero_submodule(m), cat)
            assert small(m, cat) == expected
            assert small.cache_info().currsize <= 3
    assert small.cache_info().misses == 2 * len(objects)


_CHECKS = [
    ("subcategory_meets_torsion_class_trivially", ""),
    ("subcategory_inside_torsion_free_class", ""),
    ("torsion_and_torsion_free_intersect_trivially", ""),
    ("no_nonzero_hom_torsion_to_torsion_free", ""),
    ("radical_is_idempotent", ""),
    ("radical_lies_in_torsion_class", ""),
    ("radical_of_quotient_by_radical_vanishes", ""),
    ("quotient_by_radical_is_torsion_free", ""),
    ("torsion_class_closed_under_quotients", ""),
    ("torsion_class_closed_under_finite_sums", "finite variant"),
    ("torsion_class_closed_under_extensions",
     "finite variant: extensions realizable inside universe objects"),
    ("torsion_class_closed_under_submodules", "hereditary property"),
    ("torsion_free_class_closed_under_submodules", ""),
    ("torsion_free_class_closed_under_finite_products", "finite variant"),
    ("torsion_free_class_closed_under_extensions",
     "finite variant: extensions realizable inside universe objects"),
]


def test_verify_reports_its_checks_in_one_order(monkeypatch):
    # the 15 checks, by name and detail, in report order, whether the laws
    # pass or (with T and F rigged to fixed class sets) fail
    import modclose.torsion as torsion_mod

    ring = Zmod(12)
    cat = Subcategory(ring, [present_module(ring, 1, [(4,)])])
    u = ModuleUniverse(ring, enumerate_universe(ring, 2, 36))
    rep = verify_torsion_theory(u, cat)
    assert rep.all_passed
    assert [(c.name, c.detail) for c in rep.checks] == _CHECKS
    monkeypatch.setattr(torsion_mod, "_in_torsion_class",
                        lambda chain, c: chain in {(), (2,), (12,), (2, 2)})
    monkeypatch.setattr(torsion_mod, "_in_torsion_free_class",
                        lambda chain, c: chain in {(), (3,), (6,), (2, 2)})
    rep = verify_torsion_theory(u, cat)
    assert [(c.name, c.detail) for c in rep.checks] == _CHECKS
    assert {c.name: c.counterexample for c in rep.checks if not c.passed} == {
        "subcategory_inside_torsion_free_class": {"object": [4]},
        "torsion_and_torsion_free_intersect_trivially": {"module": [2, 2]},
        "no_nonzero_hom_torsion_to_torsion_free": {"from": [2], "to": [6]},
        "radical_lies_in_torsion_class": {"module": [3]},
        "torsion_class_closed_under_quotients": {"module": [12], "quotient": [6]},
        "torsion_class_closed_under_finite_sums": {"left": [2], "right": [12]},
        "torsion_class_closed_under_extensions":
            {"middle": [4], "sub": [2], "quotient": [2]},
        "torsion_class_closed_under_submodules": {"module": [12], "submodule": [3]},
        "torsion_free_class_closed_under_submodules": {"module": [6], "submodule": [2]},
        "torsion_free_class_closed_under_finite_products": {"left": [3], "right": [3]},
        "torsion_free_class_closed_under_extensions":
            {"middle": [2, 6], "sub": [2, 2], "quotient": [3]},
    }
    assert all(c.passed == (c.counterexample is None) for c in rep.checks)


def _whole(lat, cat):
    k = lat.dim
    return Lattice.from_columns(k, [tuple(int(i == j) for i in range(k)) for j in range(k)])


def _doubled(lat, cat):
    k = lat.dim
    return Lattice.from_columns(
        k, lat.basis + tuple(tuple(2 * (i == j) for i in range(k)) for j in range(k))
    )


def _halved(lat, cat):
    k = lat.dim
    two = IntMatrix.from_columns([tuple(2 * (i == j) for i in range(k)) for j in range(k)], k, ZZ)
    return lat.preimage(two)


@pytest.mark.parametrize("rig, failing", [
    # t(M) = M: t(Z/2) = Z/2 maps into Z/4, so it lies outside T
    (_whole, {"radical_lies_in_torsion_class": {"module": [2]}}),
    # t(M) = 2M: t(Z/4) = 2Z/4 has t(2Z/4) = 0, and it maps into Z/4
    (_doubled, {"radical_is_idempotent": {"module": [4]},
                "radical_lies_in_torsion_class": {"module": [4]}}),
    # t(M) = {x : 2x = 0}: t(Z/2) = Z/2 maps into Z/4, and t(Z/4) = 2Z/4
    # leaves Z/4 / 2Z/4 = Z/2 with a nonzero radical
    (_halved, {"radical_lies_in_torsion_class": {"module": [2]},
               "radical_of_quotient_by_radical_vanishes": {"module": [4]},
               "quotient_by_radical_is_torsion_free": {"module": [4]}}),
], ids=["whole", "doubled", "halved"])
def test_radical_laws_catch_a_wrong_radical(rig, failing, monkeypatch):
    # the laws are computed on lattices, not assumed from the closed form
    import modclose.torsion as torsion_mod

    fresh = lru_cache(maxsize=1024)(torsion_mod.torsion_radical.__wrapped__)
    monkeypatch.setattr(torsion_mod, "torsion_radical", fresh)
    monkeypatch.setattr(torsion_mod, "_closure_lattice", rig)
    ring = Zmod(12)
    cat = Subcategory(ring, [present_module(ring, 1, [(4,)])])
    rep = verify_torsion_theory(ModuleUniverse(ring, enumerate_universe(ring, 1, 12)), cat)
    radical_laws = {c.name: c for c in rep.checks if "radical" in c.name}
    assert len(radical_laws) == 4
    assert {name for name, c in radical_laws.items() if not c.passed} == set(failing)
    for name, counterexample in failing.items():
        assert radical_laws[name].counterexample == counterexample


def test_verify_ring_mismatch():
    r6 = Zmod(6)
    cat = Subcategory(r6, [present_module(r6, 1, [(2,)])])
    with pytest.raises(ValueError):
        verify_torsion_theory(ModuleUniverse(Zmod(4), []), cat)


# -- boundedness and free rank over Z --------------------------------------------------------------


def test_bounded_worked_examples():
    assert is_bounded(present_module(ZZ, 1, [(6,)])) is True
    assert is_bounded(present_module(ZZ, 2, [(0, 2)])) is False
    assert is_bounded(present_module(ZZ, 0)) is True


def test_bounded_matches_hom_to_ring():
    z = present_module(ZZ, 1)
    for rels in [[(6,)], [(0, 2)], [], [(4, 0), (0, 4)]]:
        g = len(rels[0]) if rels else 1
        m = present_module(ZZ, g, rels)
        assert is_bounded(m) == (not hom_group(m, z).generators)


def test_free_summand_rank_examples():
    assert free_summand_rank(present_module(ZZ, 2, [(0, 2)])) == 1
    assert free_summand_rank(present_module(ZZ, 1, [(6,)])) == 0
    assert free_summand_rank(present_module(ZZ, 2)) == 2


def test_bounded_rejects_modular_ring():
    with pytest.raises(ValueError):
        is_bounded(present_module(Zmod(4), 1))
    with pytest.raises(ValueError):
        free_summand_rank(present_module(Zmod(4), 1))


def test_torsion_bridge_over_z(rng):
    cat = Subcategory(ZZ, [], [DivisibleModule.Q])
    for _ in range(20):
        g = rng.randint(0, 3)
        m = present_module(
            ZZ,
            g,
            [
                tuple(rng.randint(-9, 9) for _ in range(g))
                for _ in range(rng.randint(0, 4))
            ],
        )
        bounded = is_bounded(m)
        assert bounded == (free_summand_rank(m) == 0)
        assert bounded == (classify(m, cat) is Classification.TORSION)
