import random
import time
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from modclose import (
    ZZ,
    FPModule,
    IntMatrix,
    Zmod,
    all_submodules,
    enumerate_universe,
    hom_group,
    present_module,
    sub_as_module,
)
from modclose.lattices import Lattice
from modclose.matrices import _kernel_over_z
from modclose.rings import _seen_part

from conftest import random_finite_module
from oracles import (
    _with_modulus_columns,
    echelon_unreduced,
    intersect_by_smith,
    kernel_by_smith,
    preimage_by_smith,
    saturation_by_smith,
)


def columns_strategy(dim, max_cols=4):
    return st.lists(
        st.tuples(*([st.integers(min_value=-9, max_value=9)] * dim)),
        max_size=max_cols,
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.tuples(st.just(d), columns_strategy(d), st.randoms(use_true_random=False))
))
def test_canonical_basis_independent_of_generator_order(args):
    dim, cols, rnd = args
    lat = Lattice.from_columns(dim, cols)
    shuffled = cols[:]
    rnd.shuffle(shuffled)
    assert Lattice.from_columns(dim, shuffled) == lat
    # scaling a generator list by unimodular recombination keeps the lattice
    if len(cols) >= 2:
        mixed = cols[:]
        mixed[0] = tuple(a + 2 * b for a, b in zip(mixed[0], mixed[1]))
        assert Lattice.from_columns(dim, mixed) == lat


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.tuples(
        st.just(d),
        columns_strategy(d),
        st.tuples(*([st.integers(min_value=-20, max_value=20)] * d)),
        st.randoms(use_true_random=False),
    )
))
def test_reduce_gives_canonical_coset_representatives(args):
    dim, cols, vec, rnd = args
    lat = Lattice.from_columns(dim, cols)
    rep = lat.reduce(vec)
    # reduction is idempotent and moves by lattice vectors only
    assert lat.reduce(rep) == rep
    assert lat.contains(tuple(a - b for a, b in zip(vec, rep)))
    # translating by a random lattice vector does not change the representative
    if lat.basis:
        shift = list(vec)
        for col in lat.basis:
            r = rnd.randint(-3, 3)
            shift = [a + r * b for a, b in zip(shift, col)]
        assert lat.reduce(shift) == rep
    # basis columns are members; the basis is echelon with positive pivots
    for col, (row, pivot) in zip(lat.basis, lat.pivots):
        assert lat.contains(col)
        assert col[row] == pivot > 0
        assert all(col[i] == 0 for i in range(row))
    rows = [r for r, _ in lat.pivots]
    assert rows == sorted(set(rows))


def test_left_reduction_below_pivots():
    # earlier columns carry entries in [0, pivot) at later pivot rows
    rng = random.Random(5)
    for _ in range(200):
        dim = rng.randint(2, 4)
        cols = [
            tuple(rng.randint(-9, 9) for _ in range(dim))
            for _ in range(rng.randint(0, 4))
        ]
        lat = Lattice.from_columns(dim, cols)
        for j, (row, pivot) in enumerate(lat.pivots):
            for j2 in range(j):
                assert 0 <= lat.basis[j2][row] < pivot


def test_intersection_and_sum_against_membership():
    rng = random.Random(11)
    for _ in range(50):
        dim = rng.randint(1, 3)
        a = Lattice.from_columns(
            dim, [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(2)]
        )
        b = Lattice.from_columns(
            dim, [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(2)]
        )
        both = a.intersect(b)
        total = a.sum(b)
        for c in both.basis:
            assert a.contains(c) and b.contains(c)
        # box scan: vectors in both lattices lie in the intersection
        for _ in range(30):
            v = tuple(rng.randint(-12, 12) for _ in range(dim))
            if a.contains(v) and b.contains(v):
                assert both.contains(v)
            if a.contains(v) or b.contains(v):
                assert total.contains(v)


def test_saturation_examples():
    lat = Lattice.from_columns(2, [(2, 4)])
    sat = lat.saturation()
    assert sat.contains((1, 2))
    assert not sat.contains((1, 1))
    assert lat.saturation().saturation() == sat
    zero = Lattice.from_columns(2, [])
    assert zero.saturation() == zero


def test_seen_part_keeps_the_primes_of_e():
    assert _seen_part(12, 0) == 12
    assert _seen_part(12, 1) == 1
    assert _seen_part(1, 0) == _seen_part(1, 6) == 1
    assert _seen_part(12, 2) == 4
    assert _seen_part(12, 6) == _seen_part(12, 12) == 12
    assert _seen_part(18, 4) == 2
    assert _seen_part(35, 6) == 1  # coprime: no prime of 35 divides 6
    assert _seen_part(9, 10) == 1
    # a prime cofactor past the trial-division bound, never factored
    start = time.perf_counter()
    assert _seen_part(4 * (2**61 - 1), 6) == 4
    assert _seen_part(4 * (2**61 - 1), 0) == 4 * (2**61 - 1)
    assert time.perf_counter() - start < 0.1
    for d in range(1, 80):
        for e in range(40):
            part = _seen_part(d, e)
            # part divides d, only primes of e divide part (its exponents stay
            # below 7), and no prime of e is left in d / part
            assert d % part == 0 and e**7 % part == 0 and gcd(d // part, e) == 1


def _lattices_containing(n):
    """Every lattice of Z^2 containing n*Z^2, by its Hermite basis (a, 0),
    (b, c) with a and c dividing n and 0 <= b < a."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for a in divisors:
        for c in divisors:
            for b in range(a):
                if (n // c) * b % a == 0:
                    yield Lattice.from_columns(2, [(a, 0), (b, c)])


def test_saturation_by_an_exponent_matches_the_residue_oracle():
    # x lies in the saturation under e iff c*x lies in the lattice for some
    # c in 1..n coprime to e; every lattice of Z^2 containing n*Z^2, n <= 12,
    # as many as the subgroups of (Z/n)^2 (OEIS A060724)
    subgroup_counts = [1, 5, 6, 15, 8, 30, 10, 37, 23, 40, 14, 90]
    for n in range(1, 13):
        residues = [(x, y) for x in range(n) for y in range(n)]
        lattices = set(_lattices_containing(n))
        assert len(lattices) == subgroup_counts[n - 1]
        for lat in lattices:
            inside = {v for v in residues if lat.contains(v)}
            assert lat.saturation(1) == lat.saturation()
            for e in [0] + [d for d in range(1, n + 1) if n % d == 0]:
                units = [c for c in range(1, n + 1) if gcd(c, e) == 1]
                sat = lat.saturation(e)
                assert sat.contains_lattice(lat)
                for x, y in residues:
                    expected = any(((c * x) % n, (c * y) % n) in inside for c in units)
                    assert sat.contains((x, y)) == expected, (n, lat, e, (x, y))


def test_smith_coordinates_are_computed_once_and_stay_intact():
    # the reduction is kept on the lattice; its readers (hom groups,
    # saturations) get immutable rows, so the memo still equals the Smith
    # coordinates of a fresh lattice with the same basis
    rng = random.Random(1517)
    for k in range(60):
        n = (0, 4, 12, 36)[k % 4]
        ring = Zmod(n) if n else ZZ
        dim = rng.randint(1, 4)
        a = _random_lattice(rng, dim, rng.randint(0, dim + 1), 20, n)
        b = _random_lattice(rng, dim, rng.randint(0, dim + 1), 20, n)
        first = a.smith_coordinates()
        assert a.smith_coordinates() is first
        assert all(isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
                   for rows in first[1:])
        hom_group(FPModule(ring, dim, a), FPModule(ring, dim, b))
        hom_group(FPModule(ring, dim, b), FPModule(ring, dim, a))
        a.saturation()
        fresh = Lattice(a.dim, a.basis, a.pivots)
        assert a.smith_coordinates() == fresh.smith_coordinates()
        assert b.smith_coordinates() == Lattice(b.dim, b.basis, b.pivots).smith_coordinates()


def test_reduced_echelon_matches_unreduced_oracle():
    # the Hermite basis is unique, so reducing while building must not change
    # a single entry; half of the sets carry the n*I columns of a Z/n lift
    rng = random.Random(2024)
    for k in range(2000):
        dim = rng.randint(1, 7)
        cols = [
            tuple(rng.randint(-100, 100) for _ in range(dim))
            for _ in range(rng.randint(0, dim + 2))
        ]
        if k % 2:
            n = rng.choice((4, 6, 12, 36, 72, 360))
            cols += [tuple(n * (i == j) for i in range(dim)) for j in range(dim)]
        lat = Lattice.from_columns(dim, cols)
        assert (lat.basis, lat.pivots) == echelon_unreduced(dim, cols)


def test_reduced_echelon_matches_oracle_on_wide_z_lattice():
    # 30 relations on 32 generators: the unreduced echelon meets gcd steps
    # on 33,437-bit entries here, while the canonical basis has 232 bits
    rng = random.Random(26)
    cols = [tuple(rng.randint(-100, 100) for _ in range(32)) for _ in range(30)]
    lat = Lattice.from_columns(32, cols)
    assert (lat.basis, lat.pivots) == echelon_unreduced(32, cols)


def test_invariants_over_matches_submodule_presentations():
    # every submodule S of M: the invariants of S read off the lattices
    # equal those of S presented as a module in its own right
    rng = random.Random(20261018)
    checked = 0
    for n in (4, 6, 8, 9, 12, 18, 36, 72):
        ring = Zmod(n)
        mods = enumerate_universe(ring, 2, 72)
        mods += [random_finite_module(rng, ring, max_gens=3, max_order=72) for _ in range(4)]
        for m in mods:
            for s in all_submodules(m):
                assert s.lattice.invariants_over(m.lattice) == sub_as_module(s)[0].invariant_factors
                checked += 1
    # over Z, relation and submodule lattices of any rank
    for _ in range(150):
        g = rng.randint(1, 3)
        m = present_module(ZZ, g, [
            tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(rng.randint(0, g))
        ])
        s = m.submodule([
            tuple(rng.randint(-9, 9) for _ in range(g)) for _ in range(rng.randint(0, 3))
        ])
        assert s.lattice.invariants_over(m.lattice) == sub_as_module(s)[0].invariant_factors
    assert checked > 1300


def test_invariants_over_rejects_a_lattice_not_contained():
    two = Lattice.from_columns(2, [(2, 0), (0, 2)])
    assert two.invariants_over(Lattice.from_columns(2, [(4, 0), (0, 8)])) == (2, 4)
    assert two.invariants_over(two) == ()
    with pytest.raises(ValueError):
        two.invariants_over(Lattice.from_columns(2, [(1, 0)]))  # pivot not divisible
    with pytest.raises(ValueError):
        # pivot row divisible, remainder off the pivot rows
        Lattice.from_columns(2, [(1, 1)]).invariants_over(Lattice.from_columns(2, [(1, 0)]))
    with pytest.raises(ValueError):
        Lattice.from_columns(2, [(1, 0)]).invariants_over(Lattice.from_columns(2, [(0, 1)]))
    with pytest.raises(ValueError):
        two.invariants_over(Lattice.from_columns(3, []))


def _random_block(rng, rows, cols, entry):
    return IntMatrix(
        [[rng.randint(-entry, entry) for _ in range(cols)] for _ in range(rows)]
    )


def _random_lattice(rng, dim, rank, entry, n=0):
    """``rank`` random columns in Z^dim, with n*Z^dim adjoined when n > 0."""
    cols = [tuple(rng.randint(-entry, entry) for _ in range(dim)) for _ in range(rank)]
    cols += [tuple(n * (i == j) for i in range(dim)) for j in range(dim)] if n else []
    return Lattice.from_columns(dim, cols)


def _check_against_smith(a, l1, l2, f):
    k = _kernel_over_z(a)
    kernel = Lattice.from_columns(a.cols, k.columns())
    assert kernel.basis == tuple(k.columns())  # already canonical
    assert kernel == kernel_by_smith(a)
    assert l1.intersect(l2) == intersect_by_smith(l1, l2)
    assert l1.preimage(f) == preimage_by_smith(l1, f)
    assert l1.saturation() == saturation_by_smith(l1)


def test_stacked_echelon_matches_smith_oracles():
    # kernels, intersections, preimages and saturations read from one stacked
    # echelon equal the Smith-form routes; over Z/n the kernel is that of the
    # lifted [a | n*I] and the lattices contain n*Z^dim
    rng = random.Random(4410)
    for k in range(600):
        n = (0, 4, 6, 12, 36, 72)[k % 6]
        dim, g = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_block(rng, dim, g, 30)
        if n:
            a = _with_modulus_columns(a.with_ring(Zmod(n)))
        l1 = _random_lattice(rng, dim, rng.randint(0, dim + 1), 30, n)
        l2 = _random_lattice(rng, dim, rng.randint(0, dim + 1), 30, n)
        _check_against_smith(a, l1, l2, _random_block(rng, dim, g, 30))
    # 30 x 32 integer blocks, where a raw Smith reduction swells to entries
    # of about 340,000 bits
    for _ in range(3):
        _check_against_smith(
            _random_block(rng, 30, 32, 100),
            _random_lattice(rng, 32, 30, 100),
            _random_lattice(rng, 32, 28, 100),
            _random_block(rng, 32, 32, 100),
        )
