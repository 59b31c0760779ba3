"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v``; a one-line PASS/FAIL verdict
per criterion is printed in the terminal summary (and is visible with -s).
"""

import random
import time

from modclose import (
    Classification,
    DivisibleModule,
    FPModule,
    IntMatrix,
    ModuleUniverse,
    Subcategory,
    Submodule,
    ZZ,
    Zmod,
    all_submodules,
    axiom_suite,
    classify,
    closedness_witness_scan,
    enumerate_homs,
    enumerate_universe,
    free_summand_rank,
    hom_group,
    is_bounded,
    is_dense,
    is_hom_vanishing,
    is_injective_by_structure,
    is_injective_module,
    present_module,
    quotient_module,
    verify_torsion_theory,
)
from modclose.elements import (
    hom_group_elements,
    zero_submodule,
)

from conftest import ACCEPTANCE_RESULTS, random_finite_module
from oracles import hom_add, hom_scale, hom_zero
from test_matrices import snf_invariants_hold

EXHAUSTIVE_MODULI = [4, 6, 8, 9, 12]

_ring_data_cache = {}


def ring_data(n):
    """Exhaustive universe (<= 2 generators, order <= 36) and its injective
    singleton subcategories over Z/n."""
    if n not in _ring_data_cache:
        ring = Zmod(n)
        universe = enumerate_universe(ring, 2, 36)
        injectives = [m for m in universe if is_injective_module(m)]
        cats = [(obj, Subcategory(ring, [obj])) for obj in injectives]
        _ring_data_cache[n] = (ring, universe, cats)
    return _ring_data_cache[n]


def record(name, ok, detail):
    ACCEPTANCE_RESULTS[name] = f"{'PASS' if ok else 'FAIL'}: {detail}"
    print(f"{name}: {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_density_equivalence_exhaustive():
    start = time.monotonic()
    checked = 0
    discrepancies = []
    for n in EXHAUSTIVE_MODULI:
        ring, universe, cats = ring_data(n)
        for m in universe:
            for sub in all_submodules(m):
                q = quotient_module(m, sub)
                for obj, cat in cats:
                    dense = is_dense(m, sub, cat)
                    vanish_structural = is_hom_vanishing(m, sub, cat)
                    vanish_matrix = not hom_group(q, obj).generators
                    vanish_brute = len(enumerate_homs(q, obj)) == 1
                    checked += 1
                    if not (dense == vanish_matrix == vanish_brute == vanish_structural):
                        discrepancies.append(
                            (n, m.invariant_factors, sub.canonical_gens,
                             obj.invariant_factors)
                        )
    elapsed = time.monotonic() - start
    ok = not discrepancies and elapsed < 300
    record(
        "criterion 1 (density <=> vanishing hom, exhaustive)",
        ok,
        f"{checked} triples over Z/{{4,6,8,9,12}}, "
        f"{len(discrepancies)} discrepancies, {elapsed:.1f}s (budget 300s)",
    )
    assert discrepancies == []
    assert elapsed < 300


def test_criterion_2_closedness_scan_exhaustive():
    start = time.monotonic()
    checked = 0
    discrepancies = []
    for n in EXHAUSTIVE_MODULI:
        ring, universe, cats = ring_data(n)
        for m in universe:
            for sub in all_submodules(m):
                for obj, cat in cats:
                    scan = closedness_witness_scan(m, sub, cat)
                    checked += 1
                    if not scan.agrees_with_closure:
                        discrepancies.append(
                            (n, m.invariant_factors, sub.canonical_gens,
                             obj.invariant_factors)
                        )
    # documented counterexample to the universal reading over Z: a torsion
    # module with zero submodule is closed under {Q, Q/Z}, yet admits no
    # nonzero map to Q
    m = present_module(ZZ, 1, [(2,)])
    cat = Subcategory(ZZ, [], [DivisibleModule.Q, DivisibleModule.Q_MOD_Z])
    scan = closedness_witness_scan(m, zero_submodule(m), cat)
    counterexample_found = (
        scan.closure_closed
        and scan.exists_reading_closed
        and scan.agrees_with_closure
        and not scan.forall_reading_closed
    )
    elapsed = time.monotonic() - start
    ok = not discrepancies and counterexample_found
    record(
        "criterion 2 (closedness <=> existential witness scan)",
        ok,
        f"{checked} scans, {len(discrepancies)} discrepancies; universal-reading "
        f"counterexample over Z (Z/2, N=0, {{Q, Q/Z}}): "
        f"{'exhibited' if counterexample_found else 'MISSING'}, {elapsed:.1f}s",
    )
    assert discrepancies == []
    assert counterexample_found


def _random_submodule(rng, m):
    k = rng.randint(0, 2)
    lo, hi = (0, m.ring.modulus - 1) if m.ring.is_modular else (-6, 6)
    return Submodule(
        m, [tuple(rng.randint(lo, hi) for _ in range(m.n_gens)) for _ in range(k)]
    )


def _random_hom_from(rng, m, cod):
    hg = hom_group(m, cod)
    h = hom_zero(m, cod)
    for gen, d in zip(hg.generators, hg.structure):
        r = rng.randrange(d) if d else rng.randint(-3, 3)
        if r:
            h = hom_add(h, hom_scale(gen, r))
    return h


def test_criterion_3_closure_axioms_random():
    start = time.monotonic()
    rng = random.Random(31415)
    violations = []
    total = 1000
    modular_injectives = {}
    for i in range(total):
        if i % 5 < 3:  # 600 modular samples
            n = rng.choice(EXHAUSTIVE_MODULI)
            ring = Zmod(n)
            if n not in modular_injectives:
                modular_injectives[n] = [
                    m
                    for m in enumerate_universe(ring, 1, n)
                    if not m.is_zero and is_injective_module(m)
                ]
            m = random_finite_module(rng, ring, max_gens=2, max_order=24)
            objs = rng.sample(
                modular_injectives[n], rng.randint(1, min(2, len(modular_injectives[n])))
            )
            cat = Subcategory(ring, objs)
            y = random_finite_module(rng, ring, max_gens=2, max_order=16)
        else:  # 400 samples over the integers
            ring = ZZ
            g = rng.randint(0, 2)
            m = present_module(
                ring,
                g,
                [
                    tuple(rng.randint(-6, 6) for _ in range(g))
                    for _ in range(rng.randint(0, 2))
                ],
            )
            cat = Subcategory(
                ring,
                [],
                rng.choice(
                    [
                        [DivisibleModule.Q],
                        [DivisibleModule.Q_MOD_Z],
                        [DivisibleModule.Q, DivisibleModule.Q_MOD_Z],
                    ]
                ),
            )
            gy = rng.randint(0, 2)
            y = present_module(
                ring,
                gy,
                [
                    tuple(rng.randint(-6, 6) for _ in range(gy))
                    for _ in range(rng.randint(0, 2))
                ],
            )
        n1 = _random_submodule(rng, m)
        n2 = _random_submodule(rng, m)
        f = _random_hom_from(rng, m, y)
        report = axiom_suite(m, cat, [(n1, n2, f)])
        if not report.all_axioms_ok:
            violations.append((ring, m.invariant_factors))
    elapsed = time.monotonic() - start
    ok = not violations
    record(
        "criterion 3 (extension/monotonicity/continuity/idempotency)",
        ok,
        f"{total} random samples across both ring regimes, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    assert violations == []


def test_criterion_4_torsion_theory_configurations():
    start = time.monotonic()
    configs = [
        (6, [(2,)]),
        (6, [(3,)]),
        (12, [(4,)]),
        (4, []),  # the free rank-1 module over Z/4 (no relations)
    ]
    failures = []
    for n, rel in configs:
        ring = Zmod(n)
        obj = present_module(ring, 1, rel)
        cat = Subcategory(ring, [obj])
        universe = ModuleUniverse(ring, enumerate_universe(ring, 2, 36))
        rep = verify_torsion_theory(universe, cat)
        if not rep.all_passed:
            failures.append(
                (n, rel, [c.name for c in rep.checks if not c.passed])
            )
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 600
    record(
        "criterion 4 (induced torsion theory verified)",
        ok,
        f"configs (Z/6,{{Z/2}}), (Z/6,{{Z/3}}), (Z/12,{{Z/4}}), (Z/4,{{Z/4}}); "
        f"failures: {failures or 'none'}, {elapsed:.1f}s (budget 600s)",
    )
    assert failures == []
    assert elapsed < 600


def test_criterion_5_boundedness_bridge():
    rng = random.Random(27182)
    cat = Subcategory(ZZ, [], [DivisibleModule.Q])
    mismatches = []
    for _ in range(100):
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
        rank_zero = free_summand_rank(m) == 0
        torsion = classify(m, cat) is Classification.TORSION
        if not (bounded == rank_zero == torsion):
            mismatches.append(m.invariant_factors)
    ok = not mismatches
    record(
        "criterion 5 (bounded <=> no free summand <=> torsion under {Q})",
        ok,
        f"100 random presentations over Z, {len(mismatches)} mismatches",
    )
    assert mismatches == []


def _random_presented_module(rng, ring, max_order=64):
    """A random finite module with a deliberately messy presentation:
    an invariant-factor chain, re-expressed through redundant relation
    columns and a random change of generating basis."""
    if ring.is_modular:
        pool = [d for d in range(2, ring.modulus + 1) if ring.modulus % d == 0]
    else:
        pool = [2, 3, 4, 6, 8, 9, 12]
    chain = []
    prod = 1
    for _ in range(rng.choice([0, 1, 1, 2, 2, 2])):
        choices = [d for d in pool if prod * d <= max_order and (
            not chain or d % chain[-1] == 0)]
        if not choices:
            break
        chain.append(rng.choice(choices))
        prod *= chain[-1]
    g = len(chain)
    cols = [
        [chain[j] if i == j else 0 for i in range(g)] for j in range(g)
    ]
    # redundant relations: random combinations of the existing columns
    for _ in range(rng.randint(0, 2)):
        if cols:
            extra = [0] * g
            for c in cols:
                r = rng.randint(-2, 2)
                for i in range(g):
                    extra[i] += r * c[i]
            cols.append(extra)
    # change of basis: shear the generator coordinates
    for _ in range(rng.randint(0, 3)):
        if g >= 2:
            i, j = rng.sample(range(g), 2)
            r = rng.randint(-2, 2)
            for c in cols:
                c[i] += r * c[j]
    return FPModule(ring, g, [tuple(c) for c in cols])


def test_criterion_6_hom_group_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(16180)
    rings = [ZZ, Zmod(4), Zmod(6), Zmod(8), Zmod(9), Zmod(12)]
    mismatches = []
    pairs = 200
    nonzero_groups = 0
    for _ in range(pairs):
        ring = rng.choice(rings)
        m = _random_presented_module(rng, ring)
        n = _random_presented_module(rng, ring)
        hg = hom_group(m, n)
        if hg.generators:
            nonzero_groups += 1
        spanned = {h.matrix for h in hom_group_elements(hg)}
        listed = {h.matrix for h in enumerate_homs(m, n, cap=5_000_000)}
        if spanned != listed:
            mismatches.append((ring, m.invariant_factors, n.invariant_factors))
    elapsed = time.monotonic() - start
    ok = not mismatches and nonzero_groups >= 100
    record(
        "criterion 6 (hom-group span = brute-force enumeration)",
        ok,
        f"{pairs} random pairs of finite modules (order <= 64, "
        f"{nonzero_groups} with nonzero hom group), "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == []
    assert nonzero_groups >= 100


def test_criterion_7_injectivity_dual_oracle():
    start = time.monotonic()
    disagreements = []
    modules = 0
    for n in range(2, 13):
        ring = Zmod(n)
        for m in enumerate_universe(ring, 6, 64):
            modules += 1
            if is_injective_module(m) != is_injective_by_structure(m):
                disagreements.append((n, m.invariant_factors))
    elapsed = time.monotonic() - start
    ok = not disagreements
    record(
        "criterion 7 (Baer brute force = structure criterion)",
        ok,
        f"{modules} modules of order <= 64 over Z/n, n in 2..12, "
        f"{len(disagreements)} disagreements, {elapsed:.1f}s",
    )
    assert disagreements == []


def test_criterion_8_snf_random_matrices():
    start = time.monotonic()
    rng = random.Random(62832)
    count = 500
    for _ in range(count):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
            ZZ,
            rows=rows,
            cols=cols,
        )
        snf_invariants_hold(a)
    elapsed = time.monotonic() - start
    record(
        "criterion 8 (Smith form invariants on random matrices)",
        True,
        f"{count} random matrices up to 5x5: transforms, unimodularity, "
        f"divisibility chain, determinant divisors all exact, {elapsed:.1f}s",
    )
