"""Torsion theories induced by a subcategory of injectives, and verification.

The torsion radical of M is the closure of its zero submodule: the joint
kernel of every map from M into the subcategory.  Modules with radical equal
to themselves form the torsion class T, modules with vanishing radical the
torsion-free class F; ``verify_torsion_theory`` checks the defining laws and
the closure properties of both classes over a finite universe of modules,
with finite stand-ins for the infinitary closure conditions.

The module-level memos are ``functools.lru_cache``s of 1024 entries each, on
``torsion_radical``, ``_lr_support`` and ``class_pair_support``; their
``cache_info()`` gives the hits and misses of a process.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations_with_replacement, product
from math import gcd
from typing import NamedTuple

from .closure import Subcategory, _admits_nonzero_map, _closure_lattice, _exponent
from .lattices import Lattice
from .modules import FPModule, Submodule, quotient_module
from .rings import Ring, _divisors, _regroup, _seen_part


# Memo size 1024: verify misses once per universe object and per radical it
# presents as a module (5 to 19 times on the benchmark's ``universe``
# requests), so the memo holds every radical of a command.
@lru_cache(maxsize=1024)
def torsion_radical(m: FPModule, cat: Subcategory) -> Submodule:
    """The largest submodule invisible to the subcategory: closure of zero."""
    return Submodule(m, _closure_lattice(m.lattice, cat))


def _in_torsion_class(chain: tuple[int, ...], cat: Subcategory) -> bool:
    """Membership in T of the class of an invariant-factor chain: the
    radical is everything, so no factor is free and none has a prime that
    the subcategory sees (a prime of E, ``closure._exponent``)."""
    exponent = _exponent(cat)
    return all(d and gcd(d, exponent) == 1 for d in chain)


def _in_torsion_free_class(chain: tuple[int, ...], cat: Subcategory) -> bool:
    """Membership in F of the class of an invariant-factor chain: the
    radical vanishes, so every nonzero factor has all its primes among the
    primes of E (``closure._exponent``).

    The radical of a direct sum is the sum of the radicals of the summands,
    and the radical of Z/d is the part of Z/d off the primes of E, which is
    zero exactly when d is its own part on those primes.  A free factor (a
    0, only over Z) has zero radical: the maps from Z into a nonzero
    divisible group have joint kernel 0.
    """
    exponent = _exponent(cat)
    return all(d == 0 or _seen_part(d, exponent) == d for d in chain)


def _sum_chain(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The invariant-factor chain of the direct sum of modules with chains
    ``a`` and ``b``, without building either module: the regrouping of
    their factors by pairwise gcds and lcms (``rings._regroup``)."""
    return _regroup(a + b)[0]


def _first_bad_sum(members, member_of):
    """The first pair, x at or before y in ``members``, whose direct sum's
    chain fails ``member_of``, as a counterexample, or ``None``.  x + y and
    y + x are isomorphic, so the unordered pairs decide every ordered one."""
    for i, x in enumerate(members):
        for y in members[i:]:
            if not member_of(_sum_chain(x.invariant_factors, y.invariant_factors)):
                return {"left": _label(x), "right": _label(y)}
    return None


def _inside(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every partition inside ``lam``, padded with zeros to ``len(lam)`` parts."""
    shapes = [()]
    for part in lam:
        shapes = [s + (x,) for s in shapes for x in range(min(s[-1:] + (part,)) + 1)]
    return shapes


# Memo size 1024: one entry per p-type (partition), each prime of a chain
# sharing it; a desk-scale command meets a few dozen types.
@lru_cache(maxsize=1024)
def _lr_support(lam: tuple[int, ...]) -> frozenset:
    """The (mu, nu) with Littlewood-Richardson coefficient c^lam_{mu nu}
    nonzero, as partitions without zero parts: for each mu inside ``lam``,
    the contents of the LR tableaux of shape lam/mu.

    A tableau is filled row by row.  Row i holds entries 0..i (0-based),
    weakly increasing, each larger than the entry above it when that cell
    lies outside mu.  The reverse reading word (rows right to left, top to
    bottom) is a lattice word: reading a row's entries v + 1 before its
    entries v, no prefix may hold more v + 1 than v.
    """
    k = len(lam)
    out = set()

    def fill(mu, i, above, content):
        if i == k:
            out.add((tuple(x for x in mu if x), tuple(x for x in content if x)))
            return
        for row in combinations_with_replacement(range(i + 1), lam[i] - mu[i]):
            if any(above.get(mu[i] + j, -1) >= v for j, v in enumerate(row)):
                continue
            grown = [c + row.count(v) for v, c in enumerate(content)]
            if all(grown[v] <= content[v - 1] for v in range(1, i + 1)):
                fill(mu, i + 1, {mu[i] + j: v for j, v in enumerate(row)}, grown)

    for mu in _inside(lam):
        fill(mu, 0, {}, [0] * k)
    return frozenset(out)


def _chain_of(types) -> tuple[int, ...]:
    """The ascending invariant-factor chain of the sum of p-groups given as
    (p, partition) pairs."""
    factors = [1] * max((len(parts) for _, parts in types), default=0)
    for p, parts in types:
        for j, e in enumerate(parts):
            factors[j] *= p**e
    return tuple(reversed(factors))


# Largest trial divisor of ``_prime_factors``: enough to factor any number
# below 2^40, in about 0.2 s at most.
TRIAL_DIVISION_BOUND = 2**20


def _prime_factors(n: int) -> dict[int, int]:
    """The prime factorization of ``n >= 1`` by trial division up to
    ``TRIAL_DIVISION_BOUND``.

    Raises ``ValueError`` when a cofactor of at least the bound squared is
    left with no divisor below the bound, instead of dividing on for ever.
    """
    out: dict[int, int] = {}
    rest, p = n, 2
    while p * p <= rest:
        if p > TRIAL_DIVISION_BOUND:
            raise ValueError(
                f"cannot factor {n}: its cofactor {rest} has no prime factor "
                f"up to the trial-division bound {TRIAL_DIVISION_BOUND}"
            )
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


# Caps on the pair-set work of one chain, each checked before the work it
# bounds.  The Littlewood-Richardson search of a p-type grows fast with its
# cell count (the sum of its exponents): on a 2-core Xeon VM every type of 16
# cells takes at most 0.1 s, of 18 cells 0.2 s, of 20 cells 0.53 s (for
# (6, 4, 3, 2, 1, 1, 1, 1, 1), 4,053 pairs), and five sampled types of 22
# cells 0.8 to 1.3 s.  Forming the product over the primes costs about
# 16 us a pair: the 65,625 pairs of (27720,) * 4 take 1.1 s.  The
# benchmark's verify requests reach 5 cells and 14 pairs; the tests other
# than those of these caps reach 8 cells.
PAIR_TYPE_CELL_CAP = 20
PAIR_SET_CAP = 100_000


# Memo size 1024: one entry per invariant-factor chain; a universe build
# meets one per object (at most a few hundred at desk scale), and verify's
# rebuild with the subcategory's missing classes hits them again.
@lru_cache(maxsize=1024)
def class_pair_support(chain: tuple[int, ...]) -> frozenset:
    """The distinct (class of S, class of M/S), as invariant-factor chains,
    over the submodules S of the finite module M with invariant-factor chain
    ``chain``, found without listing a submodule.

    M and each of its submodules are the sums of their p-parts, so the pair
    set is the product over the primes p of the pair sets of the p-parts.  A
    p-group of type lam has a subgroup of type mu with quotient of type nu
    iff the Littlewood-Richardson coefficient c^lam_{mu nu} is nonzero
    (Green; Klein 1968; Macdonald, *Symmetric Functions and Hall
    Polynomials*, ch. II), which does not depend on p.  The primes come
    from ``_prime_factors`` of the largest factor, which raises
    ``ValueError`` past its trial-division bound.

    Raises ``ValueError`` for a p-type of more than ``PAIR_TYPE_CELL_CAP``
    cells, before any support is searched, and for a pair set of more than
    ``PAIR_SET_CAP`` pairs, as soon as the supports found so far multiply
    past it and before the product over the primes is formed.
    """
    if 0 in chain:
        raise ValueError("class pairs require a finite module")
    types = []
    for p in _prime_factors(chain[-1]) if chain else ():
        exps = []
        for d in chain:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exps.append(e)
        if sum(exps) > PAIR_TYPE_CELL_CAP:
            raise ValueError(
                f"class pairs of {list(chain)}: its {p}-part has {sum(exps)} "
                f"cells, past the cell cap of {PAIR_TYPE_CELL_CAP}"
            )
        types.append((p, tuple(reversed(exps))))
    per_prime, size = [], 1
    for p, lam in types:
        support = _lr_support(lam)
        size *= len(support)
        if size > PAIR_SET_CAP:
            raise ValueError(
                f"class pairs of {list(chain)}: at least {size} pairs, past the "
                f"pair-set cap of {PAIR_SET_CAP}"
            )
        per_prime.append([((p, mu), (p, nu)) for mu, nu in support])
    return frozenset(
        (_chain_of([sub for sub, _ in combo]), _chain_of([quo for _, quo in combo]))
        for combo in product(*per_prime)
    )


class ModuleUniverse:
    """A finite list of modules over one ring, deduplicated up to isomorphism.

    ``pair_sets[i]`` is the set of distinct (class of S, class of M/S) over
    the submodules S of M = ``objects[i]``, as invariant-factor chains, read
    from the Littlewood-Richardson support of M's chain
    (:func:`class_pair_support`, which refuses a chain past its work caps)
    without listing a submodule.  The scan stops at the first infinite
    object.  ``verify`` reads a failing law's counterexample from these sets
    as well, as the least failing pair in tuple order; only
    ``oracles.listed_class_pairs`` lists submodules.

    Closure under submodules and quotients (projections of the pair sets)
    and under finite direct sums is computed, never assumed.  A flag is
    ``None`` when an infinite object comes before any missing class.
    """

    __slots__ = (
        "ring",
        "objects",
        "pair_sets",
        "closed_under_submodules",
        "closed_under_quotients",
        "closed_under_sums",
    )

    def __init__(self, ring: Ring, objects):
        objs = sorted(
            objects,
            key=lambda m: (len(m.invariant_factors), m.invariant_factors, m.n_gens),
        )
        seen = set()
        kept = []
        for m in objs:
            if m.ring != ring:
                raise ValueError(f"universe object over {m.ring} in a {ring} universe")
            if m.invariant_factors not in seen:
                seen.add(m.invariant_factors)
                kept.append(m)
        self.ring = ring
        self.objects = tuple(kept)
        pair_sets = []
        for m in self.objects:
            if not m.is_finite:
                break
            pair_sets.append(class_pair_support(m.invariant_factors))
        self.pair_sets = tuple(pair_sets)
        self.closed_under_submodules = self._closure_flag(seen, 0)
        self.closed_under_quotients = self._closure_flag(seen, 1)
        self.closed_under_sums = _first_bad_sum(self.objects, seen.__contains__) is None

    def _closure_flag(self, iso_classes, side: int):
        for pairs in self.pair_sets:
            if any(pair[side] not in iso_classes for pair in pairs):
                return False
        return None if len(self.pair_sets) < len(self.objects) else True

    def __repr__(self) -> str:
        return f"ModuleUniverse({self.ring}, {len(self.objects)} objects)"


# Cap on the summed orders of the modules one enumeration may return.  verify
# no longer lists submodules while its laws hold, and it decides membership,
# direct sums and the T -> F law on invariant-factor chains, but it still
# reads three radicals per object (one echelon each over Z/n), one preimage
# and one pushed-back lattice per object, and a gcd test per (T, F) pair, all
# growing with the universe; ``verify --oracle`` lists every submodule of
# each object, which takes time at least its order.  Z/12 with at
# most 3 generators and order at most 300 sums to 2,168.
UNIVERSE_ORDER_CAP = 4096


def enumerate_universe(ring: Ring, max_gens: int, max_order: int) -> list[FPModule]:
    """One module per isomorphism class: all invariant-factor chains with at
    most ``max_gens`` factors and order at most ``max_order`` (the zero module
    included).  Over a modular ring the factors divide the modulus.

    Raises ``ValueError`` once the summed orders of the modules found pass
    ``UNIVERSE_ORDER_CAP``, instead of enumerating an unbounded universe.
    """
    if max_gens < 0 or max_order < 1:
        raise ValueError("bounds must be nonnegative (and order at least 1)")
    divisors = _divisors(ring.modulus, max_order) if ring.is_modular else None
    chains: list[tuple[int, ...]] = []
    total = 0

    def extend(chain, product):
        nonlocal total
        total += product
        if total > UNIVERSE_ORDER_CAP:
            raise ValueError(
                f"universe too large: the module orders found so far sum to "
                f"{total}, past the cap of {UNIVERSE_ORDER_CAP}; lower the "
                f"generator or order bound"
            )
        chains.append(tuple(chain))
        if len(chain) >= max_gens:
            return
        last = chain[-1] if chain else 1
        if divisors is None:
            steps = range(max(last, 2), max_order + 1, last)
        else:
            steps = (d for d in divisors if d % last == 0)
        for d in steps:
            if product * d > max_order:
                break
            extend(chain + [d], product * d)

    extend([], 1)
    return [_chain_module(ring, chain) for chain in chains]


def _chain_module(ring: Ring, chain: tuple[int, ...]) -> FPModule:
    """Z^k / diag(chain): the module whose invariant factors are ``chain``,
    on its diagonal lattice, which is canonical and in Smith form as it
    stands."""
    return FPModule(ring, len(chain), Lattice.diagonal(chain))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""
    counterexample: dict | None = None


class TorsionTheoryReport(NamedTuple):
    """Verification record of the pair (T, F) over a finite module universe."""

    cat: Subcategory
    universe: ModuleUniverse
    T_members: tuple[FPModule, ...]
    F_members: tuple[FPModule, ...]
    radical_table: tuple[tuple[FPModule, Submodule], ...]
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _label(m: FPModule) -> list[int]:
    return list(m.invariant_factors)


def verify_torsion_theory(
    universe: ModuleUniverse, cat: Subcategory
) -> TorsionTheoryReport:
    """Run every torsion-theory law over the universe and report per check.

    Objects of the subcategory whose classes the universe lacks are
    adjoined to it (the rebuilt universe finds the pair sets already
    computed in ``class_pair_support``'s memo); when none is missing, the
    given universe is reused as it is.  The closure conditions on T and F
    are checked in their finite variants: quotients, submodules, pairwise
    direct sums, and extensions realizable inside universe objects.

    The laws on submodules, quotients and extensions are decided on the
    universe's pair sets, so no submodule is listed.  A failing law reports
    the least failing (submodule chain, quotient chain) pair, in tuple
    order, of the first object in universe order where it fails; both depend
    only on the invariant-factor chains, not on how an object is presented.
    Membership in T (no nonzero map into the subcategory) and in F (maps
    into the subcategory separate elements) is decided once per
    invariant-factor chain by gcds, and direct sums by their chains, so a
    class outside the universe is never built as a module.  The law that no
    nonzero map runs from T to F reads the same gcd formula on each pair of
    chains.  The radical table and the radical laws compute each radical as
    the closure of zero, on lattices: t(M) is presented on its canonical
    generators b by the preimage of M's relations under b, and its own
    radical is pushed back into M along b.  No hom group is built.
    """
    if universe.ring != cat.ring:
        raise ValueError("universe and subcategory must share a ring")
    classes = {m.invariant_factors for m in universe.objects}
    missing = []
    for obj in cat.finite_objects:
        if obj.invariant_factors not in classes:
            classes.add(obj.invariant_factors)
            missing.append(obj)
    if missing:
        universe = ModuleUniverse(universe.ring, universe.objects + tuple(missing))
    objects = universe.objects
    if len(universe.pair_sets) < len(objects):
        infinite = objects[len(universe.pair_sets)]
        raise ValueError(
            f"verify requires finite universe objects: the object with "
            f"invariant factors {_label(infinite)} is infinite"
        )

    radical_table = tuple((m, torsion_radical(m, cat)) for m in objects)

    # per-call memos, one entry per chain the laws meet
    @cache
    def in_t(chain: tuple[int, ...]) -> bool:
        return _in_torsion_class(chain, cat)

    @cache
    def in_f(chain: tuple[int, ...]) -> bool:
        return _in_torsion_free_class(chain, cat)

    t_members = tuple(m for m in objects if in_t(m.invariant_factors))
    f_members = tuple(m for m in objects if in_f(m.invariant_factors))

    def module(m):
        return {"module": _label(m)}

    # the radical laws, one pass over the objects: the first object where
    # each law fails
    idem_bad = rad_in_t_bad = quot_bad = None
    for m, t in radical_table:
        # t(M) presented on its canonical generators b, and the radical of
        # that module pushed back into M along b
        b = t.canonical_gens
        smod = FPModule(m.ring, b.cols, m.lattice.preimage(b))
        inner = torsion_radical(smod, cat).lattice
        pushed = Lattice.from_columns(
            m.n_gens, m.lattice.basis + tuple(b.apply(c) for c in inner.basis)
        )
        if pushed != t.lattice:
            idem_bad = idem_bad or module(m)
        if not in_t(smod.invariant_factors):
            rad_in_t_bad = rad_in_t_bad or module(m)
        # F membership of M/t(M) is the vanishing of its radical, so one
        # radical decides two laws
        if not torsion_radical(quotient_module(m, t), cat).is_zero:
            quot_bad = quot_bad or module(m)

    def pair_law(fails, report):
        """The least (S, M/S) pair, reported on the chains of M, S and M/S,
        of the first object whose pair set holds one that ``fails``."""
        for m, pairs in zip(objects, universe.pair_sets):
            mc = m.invariant_factors
            least = min((p for p in pairs if fails(mc, *p)), default=None)
            if least is not None:
                return report(mc, *least)
        return None

    def quotient(mc, sc, qc):
        return {"module": list(mc), "quotient": list(qc)}

    def submodule(mc, sc, qc):
        return {"module": list(mc), "submodule": list(sc)}

    def extension(mc, sc, qc):
        return {"middle": list(mc), "sub": list(sc), "quotient": list(qc)}

    realizable = "finite variant: extensions realizable inside universe objects"
    # (name, detail, first counterexample or None), in report order
    laws = (
        ("subcategory_meets_torsion_class_trivially", "", next(
            ({"object": _label(a)} for a in cat.finite_objects
             if not a.is_zero and in_t(a.invariant_factors)), None)),
        ("subcategory_inside_torsion_free_class", "", next(
            ({"object": _label(a)} for a in cat.finite_objects
             if not in_f(a.invariant_factors)), None)),
        ("torsion_and_torsion_free_intersect_trivially", "", next(
            (module(m) for m in t_members if m in f_members and not m.is_zero), None)),
        # by the gcd formula on chains
        ("no_nonzero_hom_torsion_to_torsion_free", "", next(
            ({"from": _label(x), "to": _label(y)} for x in t_members for y in f_members
             if _admits_nonzero_map(x.invariant_factors, y)), None)),
        ("radical_is_idempotent", "", idem_bad),
        ("radical_lies_in_torsion_class", "", rad_in_t_bad),
        ("radical_of_quotient_by_radical_vanishes", "", quot_bad),
        ("quotient_by_radical_is_torsion_free", "", quot_bad),
        ("torsion_class_closed_under_quotients", "", pair_law(
            lambda mc, sc, qc: in_t(mc) and not in_t(qc), quotient)),
        ("torsion_class_closed_under_finite_sums", "finite variant",
         _first_bad_sum(t_members, in_t)),
        ("torsion_class_closed_under_extensions", realizable, pair_law(
            lambda mc, sc, qc: in_t(sc) and in_t(qc) and not in_t(mc), extension)),
        ("torsion_class_closed_under_submodules", "hereditary property", pair_law(
            lambda mc, sc, qc: in_t(mc) and not in_t(sc), submodule)),
        ("torsion_free_class_closed_under_submodules", "", pair_law(
            lambda mc, sc, qc: in_f(mc) and not in_f(sc), submodule)),
        ("torsion_free_class_closed_under_finite_products", "finite variant",
         _first_bad_sum(f_members, in_f)),
        ("torsion_free_class_closed_under_extensions", realizable, pair_law(
            lambda mc, sc, qc: in_f(sc) and in_f(qc) and not in_f(mc), extension)),
    )

    return TorsionTheoryReport(
        cat=cat,
        universe=universe,
        T_members=t_members,
        F_members=f_members,
        radical_table=radical_table,
        checks=tuple(CheckResult(name, bad is None, detail, bad) for name, detail, bad in laws),
    )
